import math

import numpy as np
import pytest
from hypothesis import strategies as st

import ruelleop as ro

# few distinct table values, so that words often share their row weights;
# each value plus any integer up to 800 is exact in doubles
VALUES = (-1.0, 0.0, 0.5, 1.0)


@pytest.fixture
def two_space():
    return ro.uniform_space(2)


@pytest.fixture
def three_space():
    return ro.uniform_space(3)


@st.composite
def models(draw):
    """(f, depth): n = 2-3 symbols, a depth-1..4 table, a working depth up to 4."""
    n = draw(st.integers(2, 3))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    space = ro.finite_space(raw / raw.sum())
    k = draw(st.integers(1, 4))
    table = draw(st.lists(st.sampled_from(VALUES), min_size=n**k, max_size=n**k))
    depth = draw(st.integers(max(k - 1, 1), 4))
    return ro.Potential(space, k, np.array(table)), depth


def renewal_payoffs(trunc):
    """The payoffs of the criterion-10 renewal family at a truncation."""
    head = -math.log(1.0 / sum(j**-2.7 for j in range(1, 400_000))) / 0.9
    return [-head] + [-3.0 * math.log((j + 1) / j) for j in range(1, trunc - 1)] + [0.0]


def deep_eigenmeasure(f, depth):
    """The adjoint Perron vector of the depth-d kernel, as a probability measure.

    Solved on that kernel itself: the closed-form extension of the
    canonical-depth nu would make the deep-weight certificates blind.
    """
    res = ro.power_iterate(ro.build_kernel(f, depth))
    assert res.converged
    return ro.CylinderMeasure(f.space, depth, res.left / res.left.sum())
