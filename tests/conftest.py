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
