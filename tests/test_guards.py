"""Each input guard of the package, triggered by a minimal input.

The guards refuse inputs no model or command reaches; every case names
the call, the exception type and its message.
"""

import re

import numpy as np
import pytest

import ruelleop as ro
from ruelleop import cli, spectral
from ruelleop.config import set_cylinder_cap

SPACE = ro.uniform_space(2)
CONST = ro.builtin_constant(SPACE, 0.0)
DEPTH3 = ro.Potential(SPACE, 3, np.zeros(8))
UNIFORM1 = ro.product_measure(SPACE, 1)
UNIFORM2 = ro.product_measure(SPACE, 2)
POINT1 = ro.CylinderMeasure(SPACE, 1, [1.0, 0.0])


class MasslessKernel:
    """A kernel whose adjoint products vanish: power iteration finds no mass."""

    size = 2

    def matvec(self, x):
        return x.copy()

    def tmatvec(self, x):
        return np.zeros_like(x)


def zero_forward(kernel, **_):
    """A converged run whose forward vector is zero: its integral against nu is 0."""
    nd = kernel.size
    return spectral.PowerIterationResult(
        lam=1.0,
        right=np.zeros(nd),
        left=np.full(nd, 1.0 / nd),
        residual_right=0.0,
        residual_left=0.0,
        iterations=1,
        converged=True,
    )


def eigendata_without_integral(monkeypatch):
    monkeypatch.setattr(spectral, "power_iterate", zero_forward)
    ro.perron_eigendata(CONST)


def case(call, error, message, name):
    return pytest.param(call, error, message, id=name)


GUARDS = [
    case(lambda _: ro.SymbolSpace(0, np.ones(0)), ValueError, "a symbol space needs at least one symbol", "space-size"),
    case(lambda _: ro.SymbolSpace(2, [1.0]), ValueError, "expected 2 weights, got shape (1,)", "space-weights"),
    case(lambda _: ro.gauss_legendre_space(0), ValueError, "quadrature size must be at least 1", "quadrature-size"),
    case(lambda _: ro.word_index((2,), 2), ValueError, "symbol 2 out of range for size-2 space", "word-symbol"),
    case(lambda _: ro.index_word(4, 2, 2), ValueError, "index 4 out of range for 2^2 words", "word-index"),
    case(lambda _: ro.CylinderMeasure(SPACE, -1, []), ValueError, "depth must be non-negative", "measure-depth"),
    case(
        lambda _: ro.extend_eigenmeasure(DEPTH3, 0.0, UNIFORM1),
        ValueError,
        "measure depth 1 too shallow for a depth-3 potential",
        "extension-depth",
    ),
    case(
        lambda _: ro.check_eigenmeasure(ro.build_kernel(CONST, 1), 0.0, UNIFORM1, 2),
        ValueError,
        "test depth 2 outside 0..1",
        "eigenmeasure-test-depth",
    ),
    case(
        lambda _: ro.check_invariance(UNIFORM1, CONST, 0.0, UNIFORM2),
        ValueError,
        "mu and nu must share a depth",
        "invariance-depths",
    ),
    case(
        lambda _: ro.check_invariance(UNIFORM1, CONST, 0.0, POINT1),
        ValueError,
        "nu must be strictly positive on cylinders",
        "invariance-positive-nu",
    ),
    case(
        lambda _: ro.check_invariance(UNIFORM1, DEPTH3, 0.0, UNIFORM1),
        ValueError,
        "measure depth 1 too shallow for a depth-3 potential",
        "invariance-depth",
    ),
    case(
        lambda _: ro.markov_entropy_gap(UNIFORM2, DEPTH3, None, 1),
        ValueError,
        "measure too shallow to integrate the potential",
        "gap-depth",
    ),
    case(
        lambda _: ro.RenewalPotential(SPACE, [0.0], var_bound=-1.0),
        ValueError,
        "var_bound must be finite and non-negative",
        "renewal-var-bound",
    ),
    case(
        lambda _: ro.builtin_renewal(SPACE, [0.0], tail="linear"),
        ValueError,
        "tail must be 'constant' or a RenewalTail",
        "renewal-tail",
    ),
    case(
        lambda _: ro.pressure_curve(CONST, [0.0]),
        ValueError,
        "need a one-dimensional grid of at least two beta values",
        "scan-grid-size",
    ),
    case(
        lambda _: ro.pressure_curve(CONST, [1.0, 0.0]),
        ValueError,
        "beta grid must be strictly increasing",
        "scan-grid-order",
    ),
    case(lambda _: ro.pressure_bracket(CONST, 0), ValueError, "need at least one application", "bracket-steps"),
    case(
        lambda _: ro.power_iterate(MasslessKernel()),
        ro.NumericError,
        "adjoint iteration produced mass 0.0",
        "power-iteration-mass",
    ),
    case(
        lambda _: ro.power_iterate(MasslessKernel(), tol=float("nan")),
        ValueError,
        "tol must be positive and finite",
        "power-iteration-tol",
    ),
    case(
        lambda _: ro.power_iterate(MasslessKernel(), max_iters=0),
        ValueError,
        "max_iters must be at least 1",
        "power-iteration-max-iters",
    ),
    case(
        lambda _: ro.pressure_curve(CONST, [0.0, 1.0], tol=0.0),
        ValueError,
        "tol must be positive and finite",
        "scan-tol",
    ),
    case(
        lambda _: ro.pressure_curve(CONST, [0.0, 1.0], max_iters=0),
        ValueError,
        "max_iters must be at least 1",
        "scan-max-iters",
    ),
    case(
        eigendata_without_integral,
        ro.NumericError,
        "eigenfunction integral against the eigenmeasure is not positive",
        "eigendata-integral",
    ),
    case(lambda _: ro.CylinderFunction(SPACE, -1, []), ValueError, "depth must be non-negative", "function-depth"),
    case(
        lambda _: ro.build_kernel(CONST, 12).to_dense(),
        ro.ResourceCapError,
        "dense 4096x4096 kernel exceeds the cylinder cap",
        "dense-kernel-cap",
    ),
    case(lambda _: ro.iterate_one(CONST, -1, 1), ValueError, "iteration count must be non-negative", "iterate-count"),
    case(
        lambda _: ro.brute_force_iterate(CONST, 0, ()),
        ValueError,
        "brute force needs at least one application",
        "brute-force-steps",
    ),
    case(lambda _: cli.build_space({"kind": "hex"}), ro.ConfigError, "unknown space kind 'hex'", "config-space-kind"),
    case(lambda _: set_cylinder_cap(0), ValueError, "cylinder cap must be a positive integer", "cylinder-cap"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_input_guard_refuses(monkeypatch, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(monkeypatch)
