import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ruelleop as ro
from conftest import models


def log_iterate_oracle(f, n, word):
    """Log-domain recursion over prepend histories, written from the definition.

    Structurally independent of both shipped paths (linear recursion and
    kernel iteration): recurses in log space with an explicit shift.
    """

    def rec(cur, steps):
        if steps == 0:
            return 0.0
        terms = []
        for a in range(f.space.size):
            ext = (a,) + cur
            terms.append(
                math.log(f.space.weights[a]) + f.evaluate(ext) + rec(ext, steps - 1)
            )
        peak = max(terms)
        return peak + math.log(sum(math.exp(t - peak) for t in terms))

    return rec(tuple(word), n)


def test_apply_constant_potential_to_ones(three_space):
    f = ro.builtin_constant(three_space, 0.7)
    out = ro.apply_transfer(f, ro.CylinderFunction(three_space, 0, np.ones(1)))
    assert out.depth == 0
    # sum_a w_a e^c = e^c since the weights are a probability vector
    assert out.values[0] == pytest.approx(math.exp(0.7), rel=1e-15)


def test_apply_pair_potential_hand_computed(two_space):
    J = 0.9
    f = ro.builtin_ising(two_space, J)
    phi = ro.CylinderFunction(two_space, 1, np.array([2.0, 5.0]))
    out = ro.apply_transfer(f, phi)
    assert out.depth == 1
    # out[u] = 0.5 e^{J s(0) s(u)} * 2 + 0.5 e^{J s(1) s(u)} * 5
    want0 = 0.5 * math.exp(J) * 2.0 + 0.5 * math.exp(-J) * 5.0
    want1 = 0.5 * math.exp(-J) * 2.0 + 0.5 * math.exp(J) * 5.0
    assert out.values[0] == pytest.approx(want0, rel=1e-15)
    assert out.values[1] == pytest.approx(want1, rel=1e-15)


def test_kernel_matvec_agrees_with_apply(two_space):
    f = ro.Potential(two_space, 3, np.random.default_rng(5).uniform(-1, 1, 8))
    kern = ro.build_kernel(f, 4)
    rng = np.random.default_rng(6)
    for m in (0, 1, 2, 3, 4):
        vals = rng.uniform(-1.0, 1.0, two_space.size**m)
        phi = ro.CylinderFunction(two_space, m, vals)
        out = ro.apply_transfer(f, phi)
        # a depth-m function read at depth 4: each value repeats over 2^(4-m) words
        via_apply = np.repeat(out.values, 2 ** (4 - out.depth))
        via_kernel = np.exp(kern.offset) * kern.matvec(np.repeat(vals, 2 ** (4 - m)))
        assert np.allclose(via_kernel, via_apply, rtol=1e-14, atol=1e-14)


def test_linearity_and_positivity(two_space):
    f = ro.builtin_ising(two_space, 1.2, 0.1)
    kern = ro.build_kernel(f, 2)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, kern.size)
    y = rng.uniform(-1, 1, kern.size)
    both = kern.matvec(2.5 * x - 1.5 * y)
    assert np.allclose(both, 2.5 * kern.matvec(x) - 1.5 * kern.matvec(y), rtol=1e-13, atol=1e-13)
    pos = kern.matvec(np.abs(x))
    assert np.all(pos >= 0)
    assert np.all(kern.matvec(np.abs(x) + 0.01) >= pos)


def test_row_sums_inside_sup_norm_band(two_space):
    f = ro.builtin_ising(two_space, 0.8, -0.2)
    kern = ro.build_kernel(f, 3)
    ones = np.ones(kern.size)
    row_sums = np.exp(kern.offset) * kern.matvec(ones)
    hi = math.exp(f.sup_norm)
    lo = math.exp(-f.sup_norm)
    assert np.all(row_sums <= hi * (1 + 1e-14))
    assert np.all(row_sums >= lo * (1 - 1e-14))


def test_brute_force_matches_log_oracle(three_space):
    rng = np.random.default_rng(31)
    f = ro.Potential(three_space, 2, rng.uniform(-1.5, 1.5, 9))
    for word in ((0,), (2,), (1,)):
        for n in (1, 2, 5):
            got = ro.brute_force_iterate(f, n, word)
            want = math.exp(log_iterate_oracle(f, n, word))
            assert got == pytest.approx(want, rel=1e-12)


def test_iterate_one_matches_brute_force(three_space):
    rng = np.random.default_rng(32)
    f = ro.Potential(three_space, 2, rng.uniform(-1.0, 1.0, 9))
    for n in (1, 3, 6):
        vals = ro.iterate_one(f, n, 1).values
        for idx in range(3):
            brute = ro.brute_force_iterate(f, n, (idx,))
            assert vals[idx] == pytest.approx(brute, rel=1e-12)


def test_iterate_one_log_and_linear_paths_agree(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.5)
    lin = ro.iterate_one(f, 20, 1)
    logv = ro.iterate_one(f, 20, 1, return_log=True)
    assert np.allclose(np.log(lin.values), logv.values, rtol=1e-12, atol=1e-12)


def test_iterate_one_log_path_handles_large_exponents(two_space):
    f = ro.builtin_constant(two_space, 1.0)
    out = ro.iterate_one(f, 800, 1, return_log=True)
    # operator multiplies by e^c each step, so the n-th iterate of 1 is e^{n c}
    assert np.allclose(out.values, 800.0, rtol=1e-12, atol=1e-9)
    with pytest.raises(ro.NumericError):
        ro.iterate_one(f, 800, 1)  # linear values would overflow


def test_iterate_zero_times_is_identity(two_space):
    f = ro.builtin_ising(two_space, 0.4)
    out = ro.iterate_one(f, 0, 2)
    assert np.array_equal(out.values, np.ones(4))


def test_brute_force_depth_guard(two_space):
    f = ro.Potential(two_space, 3, np.zeros(8))
    with pytest.raises(ValueError):
        ro.brute_force_iterate(f, 2, (0,))  # needs at least k-1 = 2 symbols


def test_build_kernel_depth_guard(two_space):
    f = ro.Potential(two_space, 3, np.zeros(8))
    with pytest.raises(ValueError):
        ro.build_kernel(f, 1)
    kern = ro.build_kernel(f, 2)
    assert kern.size == 4
    assert kern.nnz == 8


def test_kernel_respects_cylinder_cap(two_space):
    f = ro.builtin_ising(two_space, 1.0)
    old = ro.cylinder_cap()
    try:
        ro.set_cylinder_cap(8)
        ro.build_kernel(f, 3)
        with pytest.raises(ro.ResourceCapError):
            ro.build_kernel(f, 4)
    finally:
        ro.set_cylinder_cap(old)


def test_weight_tables_follow_the_potential():
    # a ternary depth-3 table at the edge depth 2 and at the deeper depth 4
    space = ro.finite_space(np.array([0.2, 0.3, 0.5]))
    f = ro.Potential(space, 3, np.random.default_rng(5).uniform(-2.0, 2.0, 27))
    n, k = 3, 3
    for depth in (2, 4):
        kernel = ro.build_kernel(f, depth)
        table = (f.table - kernel.offset).reshape(n, -1)
        log_ew = np.log(space.weights)[:, None] + table
        ew = space.weights[:, None] * np.exp(table)
        _, p1, rw = kernel.blocks
        rows = np.arange(kernel.size)
        q, r = np.divmod(rows, n)
        prefix = rows // n ** (depth - k + 1)
        preds = np.arange(n)[:, None] * (kernel.size // n) + q
        assert same_bits(kernel.log_ew_arq[:, r % rw, q // p1], log_ew[:, prefix])

        dense = np.zeros((kernel.size, kernel.size))
        dense[rows, preds] = ew[:, prefix]
        assert same_bits(kernel.to_dense(), dense)

        lx = np.random.default_rng(depth).uniform(-5.0, 5.0, kernel.size)
        terms = log_ew[:, prefix] + lx[preds]
        peak = terms.max(axis=0)
        assert same_bits(kernel.log_matvec(lx), peak + np.log(np.exp(terms - peak).sum(axis=0)))


def test_cylinder_function_validation(two_space):
    with pytest.raises(ValueError):
        ro.CylinderFunction(two_space, 2, np.zeros(3))
    with pytest.raises(ValueError):
        ro.CylinderFunction(two_space, 1, np.array([1.0, np.nan]))


def test_mixed_spaces_rejected(two_space, three_space):
    f = ro.builtin_ising(two_space, 1.0)
    phi = ro.CylinderFunction(three_space, 1, np.ones(3))
    with pytest.raises(ValueError):
        ro.apply_transfer(f, phi)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _spread(kernel, total):
    """Reference layout: the (rw, p0, p1) sums of a forward product as a vector in row order."""
    if kernel.blocks[2] == 1:
        return np.repeat(total.reshape(-1), kernel.space.size)
    return total.reshape(kernel.blocks[2], -1).T.reshape(-1)


def _add_two(terms, axis):
    """The two-term add over a symbol axis of length 2, else the reduction."""
    if terms.shape[axis] != 2:
        return np.sum(terms, axis)
    first, second = np.moveaxis(terms, axis, 0)
    return first + second


def _reference_products(kernel, x, symbol_sum):
    """M x and M^T x as broadcast expressions, each symbol axis summed by symbol_sum(terms, axis)."""
    n = kernel.space.size
    p0, p1, rw = kernel.blocks
    forward = _spread(kernel, symbol_sum(kernel.ew_arq.reshape(n, rw, p0, 1) * x.reshape(n, 1, p0, p1), 0))
    rows = x.reshape(-1, n)
    if rw == 1:
        adjoint = kernel.ew_arq.reshape(n, p0, 1) * symbol_sum(rows, 1).reshape(p0, p1)
    else:
        adjoint = symbol_sum(kernel.ew_arq * rows.T, 1)
    return forward, adjoint.reshape(-1)


def _signed_draw(rng, size):
    return rng.choice(np.array([-0.0, 0.0, 1e-20, 1e16, 1.0]), size) * rng.uniform(-1, 1, size)


@settings(max_examples=100, deadline=None)
@given(models(), st.integers(0, 2**32 - 1))
def test_products_equal_the_broadcast_expressions_bit_for_bit(model, seed):
    # two symbols add their two terms: on two -0.0 terms that gives -0.0,
    # where numpy 2's reduction, which starts from +0.0, gives +0.0
    f, depth = model
    kernel = ro.build_kernel(f, depth)
    n = kernel.space.size
    p0, p1, rw = kernel.blocks
    rng = np.random.default_rng(seed)
    x = _signed_draw(rng, kernel.size)
    lx = np.where(rng.uniform(size=kernel.size) < 0.3, -np.inf, rng.uniform(-50, 50, kernel.size))

    forward, adjoint = _reference_products(kernel, x, _add_two)
    assert same_bits(kernel.matvec(x), forward)
    assert same_bits(kernel.tmatvec(x), adjoint)

    terms = kernel.log_ew_arq.reshape(n, rw, p0, 1) + lx.reshape(n, 1, p0, p1)
    peak = terms.max(axis=0)
    with np.errstate(invalid="ignore"):
        total = peak + np.log(np.exp(terms - peak).sum(axis=0))
    want = _spread(kernel, np.where(np.isfinite(peak), total, -np.inf))
    assert same_bits(kernel.log_matvec(lx), want)


@settings(max_examples=100, deadline=None)
@given(models(), st.integers(0, 2**32 - 1))
def test_products_equal_the_reductions_bit_for_bit_on_the_positive_cone(model, seed):
    # every iterate lies in the cone x >= 0 with no -0.0 entry, where the
    # two-symbol add gives the bits of the reduction over the symbol axis
    f, depth = model
    kernel = ro.build_kernel(f, depth)
    x = np.abs(_signed_draw(np.random.default_rng(seed), kernel.size)) + 0.0
    forward, adjoint = _reference_products(kernel, x, np.sum)
    assert same_bits(kernel.matvec(x), forward)
    assert same_bits(kernel.tmatvec(x), adjoint)
