import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ruelleop as ro
from conftest import models
from ruelleop.transfer import _iterate_ones


def dense_pair_eigendata(f):
    """Independent 2x2 oracle for a depth-2 potential over two symbols.

    At depth 1 the operator matrix is M[u, a] = w_a exp(f(a, u)); the
    leading root comes from the characteristic polynomial in closed
    form, the eigenvectors from the 2x2 kernel structure.
    """
    w = f.space.weights
    M = np.array(
        [[w[a] * math.exp(f.evaluate((a, u))) for a in range(2)] for u in range(2)]
    )
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
    right = np.array([M[0, 1], lam - M[0, 0]])
    left = np.array([M[1, 0], lam - M[0, 0]])
    return M, lam, right, left


def test_constant_potential_eigendata(three_space):
    sd = ro.perron_eigendata(ro.builtin_constant(three_space, -0.4))
    assert sd.converged
    assert sd.lam == pytest.approx(math.exp(-0.4), rel=1e-13)
    assert np.allclose(sd.h.values, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(sd.nu.weights, three_space.weights, rtol=0, atol=1e-12)


def test_pair_eigenvalue_matches_char_poly_oracle(two_space):
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = ro.Potential(two_space, 2, rng.uniform(-2.0, 2.0, 4))
        _, lam, right, left = dense_pair_eigendata(f)
        sd = ro.perron_eigendata(f)
        assert sd.converged
        assert sd.lam == pytest.approx(lam, rel=1e-12)
        # up-to-scale agreement of both eigenvectors
        got_h = sd.h.values / np.linalg.norm(sd.h.values)
        want_h = right / np.linalg.norm(right)
        assert np.allclose(got_h, want_h, rtol=0, atol=1e-11)
        got_nu = sd.nu.weights / np.sum(sd.nu.weights)
        want_nu = left / np.sum(left)
        assert np.allclose(got_nu, want_nu, rtol=0, atol=1e-11)


def deep_log_lam(f, depth):
    """log lam from power iteration on the depth-d kernel itself."""
    kernel = ro.build_kernel(f, depth)
    res = ro.power_iterate(kernel)
    assert res.converged
    return math.log(res.lam) + kernel.offset


def test_eigenvalue_is_depth_invariant(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    log_lam = ro.perron_eigendata(f).log_lam
    for d in (1, 2, 4):
        assert deep_log_lam(f, d) == pytest.approx(log_lam, rel=1e-12)
    sp3 = ro.finite_space([0.5, 0.2, 0.3])
    g = ro.Potential(sp3, 2, np.random.default_rng(42).uniform(-1, 1, 9))
    assert deep_log_lam(g, 3) == pytest.approx(ro.perron_eigendata(g).log_lam, rel=1e-12)


def test_eigendata_take_no_working_depth(two_space):
    # tol and max_iters are keyword-only: a depth passed where tol used to sit raises
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    with pytest.raises(TypeError):
        ro.perron_eigendata(f, 2)
    assert ro.perron_eigendata(ro.Potential(two_space, 4, np.arange(16.0) / 16)).h.depth == 3


def test_adding_constant_scales_eigenvalue(two_space):
    f = ro.builtin_ising(two_space, 0.8, -0.1)
    g = ro.Potential(two_space, 2, f.table + 1.3)
    lam_f = ro.perron_eigendata(f).lam
    lam_g = ro.perron_eigendata(g).lam
    assert lam_g == pytest.approx(math.exp(1.3) * lam_f, rel=1e-12)


def test_pressure_dominates_mean_of_potential():
    # the product measure built from the a-priori weights has zero entropy
    # rate relative to them, so log lam >= sum_a w_a f(a) for depth-1 tables
    rng = np.random.default_rng(43)
    for size in (2, 3, 5):
        sp = ro.uniform_space(size)
        for _ in range(5):
            f = ro.Potential(sp, 1, rng.uniform(-2.0, 2.0, size))
            sd = ro.perron_eigendata(f)
            mean = float(np.dot(sp.weights, f.table))
            assert math.log(sd.lam) >= mean - 1e-12


def test_pressure_bracket_contains_eigenvalue(two_space):
    rng = np.random.default_rng(44)
    for _ in range(5):
        f = ro.Potential(two_space, 2, rng.uniform(-1.5, 1.5, 4))
        sd = ro.perron_eigendata(f)
        est = ro.pressure_bracket(f, 12)
        p = math.log(sd.lam)
        assert est.p_inf[-1] <= p + 1e-12
        assert est.p_sup[-1] >= p - 1e-12
        assert est.width == pytest.approx(est.p_sup[-1] - est.p_inf[-1], abs=1e-15)
        # the bracket tightens: late widths at most the early ones
        widths = est.p_sup - est.p_inf
        assert widths[-1] <= widths[0] + 1e-12


def test_bracket_width_zero_for_constant(two_space):
    est = ro.pressure_bracket(ro.builtin_constant(two_space, 0.7), 10)
    assert est.width == 0.0
    assert est.estimate == pytest.approx(0.7, rel=1e-13)


def test_bracket_log_path_matches_linear_path(two_space):
    f = ro.builtin_ising(two_space, 0.9, 0.4)
    lin = ro.pressure_bracket(f, 8)  # (k-1) * osc f = 2.6: linear path
    # the same iterates forced through log space over many more
    # applications: the early entries must agree between the two routes
    tops, bottoms, _ = _iterate_ones(f, 2, 300, log_space=True)
    steps = np.arange(1, 9)
    assert np.allclose(lin.p_sup, tops[:8] / steps, rtol=1e-12, atol=1e-12)
    assert np.allclose(lin.p_inf, bottoms[:8] / steps, rtol=1e-12, atol=1e-12)


def _forbidden(*args):
    raise AssertionError("this product must not run")


@pytest.mark.parametrize(
    "f,depth",
    [
        # (k-1) * osc f is about 18 and 60.6, below the ceiling: the bracket runs linearly
        (ro.Potential(ro.uniform_space(2), 10, np.random.default_rng(10).uniform(-1, 1, 1024)), 9),
        (ro.builtin_ising(ro.uniform_space(2), 30.0, 0.3), 1),
    ],
)
def test_linear_bracket_matches_log_path(f, depth, monkeypatch):
    n_max = 200
    with monkeypatch.context() as m:
        m.setattr(ro.TransferKernel, "log_matvec", _forbidden)
        est = ro.pressure_bracket(f, n_max)
    tops, bottoms, _ = _iterate_ones(f, depth, n_max, log_space=True)
    steps = np.arange(1, n_max + 1)
    np.testing.assert_allclose(est.p_sup, tops / steps, rtol=0, atol=1e-13)
    np.testing.assert_allclose(est.p_inf, bottoms / steps, rtol=0, atol=1e-13)


def dense_log_iterates(f, depth, steps):
    """Extreme entries of log(M^n 1), n = 1..steps, from a dense log-weight matrix.

    Built from the definition (word enumeration and Potential.evaluate):
    row u, column a u_1..u_{d-1} holds log w_a + f(a u); each step is a
    row-wise log-sum-exp, so no value leaves double range.
    """
    n = f.space.size
    size = n**depth
    log_m = np.full((size, size), -np.inf)
    for j, u in enumerate(itertools.product(range(n), repeat=depth)):
        for a in range(n):
            hist = (a,) + u
            log_m[j, ro.word_index(hist[:depth], n)] = math.log(f.space.weights[a]) + f.evaluate(hist)
    lv = np.zeros(size)
    tops, bottoms = [], []
    for _ in range(steps):
        terms = log_m + lv[None, :]
        peak = terms.max(axis=1)
        lv = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
        tops.append(lv.max())
        bottoms.append(lv.min())
    return np.array(tops), np.array(bottoms), log_m


def test_bracket_takes_log_path_past_the_ceiling(two_space, monkeypatch):
    # (k-1) * osc f = 2 * 800 exceeds the ceiling: a rescaled linear vector could underflow
    f = ro.Potential(two_space, 3, 400.0 * np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=float))
    n_max = 40
    monkeypatch.setattr(ro.TransferKernel, "matvec", _forbidden)
    est = ro.pressure_bracket(f, n_max)
    tops, bottoms, log_m = dense_log_iterates(f, 2, n_max)
    steps = np.arange(1, n_max + 1)
    np.testing.assert_allclose(est.p_sup, tops / steps, rtol=1e-14, atol=0)
    np.testing.assert_allclose(est.p_inf, bottoms / steps, rtol=1e-14, atol=0)
    # the dense Perron root (entries up to exp(400) are still doubles) lies in the bracket
    p = math.log(np.max(np.abs(np.linalg.eigvals(np.exp(log_m)))))
    assert est.p_inf[-1] - 1e-12 * p <= p <= est.p_sup[-1] + 1e-12 * p


class TwoCycleKernel:
    """Matrix [[0, 2], [0.5, 0]]: period two, leading eigenvalue 1."""

    size = 2

    def matvec(self, v):
        return np.array([2.0 * v[1], 0.5 * v[0]])

    def tmatvec(self, v):
        return np.array([0.5 * v[1], 2.0 * v[0]])


def test_power_iteration_averages_two_cycles():
    # each step averages the product with its input, (M x + sigma x) / (lam + sigma)
    # with sigma = s lam: the residuals start below 1 (0.3 and 0.6) and, against the
    # eigenvalue -1, shrink by (1 - s) / (1 + s) per step once the mass is near 1
    s = ro.spectral.SHIFT_RATIO
    res = ro.power_iterate(TwoCycleKernel(), tol=1e-12, max_iters=1000)
    assert res.converged
    assert res.iterations < math.log(1e-12) / math.log((1 - s) / (1 + s))
    assert res.lam == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(res.left, [1.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-12)
    assert res.right[0] / res.right[1] == pytest.approx(2.0, rel=1e-11)


class FlipKernel:
    """Matrix [[0, 1], [1, 0]]: the mass stays constant, vectors alternate."""

    size = 2

    def matvec(self, v):
        return v[::-1].copy()

    def tmatvec(self, v):
        return v[::-1].copy()


def test_power_iteration_converges_on_a_pure_flip():
    # M + sigma I has the root 1 + sigma and the other eigenvalue -1 + sigma,
    # so the flip's alternation dies out instead of running to the cap
    start = np.array([0.8, 0.2])
    res = ro.power_iterate(FlipKernel(), tol=1e-12, max_iters=1000, left0=start, right0=start)
    assert res.converged
    assert res.lam == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(res.left, [0.5, 0.5], rtol=0, atol=1e-12)
    assert res.right[0] / res.right[1] == pytest.approx(1.0, rel=1e-11)


def test_power_iteration_reports_the_residuals_of_its_last_step(two_space):
    # residuals are computed only on steps that could converge, and always on the last one
    kernel = ro.build_kernel(ro.builtin_ising(two_space, 1.0, 0.3), 3)
    for max_iters in (1, 5, ro.spectral.DEFAULT_MAX_ITERS):
        res = ro.power_iterate(kernel, max_iters=max_iters)
        assert res.converged == (max_iters > 5)
        # a run one iteration shorter does the same arithmetic and ends on the
        # last step's input; the first step's input is the uniform start
        if res.iterations == 1:
            prev_right, prev_left = np.ones(kernel.size), np.full(kernel.size, 1.0 / kernel.size)
        else:
            prev = ro.power_iterate(kernel, max_iters=res.iterations - 1)
            prev_right, prev_left = prev.right, prev.left
        right = np.max(np.abs(kernel.matvec(prev_right) - res.lam * prev_right))
        left = np.max(np.abs(kernel.tmatvec(prev_left) - res.lam * prev_left))
        assert res.residual_right == right / res.lam
        assert res.residual_left == left / res.lam


def allocating_power_iterate(kernel, tol, max_iters, left0=None, right0=None):
    """The iteration of power_iterate with a new vector per product and per shift."""
    nd = kernel.size
    left = np.full(nd, 1.0 / nd) if left0 is None else np.asarray(left0, float) / np.sum(left0)
    right = np.ones(nd) if right0 is None else np.asarray(right0, float) / np.max(right0)
    lam = math.nan
    resid_l = resid_r = math.inf
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        t_left = kernel.tmatvec(left)
        mass = float(t_left.sum())
        t_right = kernel.matvec(right)
        dlam = abs(mass - lam) / mass if not math.isnan(lam) else math.inf
        if dlam < tol or it == max_iters:
            resid_l = float(np.max(np.abs(t_left - mass * left))) / mass
            resid_r = float(np.max(np.abs(t_right - mass * right))) / mass
        lam = mass
        sigma = ro.spectral.SHIFT_RATIO * mass
        scale = 1.0 / (mass + sigma)
        left = t_left * scale + left * (sigma * scale)
        right = t_right + right * sigma
        right = right * (1.0 / float(right.max()))
        if max(resid_l, resid_r, dlam) < tol:
            converged = True
            break
    return lam, right, left, resid_r, resid_l, it, converged


def assert_same_iteration(res, want):
    lam, right, left, resid_r, resid_l, it, converged = want
    assert (res.lam, res.residual_right, res.residual_left) == (lam, resid_r, resid_l)
    assert (res.iterations, res.converged) == (it, converged)
    assert res.right.tobytes() == right.tobytes() and res.left.tobytes() == left.tobytes()


def test_power_iteration_does_not_depend_on_the_scale_of_its_start(two_space):
    # the forward iterate is held at peak 1, so its residual, and the stop that
    # reads it, are scale-free: starts 2^-40, 1 and 2^40 times ones run the same
    # steps to the same bits
    f = ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    kernel = ro.build_kernel(f, 7)
    runs = [ro.power_iterate(kernel, right0=np.full(kernel.size, scale)) for scale in (2.0**-40, 1.0, 2.0**40)]
    want = runs[1]
    assert want.converged and np.max(np.abs(want.right)) == 1.0
    for res in runs:
        assert_same_iteration(
            res,
            (want.lam, want.right, want.left, want.residual_right, want.residual_left, want.iterations, True),
        )


@settings(max_examples=60, deadline=None)
@given(models(), st.booleans(), st.integers(0, 2**32 - 1))
def test_power_iterate_equals_the_allocating_loop_bit_for_bit(model, warm, seed):
    # the shifts and the peak scaling update the iterates in place; the warm starts are never written
    f, depth = model
    kernel = ro.build_kernel(f, depth)
    rng = np.random.default_rng(seed)
    starts = {}
    if warm:
        starts = {"left0": rng.uniform(0.1, 1.0, kernel.size), "right0": rng.uniform(0.1, 1.0, kernel.size)}
    kept = {key: val.copy() for key, val in starts.items()}
    for max_iters in (3, ro.spectral.DEFAULT_MAX_ITERS):
        want = allocating_power_iterate(kernel, ro.spectral.DEFAULT_TOL, max_iters, **starts)
        assert_same_iteration(ro.power_iterate(kernel, max_iters=max_iters, **starts), want)
    for key, val in starts.items():
        assert val.tobytes() == kept[key].tobytes()


@pytest.mark.parametrize("side", ["left0", "right0"])
@pytest.mark.parametrize("start", [[0.5, -0.25], [0.0, 0.0], [0.5, math.nan], [1.0, math.inf]])
def test_power_iterate_refuses_a_start_outside_the_positive_cone(two_space, side, start):
    kernel = ro.build_kernel(ro.builtin_ising(two_space, 1.0, 0.3), 1)
    with pytest.raises(ValueError, match="finite and non-negative, with a positive entry"):
        ro.power_iterate(kernel, **{side: np.array(start)})


def unit(v):
    return v / np.linalg.norm(v)


# (-5, 0): every row sum is equal, so the mass is lam from the first step on
@pytest.mark.parametrize("coupling, field", [(-5.0, 0.3), (-8.0, 0.3), (-12.0, 0.05), (-5.0, 0.0)])
def test_period_two_averaging_reads_the_previous_iterates(two_space, coupling, field):
    # an antiferromagnetic depth-1 kernel has lam2 / lam1 near -1; each shifted
    # step averages the product with its previous iterate, so from a skewed
    # start the iteration runs the allocating loop's steps bit for bit and
    # reaches the dense Perron pair
    f = ro.builtin_ising(two_space, coupling, field)
    kernel = ro.build_kernel(f, 1)
    starts = {"left0": np.array([0.8, 0.2]), "right0": np.array([1.0, 3.0])}
    want = allocating_power_iterate(kernel, 1e-12, 1000, **starts)
    res = ro.power_iterate(kernel, tol=1e-12, max_iters=1000, **starts)
    assert_same_iteration(res, want)
    assert res.converged
    _, lam, right, left = dense_pair_eigendata(f)
    assert math.log(res.lam) + kernel.offset == pytest.approx(math.log(lam), rel=1e-12)
    assert np.allclose(unit(res.right), unit(right), rtol=0, atol=1e-11)
    assert np.allclose(unit(res.left), unit(left), rtol=0, atol=1e-11)


def dense_perron_pair(kernel):
    """Perron root and unit right and left Perron vectors of the dense kernel."""
    dense = kernel.to_dense()
    vals, vecs = np.linalg.eig(dense)
    left_vals, left_vecs = np.linalg.eig(dense.T)
    top = np.argmax(vals.real)
    left = left_vecs[:, np.argmax(left_vals.real)].real
    return vals[top].real, unit(np.abs(vecs[:, top].real)), unit(np.abs(left))


@settings(max_examples=40, deadline=None)
@given(models(), st.integers(0, 2**32 - 1))
def test_power_iterate_reaches_the_dense_perron_pair(model, seed):
    # from the uniform start and from a start spread over five decades.  The
    # stop bounds residuals, and the error of the pair is about the residual
    # over the spectral gap: at the default tol of 1e-12, over 3,000 random
    # models, lam strayed up to 1.6e-12 and the vectors up to 1.3e-11; at
    # 1e-14 they stayed within 1.5e-14 and 1.3e-13
    f, depth = model
    kernel = ro.build_kernel(f, depth)
    lam, right, left = dense_perron_pair(kernel)
    rng = np.random.default_rng(seed)
    skewed = {key: np.exp(rng.uniform(-11.5, 0.0, kernel.size)) for key in ("left0", "right0")}
    for starts in ({}, skewed):
        res = ro.power_iterate(kernel, tol=1e-14, **starts)
        assert res.converged
        assert res.lam == pytest.approx(lam, rel=1e-12)
        assert np.allclose(unit(res.right), right, rtol=0, atol=1e-11)
        assert np.allclose(unit(res.left), left, rtol=0, atol=1e-11)


@settings(max_examples=60, deadline=None)
@given(models(), st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_converged_eigendata_print_residuals_within_the_verify_bound(model, tol):
    # the iteration stops on the residuals of its last input, and the report
    # prints those of the vectors one shifted step on: above tol in 96 of 2,000
    # random solves, at most 6.4 tol, never above verify's max(100 tol, 1e-12)
    f, _ = model
    sd = ro.perron_eigendata(f, tol=tol)
    assert sd.converged
    assert max(sd.residual_right, sd.residual_left) <= max(100.0 * tol, 1e-12)


def test_nonconverged_eigendata_is_flagged(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f, max_iters=3)
    assert not sd.converged and sd.iterations == 3
    assert max(sd.residual_right, sd.residual_left) > 1e-6
    good = ro.perron_eigendata(f)
    assert good.converged and good.iterations > 3


def rescaled_iterates(f, depth, n_max, log_lam):
    """xi_n = lam^-n L^n 1 for n = 0..n_max, from iterate_one in log space."""
    return [
        np.exp(ro.iterate_one(f, n, depth, return_log=True).values - n * log_lam)
        for n in range(n_max + 1)
    ]


def test_rescaled_iterates_converge_to_eigenfunction(two_space):
    f = ro.builtin_ising(two_space, 0.9, 0.25)
    sd = ro.perron_eigendata(f)
    xi = rescaled_iterates(f, 2, 40, sd.log_lam)
    increments = [np.max(np.abs(b - a)) for a, b in zip(xi, xi[1:])]
    assert np.all(np.isfinite(increments))
    # geometric decay: the tail increment is far below the first
    assert increments[-1] < 1e-10 * max(increments[0], 1e-30)
    # the limit is the eigenfunction up to its own normalization
    got = xi[-1]
    want = np.repeat(sd.h.values, 2)  # h reads only the first coordinate
    assert np.allclose(got / got[0], want / want[0], rtol=0, atol=1e-9)


def test_rescaled_iterates_expose_a_wrong_eigenvalue(two_space):
    f = ro.builtin_ising(two_space, 0.9, 0.25)
    sd = ro.perron_eigendata(f)
    xi = rescaled_iterates(f, 2, 40, sd.log_lam - math.log(2.0))
    # rescaling by the wrong eigenvalue makes the increments blow up
    assert np.max(np.abs(xi[-1] - xi[-2])) > 1e6 * np.max(np.abs(xi[1] - xi[0]))


@settings(max_examples=40, deadline=None)
@given(models())
# at the default tol 1e-12 the log lams read 1.02e-12 apart: tol bounds the
# residuals, not the error of lam, so every solve here runs at 1e-14
@example(
    model=(ro.Potential(ro.finite_space(np.array([8 / 9, 1 / 9])), 3, np.array([-1, 0.5, 0, -1, -1, -1, 1, -1])), 2)
)
def test_deeper_kernels_reduce_to_the_canonical_eigendata(model):
    # the operator of a depth-k potential maps depth-d0 functions to
    # themselves (d0 = max(k-1, 1)), so at every deeper depth d the Perron
    # root is the same, the right vector is h read on the first d0
    # symbols, and the left vector is nu extended by
    # nu[a u] = w_a exp(f(a u) - log lam) nu[u]
    f, _ = model
    sd = ro.perron_eigendata(f, tol=1e-14)
    d0 = sd.nu.depth
    assert d0 == max(f.depth - 1, 1) and sd.converged
    nu = sd.nu
    for d in range(d0, d0 + 3):
        kernel = ro.build_kernel(f, d)
        res = ro.power_iterate(kernel, tol=1e-14)
        assert res.converged
        assert math.log(res.lam) + kernel.offset == pytest.approx(sd.log_lam, rel=1e-12, abs=1e-12)
        h = np.repeat(sd.h.values, f.space.size ** (d - d0))
        np.testing.assert_allclose(res.right / res.right.max(), h / h.max(), rtol=1e-9, atol=0)
        np.testing.assert_allclose(res.left / res.left.sum(), nu.weights, rtol=0, atol=1e-11)
        nu = ro.extend_eigenmeasure(f, sd.log_lam, nu)


@settings(max_examples=40, deadline=None)
@given(models())
def test_adding_a_constant_shifts_only_the_pressure(model):
    # f + c has lam * e^c and the same eigenfunction, eigenmeasure and
    # iteration count: the kernel offset absorbs c, so f + c - offset is f - offset
    f, _ = model
    sd = ro.perron_eigendata(f)
    est = ro.pressure_bracket(f, 6)
    for c in (-400.0, 0.0, 400.0, 800.0):
        g = ro.Potential(f.space, f.depth, f.table + c)
        sg = ro.perron_eigendata(g)
        assert sg.log_lam == pytest.approx(sd.log_lam + c, rel=1e-13)
        assert sg.iterations == sd.iterations
        np.testing.assert_allclose(sg.h.values, sd.h.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sg.nu.weights, sd.nu.weights, rtol=0, atol=1e-12)
        shifted = ro.pressure_bracket(g, 6)
        np.testing.assert_allclose(shifted.p_sup, est.p_sup + c, rtol=1e-13, atol=0)
        np.testing.assert_allclose(shifted.p_inf, est.p_inf + c, rtol=1e-13, atol=0)


def _coboundary(u, weights):
    """The depth-(k+1) potential u(x_0..x_k-1) - u(x_1..x_k) on two symbols."""
    k = int(np.log2(len(u)))
    words = np.arange(2 ** (k + 1))
    table = u[words >> 1] - u[words & (2**k - 1)]
    return ro.Potential(ro.finite_space(np.array(weights)), k + 1, table)


@pytest.mark.parametrize(
    "f",
    [
        _coboundary(np.array([0.0, 400.0]), (0.6, 0.4)),
        _coboundary(np.array([0.0, 400.0]), (0.5, 0.5)),
        _coboundary(np.array([0.0, 340.0, -340.0, 0.0]), (0.8, 0.2)),
    ],
)
def test_a_coboundary_with_a_wide_range_has_pressure_zero(f):
    # a coboundary has lam = 1 whatever the weights; 400 (x0 - x1) spans
    # e^-400 .. e^400 around the centred offset, where an entry e^-800
    # next to 1 would underflow to 0 and change the root
    sd = ro.perron_eigendata(f)
    assert sd.converged
    assert abs(sd.log_lam) <= 1e-12
    for depth in range(sd.nu.depth + 1, 4):
        assert abs(deep_log_lam(f, depth)) <= 1e-12
    est = ro.pressure_bracket(f, 40)
    assert est.p_inf[-1] <= 0.0 <= est.p_sup[-1]


def rotor_errors(coupling, nodes):
    """(|P - log I_0(J)|, max h / min h - 1, max |nu - w|) of the rotor on nodes on [0, 1].

    J cos 2 pi (x - y) on [0, 1] is translation-invariant on the circle, so
    its operator has lam = I_0(J), a constant eigenfunction and Lebesgue
    measure as eigenmeasure: on the rule, the quadrature weights w.
    """
    space = ro.gauss_legendre_space(nodes, 0.0, 1.0)
    sd = ro.perron_eigendata(ro.builtin_xy(space, coupling))
    assert sd.converged
    h = sd.h.values
    return (
        abs(sd.log_lam - math.log(np.i0(coupling))),
        h.max() / h.min() - 1.0,
        float(np.max(np.abs(sd.nu.weights - space.weights))),
    )


def test_rotor_matches_its_closed_form():
    # Nystrom on an analytic kernel: at J = 8 each 8 more nodes cut every
    # error by 600 or more (P - log I_0: 1.1e-3, 1.3e-6, 4.5e-10 at 16, 24,
    # 32 nodes), until 48 nodes reach rounding.  nu is held to what power
    # iteration at tol 1e-12 and gap ratio 0.935 delivers
    errors = np.array([rotor_errors(8.0, nodes) for nodes in (16, 24, 32)])
    assert np.all(errors[1:] <= errors[:-1] / 300)
    pressure, spread, nu = rotor_errors(8.0, 48)
    assert pressure <= 1e-14 and spread <= 1e-12 and nu <= 2e-11
    pressure, spread, nu = rotor_errors(1.0, 24)
    assert pressure <= 1e-15 and spread <= 1e-13 and nu <= 2e-12
