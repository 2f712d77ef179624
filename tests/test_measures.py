import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ruelleop as ro
from conftest import deep_eigenmeasure, models
from ruelleop import measures
from ruelleop.measures import _extend_raw


def word_idx(word, n):
    i = 0
    for s in word:
        i = i * n + s
    return i


def stationary(P):
    vals, vecs = np.linalg.eig(P.T)
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    return v / v.sum()


def markov_weights(pi, P, depth):
    """Cylinder weights of the stationary Markov chain (pi, P), canonical order."""
    n = len(pi)
    w = np.zeros(n**depth)
    for word in itertools.product(range(n), repeat=depth):
        p = pi[word[0]]
        for a, b in zip(word, word[1:]):
            p *= P[a, b]
        w[word_idx(word, n)] = p
    return w / w.sum()


def test_measure_validation(two_space):
    with pytest.raises(ValueError):
        ro.CylinderMeasure(two_space, 1, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ro.CylinderMeasure(two_space, 1, np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        ro.CylinderMeasure(two_space, 2, np.array([0.5, 0.5]))
    mu = ro.CylinderMeasure(two_space, 1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        mu.weights[0] = 1.0


def test_product_measure_and_marginals(three_space):
    mu = ro.product_measure(three_space, 3)
    w = three_space.weights
    for word in itertools.product(range(3), repeat=3):
        want = w[word[0]] * w[word[1]] * w[word[2]]
        assert mu.weights[word_idx(word, 3)] == pytest.approx(want, rel=1e-15)
    assert np.allclose(ro.marginalize(mu, 1).weights, w, rtol=0, atol=1e-15)
    assert ro.marginalize(mu, 0).weights[0] == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        ro.marginalize(mu, 4)


def test_eigenmeasure_certificate_and_extension(two_space):
    rng = np.random.default_rng(45)
    for _ in range(5):
        f = ro.Potential(two_space, 2, rng.uniform(-1.5, 1.5, 4))
        sd = ro.perron_eigendata(f)
        assert ro.check_eigenmeasure(ro.build_kernel(f, 1), sd.log_lam, sd.nu, 1) < 1e-12
        assert abs(_extend_raw(f, sd.log_lam, sd.nu.weights, sd.nu.depth).sum() - 1) < 1e-10
        ext = ro.extend_eigenmeasure(f, sd.log_lam, sd.nu)
        assert ext.depth == 2
        assert ro.check_eigenmeasure(ro.build_kernel(f, 2), sd.log_lam, ext, 2) < 1e-11
        # the closed-form extension agrees with a direct deeper solve
        deep = deep_eigenmeasure(f, 2)
        assert np.allclose(ext.weights, deep.weights, rtol=0, atol=1e-10)


def test_extension_refuses_non_eigenmeasure(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    fake = ro.CylinderMeasure(two_space, 1, np.array([0.5, 0.5]))
    assert ro.check_eigenmeasure(ro.build_kernel(f, 1), sd.log_lam, fake, 1) > 1e-2
    with pytest.raises(ro.NumericError):
        ro.extend_eigenmeasure(f, sd.log_lam, fake)


def test_unit_mass_refuses_only_a_mass_that_is_not_finite_and_positive(two_space):
    # certified eigendata may leave the mass off 1 by about their tol; only a
    # mass with no measure behind it is refused
    mu = measures._unit_mass(two_space, 1, np.array([0.3, 0.2]), "test")
    assert np.array_equal(mu.weights, [0.6, 0.4])
    for w in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [-1.0, 0.5]):
        with pytest.raises(ro.NumericError, match="not finite and positive"):
            measures._unit_mass(two_space, 1, np.array(w), "test")


def test_equilibrium_refuses_uncertified_data(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    bad = ro.perron_eigendata(f, max_iters=3)
    with pytest.raises(ro.NumericError):
        ro.equilibrium_measure(bad)


def test_equilibrium_invariance_and_control(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    mu = ro.equilibrium_measure(sd)
    assert ro.check_invariance(mu, f, sd.log_lam, sd.nu) < 1e-10
    # the plain product measure is shift-invariant but not the equilibrium
    # state of this potential, so the pushed-mass comparison must fail it
    prod = ro.product_measure(two_space, mu.depth)
    assert ro.check_invariance(prod, f, sd.log_lam, sd.nu) > 1e-3


def test_extended_equilibrium_stays_invariant(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    mu4 = ro.extend_equilibrium(sd, f, 4)
    nu4 = sd.nu
    while nu4.depth < 4:
        nu4 = ro.extend_eigenmeasure(f, sd.log_lam, nu4)
    assert ro.check_invariance(mu4, f, sd.log_lam, nu4) < 1e-10
    assert ro.invariance_defect(mu4) < 1e-12
    base = ro.equilibrium_measure(sd)
    assert np.allclose(ro.marginalize(mu4, base.depth).weights, base.weights, atol=1e-12)
    with pytest.raises(ValueError):
        ro.extend_equilibrium(sd, f, 0)


def test_equilibrium_matches_markov_oracle(two_space):
    # for a pair potential the equilibrium state is a two-state Markov
    # chain whose data comes out of the dense 2x2 eigenproblem
    rng = np.random.default_rng(46)
    w = two_space.weights
    for _ in range(5):
        f = ro.Potential(two_space, 2, rng.uniform(-1.5, 1.5, 4))
        M = np.array(
            [[w[a] * math.exp(f.evaluate((a, u))) for a in range(2)] for u in range(2)]
        )
        vals, vecs = np.linalg.eig(M)
        i = np.argmax(vals.real)
        lam = float(vals.real[i])
        h = np.abs(vecs[:, i].real)
        lvals, lvecs = np.linalg.eig(M.T)
        nu = np.abs(lvecs[:, np.argmax(lvals.real)].real)
        P = np.array(
            [
                [w[a] * math.exp(f.evaluate((a, b))) * nu[b] / (lam * nu[a]) for b in range(2)]
                for a in range(2)
            ]
        )
        assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        pi = h * nu
        pi /= pi.sum()
        want = markov_weights(pi, P, 3)

        sd = ro.perron_eigendata(f)
        mu = ro.extend_equilibrium(sd, f, 3)
        assert np.allclose(mu.weights, want, rtol=0, atol=1e-11)


def test_intertwine_certificate_and_control(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    # converged full-depth eigenmeasure data, words one level shallower
    nu3 = deep_eigenmeasure(f, 3)
    words = list(itertools.product(range(2), repeat=2))
    kernel = ro.build_kernel(f, 3)
    for word in words:
        assert ro.check_intertwine(kernel, sd.log_lam, nu3, [word]) < 1e-10
    rng = np.random.default_rng(47)
    pert = nu3.weights * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, 8))
    bad = ro.CylinderMeasure(two_space, 3, pert / pert.sum())
    assert ro.check_intertwine(kernel, sd.log_lam, bad, words) > 1e-4
    # weight moved between the last symbols of each depth-2 cylinder leaves the
    # depth-2 marginal an eigenmeasure: only the stored deep weights show it
    pairs = nu3.weights.reshape(-1, 2)
    step = 0.3 * pairs.min(axis=1, keepdims=True) * np.array([1.0, -1.0])
    moved = ro.CylinderMeasure(two_space, 3, (pairs + step).ravel())
    assert ro.check_intertwine(kernel, sd.log_lam, moved, words) > 1e-4
    # a deeper stored measure is marginalized down before the comparison
    nu4 = deep_eigenmeasure(f, 4)
    assert ro.check_intertwine(kernel, sd.log_lam, nu4, [(0, 1)]) < 1e-10


def test_intertwine_on_the_closed_form_extension_restates_the_left_residual():
    # nu_ext[a u] = W_a(u) nu[u] / lam, so on nu's own extension every term of
    # the check carries the scale-free left residual r_w = ((M^T nu)_w - lam nu_w) / lam
    # of its depth-d0 word w: past d0 = 2 the check reads
    # max over w, a, b of W_b(a w) W_a(w) |r_w| / lam^2, the residual times a
    # factor of the kernel alone, which is why verify prints residual-left instead
    for n, k in ((2, 4), (2, 5), (3, 4)):
        for scale, seed, max_iters in itertools.product((5.0, 400.0), (0, 1), (1, 3)):
            weights = np.ones(n) / n if seed == 0 else np.arange(1.0, n + 1) / (n * (n + 1) / 2)
            f = ro.Potential(ro.finite_space(weights), k, np.random.default_rng(seed).uniform(-scale, scale, n**k))
            sd = ro.perron_eigendata(f, max_iters=max_iters)
            d0 = sd.nu.depth
            words = [ro.index_word(i, n, d0) for i in range(min(n**d0, 16))]
            got = ro.check_intertwine(
                ro.build_kernel(f, d0 + 1), sd.log_lam, ro.extend_eigenmeasure(f, sd.log_lam, sd.nu), words
            )
            kernel = ro.build_kernel(f, d0)
            r = kernel.tmatvec(sd.nu.weights) / math.exp(sd.log_lam - kernel.offset) - sd.nu.weights
            ew = measures._extension_factors(f, sd.log_lam)  # W_a(m) / lam, m the first k-1 symbols
            want = max(
                float(np.max(ew[:, ro.word_index((a, *w), n) // n])) * ew[a, i] * abs(r[i])
                for i, w in enumerate(words)
                for a in range(n)
            )
            assert got == pytest.approx(want, rel=1e-6, abs=0), (n, k, scale, seed, max_iters)
            assert got > 0 and sd.residual_left > 1e-6


def test_certificates_reject_kernels_that_do_not_fit(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    nu3 = deep_eigenmeasure(f, 3)
    kernel = ro.build_kernel(f, 3)
    # the eigenmeasure check reads a kernel at the measure's own depth
    assert ro.check_eigenmeasure(kernel, sd.log_lam, nu3, 3) < 1e-10
    for depth in (2, 4):
        with pytest.raises(ValueError):
            ro.check_eigenmeasure(ro.build_kernel(f, depth), sd.log_lam, nu3, 3)
    # the intertwine check needs nu at the kernel's depth or deeper
    with pytest.raises(ValueError):
        ro.check_intertwine(ro.build_kernel(f, 4), sd.log_lam, nu3, [(0, 1, 0)])
    # a depth-1 kernel leaves words of length 0, too short for a depth-2 potential
    with pytest.raises(ValueError):
        ro.check_intertwine(ro.build_kernel(f, 1), sd.log_lam, nu3, [()])
    # every word has length kernel.depth - 1; any other length would be mis-indexed
    for bad_words in ([()], [(0, 1, 0)], [(0, 1), (0, 1, 0)]):
        with pytest.raises(ValueError):
            ro.check_intertwine(kernel, sd.log_lam, nu3, bad_words)


def test_relative_entropy_basics(two_space):
    mu = ro.CylinderMeasure(two_space, 1, np.array([0.3, 0.7]))
    rho = ro.CylinderMeasure(two_space, 1, np.array([0.5, 0.5]))
    want = 0.3 * math.log(0.3 / 0.5) + 0.7 * math.log(0.7 / 0.5)
    assert ro.relative_entropy(mu, rho) == pytest.approx(want, rel=1e-14)
    assert ro.relative_entropy(mu, mu) == pytest.approx(0.0, abs=1e-15)
    assert ro.relative_entropy(rho, mu) > 0  # Gibbs inequality, strict off-diagonal
    point = ro.CylinderMeasure(two_space, 1, np.array([1.0, 0.0]))
    assert ro.relative_entropy(point, rho) == pytest.approx(math.log(2.0), rel=1e-15)
    assert ro.relative_entropy(rho, point) == math.inf
    # explicit depth uses the marginals
    mu2 = ro.product_measure(two_space, 2)
    assert ro.relative_entropy(mu2, mu2, depth=1) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(20))
def test_relative_entropy_equals_the_masked_sum_bit_for_bit(seed):
    # charged everywhere (the in-place path), with empty cylinders (the masked
    # one), and against a rho that misses a charged cylinder (inf)
    rng = np.random.default_rng(seed)
    space = ro.uniform_space(int(rng.integers(2, 4)))
    depth = int(rng.integers(1, 7))
    weights = rng.uniform(0.0, 1.0, (2, space.size**depth)) ** 3
    if seed % 2:
        weights[0, rng.uniform(size=weights.shape[1]) < 0.3] = 0.0
    if seed % 5 == 0:
        weights[1, int(np.argmax(weights[0]))] = 0.0
    mu, rho = (ro.CylinderMeasure(space, depth, w / w.sum()) for w in weights)
    for d in range(depth + 1):
        a = ro.marginalize(mu, d).weights
        b = ro.marginalize(rho, d).weights
        pos = a > 0
        want = math.inf if np.any(b[pos] <= 0) else float(np.sum(a[pos] * (np.log(a[pos]) - np.log(b[pos]))))
        assert ro.relative_entropy(mu, rho, d) == want


def test_relative_entropy_takes_log_rho_in_chunks():
    # four chunks of log(rho) at depth 18 (2 MiB of weights): the bits of the
    # one-shot formula, and no full-size log(rho) temporary.  The terms, two
    # boolean masks and one chunk peak at 1.5 times the weights' size; a
    # whole log(rho) adds 1 to that
    rng = np.random.default_rng(1)
    space = ro.uniform_space(2)
    mu, rho = (ro.CylinderMeasure(space, 18, w / w.sum()) for w in rng.uniform(0.5, 1.5, (2, 2**18)))
    assert mu.weights.size == 4 * measures.LOG_CHUNK
    a, b = mu.weights, rho.weights
    want = float(np.sum(a * (np.log(a) - np.log(b))))
    tracemalloc.start()
    try:
        got = ro.relative_entropy(mu, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 1.75 * a.nbytes


def test_specific_entropy_reads_a_deep_measure_in_place():
    # a depth-17 measure, 131,072 weights (1 MiB).  Marginal copies of mu and
    # rho and the boolean-index copies of the masked sum peaked at 7.1 times
    # the weights' size; reading both in place and forming
    # a (log a - log b) in one array peaks at 3.1 times it
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 1.5, 2**17)
    mu = ro.CylinderMeasure(ro.uniform_space(2), 17, w / w.sum())
    tracemalloc.start()
    try:
        rep = ro.specific_entropy(mu, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(rep.H))
    assert peak <= 5 * mu.weights.nbytes


def test_product_measure_entropy_is_zero(three_space):
    rep = ro.specific_entropy(ro.product_measure(three_space, 4), 4)
    assert np.allclose(rep.H, 0.0, rtol=0, atol=1e-13)
    assert np.allclose(rep.entropy_rate, 0.0, rtol=0, atol=1e-13)
    assert rep.gap is None


def test_markov_entropy_closed_form(two_space):
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    pi = stationary(P)
    n_max = 6
    mu = ro.CylinderMeasure(two_space, n_max, markov_weights(pi, P, n_max))
    rep = ro.specific_entropy(mu, n_max)
    w = two_space.weights
    h1 = float(np.sum(pi * np.log(pi / w)))
    step = float(
        sum(
            pi[a] * P[a, b] * math.log(P[a, b] / w[b])
            for a in range(2)
            for b in range(2)
        )
    )
    want = np.array([h1 + (n - 1) * step for n in range(1, n_max + 1)])
    assert np.allclose(rep.H, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(rep.entropy_rate, -step, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        ro.specific_entropy(mu, n_max + 1)


def test_integral_term(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.5)
    mu = ro.product_measure(two_space, 3)
    val, err = ro.integral_term(f, mu)
    assert val == pytest.approx(float(np.dot(f.table, np.full(4, 0.25))), rel=1e-14)
    assert err == f.var_bound == 0.0
    with pytest.raises(ValueError):
        ro.integral_term(f, ro.product_measure(two_space, 1))


def test_invariance_defect(two_space):
    mu = ro.CylinderMeasure(two_space, 2, np.array([0.6, 0.2, 0.1, 0.1]))
    # first-symbol marginal (0.7, 0.3) vs last-symbol marginal (0.8, 0.2)
    assert ro.invariance_defect(mu) == pytest.approx(0.1, rel=1e-12)
    assert ro.invariance_defect(ro.product_measure(two_space, 3)) < 1e-15


def test_variational_gap_zero_at_equilibrium(two_space):
    f = ro.builtin_ising(two_space, 1.0)
    sd = ro.perron_eigendata(f)
    n = 6
    mu = ro.extend_equilibrium(sd, f, n + 1)
    rep = ro.variational_gap(mu, f, sd, n)
    assert rep.invariance_defect <= 1e-10 and np.all(np.isfinite(rep.H))
    assert rep.integral_err == 0.0
    assert np.max(np.abs(rep.gaps)) < 1e-8
    assert abs(rep.gap) < 1e-8


def test_variational_gap_nonnegative_for_markov_family(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.2)
    sd = ro.perron_eigendata(f)
    rng = np.random.default_rng(48)
    largest = -math.inf
    for _ in range(25):
        P = rng.uniform(0.05, 1.0, (2, 2))
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary(P)
        mu = ro.CylinderMeasure(two_space, 5, markov_weights(pi, P, 5))
        rep = ro.variational_gap(mu, f, sd, 4)
        assert rep.invariance_defect <= 1e-10
        assert rep.gaps[-1] >= -1e-10
        largest = max(largest, float(rep.gaps[-1]))
    assert largest > 0.01  # generic test measures sit strictly inside the bound


def test_variational_gap_flags_and_guards(two_space):
    f = ro.builtin_ising(two_space, 1.0)
    sd = ro.perron_eigendata(f)
    rng = np.random.default_rng(49)
    w = rng.uniform(0.1, 1.0, 8)
    skew = ro.CylinderMeasure(two_space, 3, w / w.sum())
    rep = ro.variational_gap(skew, f, sd, 2)
    assert rep.invariance_defect > 1e-3
    mu = ro.extend_equilibrium(sd, f, 3)
    with pytest.raises(ValueError):
        ro.variational_gap(mu, f, sd, 3)  # needs depth n+1


# The dense formulas of the eigen-extension and of the two certificates:
# whole deeper levels from np.repeat / np.tile, and adjoint products of
# vectors with n nonzero entries.  The library forms the same products
# without those levels; these oracles pin it to them bit for bit.


def dense_extension(f, log_lam, weights, depth):
    n, k = f.space.size, f.depth
    ew_col = np.repeat(f.space.weights, n ** (k - 1)) * np.exp(f.table - log_lam)
    return np.repeat(ew_col, n ** (depth + 1 - k)) * np.tile(weights, n)


def dense_invariance(mu, f, log_lam, nu):
    n = mu.space.size
    h = mu.weights / nu.weights
    mu_ext = np.repeat(h, n) * dense_extension(f, log_lam, nu.weights, nu.depth)
    preimage = mu_ext.reshape(n, -1).sum(axis=0)
    return float(np.max(np.abs(preimage - mu.weights)))


def dense_intertwine(kernel, log_lam, nu, words):
    n, d = kernel.space.size, kernel.depth - 1
    deep = nu.weights if nu.depth == d + 1 else ro.marginalize(nu, d + 1).weights
    lam = math.exp(log_lam - kernel.offset)
    worst = 0.0
    for word in words:
        idx = ro.word_index(word, n)
        shifted = np.zeros(n ** (d + 1))
        sel = np.arange(n) * n**d + idx
        shifted[sel] = deep[sel]
        lhs = kernel.tmatvec(shifted).reshape(-1, n * n).sum(axis=1)
        pointed = np.zeros(n ** (d + 1))
        sel = idx * n + np.arange(n)
        pointed[sel] = deep[sel]
        rhs = kernel.tmatvec(kernel.tmatvec(pointed) / lam).reshape(-1, n * n).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / lam)
    return worst


def random_measure(rng, space, depth):
    w = rng.uniform(0.1, 1.0, space.size**depth)
    return ro.CylinderMeasure(space, depth, w / w.sum())


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(0, 2**32 - 1))
def test_certificates_equal_their_dense_formulas_bit_for_bit(model, seed):
    f, depth = model
    n = f.space.size
    rng = np.random.default_rng(seed)
    words = [ro.index_word(i, n, depth) for i in range(n**depth)]
    kernel = ro.build_kernel(f, depth + 1)
    # arbitrary positive measures, and the eigendata they certify
    log_lam = float(rng.uniform(-1.0, 1.0))
    mu, nu = random_measure(rng, f.space, depth), random_measure(rng, f.space, depth)
    deep = random_measure(rng, f.space, depth + 1)
    assert np.array_equal(
        _extend_raw(f, log_lam, nu.weights, depth), dense_extension(f, log_lam, nu.weights, depth)
    )
    assert ro.check_invariance(mu, f, log_lam, nu) == dense_invariance(mu, f, log_lam, nu)
    assert ro.check_intertwine(kernel, log_lam, deep, words) == dense_intertwine(kernel, log_lam, deep, words)
    sd = ro.perron_eigendata(f)
    mu_eq = ro.extend_equilibrium(sd, f, depth)
    nu_w = sd.nu.weights
    for d in range(sd.nu.depth, depth):
        nu_w = dense_extension(f, sd.log_lam, nu_w, d)
    want = np.repeat(sd.h.values, n ** (depth - sd.h.depth)) * nu_w
    assert np.array_equal(mu_eq.weights, want / want.sum())
    nu_d = sd.nu
    while nu_d.depth < depth:
        nu_d = ro.extend_eigenmeasure(f, sd.log_lam, nu_d)
    assert ro.check_invariance(mu_eq, f, sd.log_lam, nu_d) == dense_invariance(mu_eq, f, sd.log_lam, nu_d)
    nu_ext = ro.extend_eigenmeasure(f, sd.log_lam, nu_d)
    assert ro.check_intertwine(kernel, sd.log_lam, nu_ext, words) == dense_intertwine(
        kernel, sd.log_lam, nu_ext, words
    )


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(1, 10))
# at the default tol 1e-12 its H rows read 1.01e-11 apart: tol bounds the
# residuals, not the error of lam, so the eigendata are solved at 1e-14
@example(
    model=(
        ro.Potential(
            ro.finite_space(np.array([0.5, 0.25, 0.25])),
            3,
            np.array(
                [-1.0, -1, -1, 0, -1, -1, -1, -1, -1, -1, 0, -1, -1, -1]
                + [-1, -1, -1, -1, -1, 0, 1, -1, -1, -1, 0, -1, 0]
            ),
        ),
        2,
    ),
    n_max=9,
)
def test_closed_form_entropy_rows_match_enumeration(model, n_max):
    # the equilibrium state is (k-1)-step Markov: its rows past depth
    # max(k, 2) are those of its enumerated extension to depth n_max + 1
    f, _ = model
    n_max = max(n_max, f.depth - 1)
    sd = ro.perron_eigendata(f, tol=1e-14)
    assert sd.converged
    markov = min(n_max + 1, max(f.depth, 2))
    got = ro.markov_entropy_gap(ro.extend_equilibrium(sd, f, markov), f, sd, n_max)
    want = ro.variational_gap(ro.extend_equilibrium(sd, f, n_max + 1), f, sd, n_max)
    assert np.array_equal(got.n, want.n)
    for name in ("H", "entropy_rate", "gaps"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-11, name
    assert abs(got.integral - want.integral) <= 1e-11
    assert got.integral_err == want.integral_err
    assert got.invariance_defect <= 1e-11
    assert np.all(np.isfinite(got.H))


def test_closed_form_entropy_rows_guards(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    with pytest.raises(ValueError):
        ro.markov_entropy_gap(ro.extend_equilibrium(sd, f, 1), f, sd, 4)
    rep = ro.markov_entropy_gap(ro.extend_equilibrium(sd, f, 2), f, sd, 5)
    step = rep.H[1] - rep.H[0]
    assert np.array_equal(rep.H[2:], rep.H[1] + np.arange(1, 4) * step)
    assert np.array_equal(rep.entropy_rate, np.full(5, -step))


def test_extension_and_certificates_build_no_whole_deeper_level():
    # a depth-12 table with measures at depth 16 (65,536 weights).  The
    # repeat / tile extension peaked at 3.2 times its result, the dense
    # invariance check at 8 times mu and the dense intertwine check at 5
    # times the depth-17 nu it reads
    f = ro.Potential(ro.uniform_space(2), 12, np.random.default_rng(0).uniform(-1.0, 1.0, 2**12))
    sd = ro.perron_eigendata(f)
    nu = sd.nu
    while nu.depth < 16:
        nu = ro.extend_eigenmeasure(f, sd.log_lam, nu)
    nu17 = ro.extend_eigenmeasure(f, sd.log_lam, nu)
    kernel = ro.build_kernel(f, 17)
    words = [ro.index_word(i, 2, 16) for i in range(16)]
    tracemalloc.start()
    try:
        mu = ro.extend_equilibrium(sd, f, 16)
        extend_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        inv = ro.check_invariance(mu, f, sd.log_lam, nu)
        invariance_peak = tracemalloc.get_traced_memory()[1] - mu.weights.nbytes
        tracemalloc.reset_peak()
        worst = ro.check_intertwine(kernel, sd.log_lam, nu17, words)
        intertwine_peak = tracemalloc.get_traced_memory()[1] - mu.weights.nbytes
    finally:
        tracemalloc.stop()
    assert inv < 1e-10 and worst < 1e-10
    assert extend_peak <= 2 * mu.weights.nbytes
    assert invariance_peak <= 3.5 * mu.weights.nbytes
    assert intertwine_peak <= 0.05 * nu17.weights.nbytes
