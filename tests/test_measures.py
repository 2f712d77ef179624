import itertools
import math

import numpy as np
import pytest

import ruelleop as ro
from conftest import deep_eigenmeasure


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
        ext = ro.extend_eigenmeasure(f, sd.log_lam, sd.nu)
        assert ext.depth == 2
        assert ext.mass_dev < 1e-10
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


def test_equilibrium_refuses_uncertified_data(two_space):
    f = ro.builtin_ising(two_space, 1.0, 0.3)
    bad = ro.perron_eigendata(f, max_iters=3)
    with pytest.raises(ro.NumericError):
        ro.equilibrium_measure(bad)
    good = ro.perron_eigendata(f)
    r = max(good.residual_right, good.residual_left)
    if r > 0:
        with pytest.raises(ro.NumericError):
            ro.equilibrium_measure(good, residual_tol=r / 2)


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


def test_product_measure_entropy_is_zero(three_space):
    rep = ro.specific_entropy(ro.product_measure(three_space, 4), 4)
    assert rep.flags["finite"]
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
    assert rep.flags["invariant"] and rep.flags["finite"]
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
        assert rep.flags["invariant"]
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
    assert not rep.flags["invariant"]
    assert rep.flags["invariance_defect"] > 1e-3
    mu = ro.extend_equilibrium(sd, f, 3)
    with pytest.raises(ValueError):
        ro.variational_gap(mu, f, sd, 3)  # needs depth n+1
