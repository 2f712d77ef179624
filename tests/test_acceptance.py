"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here comes from a closed form, an independent
enumeration, or a self-consistency property; none is read back from the
implementation under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

import ruelleop as ro
from conftest import deep_eigenmeasure


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num}: {detail}"


def pair_oracle(f):
    """Characteristic-polynomial eigendata for a depth-2 potential on 2 symbols."""
    w = f.space.weights
    M = np.array(
        [[w[a] * math.exp(f.evaluate((a, u))) for a in range(2)] for u in range(2)]
    )
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
    right = np.array([M[0, 1], lam - M[0, 0]])
    left = np.array([M[1, 0], lam - M[0, 0]])
    return lam, right, left


def unit(v):
    return v / np.linalg.norm(v)


def stationary(P):
    vals, vecs = np.linalg.eig(P.T)
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    return v / v.sum()


def markov_weights(pi, P, depth):
    n = len(pi)
    w = np.zeros(n**depth)
    i = 0
    for word in itertools.product(range(n), repeat=depth):
        p = pi[word[0]]
        for a, b in zip(word, word[1:]):
            p *= P[a, b]
        w[i] = p
        i += 1
    return w / w.sum()


def test_criterion_01_constant_potentials():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (-2.0, 0.0, 0.7, 3.0):
        for n_sym in (2, 5):
            sp = ro.uniform_space(n_sym)
            f = ro.builtin_constant(sp, c)
            est = ro.pressure_bracket(f, 1, 8)
            sd = ro.perron_eigendata(f)
            worst = max(
                worst,
                abs(est.estimate - c),
                float(np.max(est.p_sup - est.p_inf)),
                abs(sd.lam - math.exp(c)) / math.exp(c),
            )
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 1.0, f"worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_perron_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    sp = ro.uniform_space(2)
    worst_lam = worst_vec = 0.0
    for _ in range(50):
        f = ro.Potential(sp, 2, rng.uniform(-2.0, 2.0, 4))
        lam, right, left = pair_oracle(f)
        sd = ro.perron_eigendata(f)
        worst_lam = max(worst_lam, abs(sd.lam - lam) / max(1.0, lam))
        worst_vec = max(
            worst_vec,
            float(np.max(np.abs(unit(sd.h.values) - unit(right)))),
            float(np.max(np.abs(unit(sd.nu.weights) - unit(left)))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_lam <= 1e-10 and worst_vec <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"lam dev {worst_lam:.2e}, vec dev {worst_vec:.2e}, {elapsed:.2f}s")


def test_criterion_03_brute_force_oracle():
    t0 = time.perf_counter()
    sp = ro.uniform_space(3)
    rng = np.random.default_rng(30303)
    f = ro.Potential(sp, 2, rng.uniform(-1.5, 1.5, 9))
    worst = 0.0
    for n in range(1, 9):
        got = ro.iterate_one(f, n, 1).values
        for u in range(3):
            want = ro.brute_force_iterate(f, n, (u,))
            worst = max(worst, abs(got[u] - want) / abs(want))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-12 and elapsed < 30.0, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_bracket_approaches_eigenvalue():
    f = ro.builtin_ising(ro.uniform_space(2), 1.0)
    p = math.log(ro.perron_eigendata(f).lam)
    est = ro.pressure_bracket(f, 2, 1000)  # runs in log space at this length
    err = np.abs(est.p_sup - p)
    bound = 2.0 * f.sup_norm * (f.depth - 1) / np.arange(1, 1001)
    ok_bound = bool(np.all(err <= bound + 1e-15))
    rel = float(err[-1]) / abs(p)
    _report(4, ok_bound and rel < 1e-3, f"bound holds {ok_bound}, final rel err {rel:.2e}")


def _spectral_census():
    """The converged runs the eigenmeasure criterion certifies."""
    runs = []
    for c in (-2.0, 0.0, 0.7, 3.0):
        for n_sym in (2, 5):
            f = ro.builtin_constant(ro.uniform_space(n_sym), c)
            runs.append((f, ro.perron_eigendata(f)))
    rng = np.random.default_rng(20260819)
    sp = ro.uniform_space(2)
    for _ in range(50):
        f = ro.Potential(sp, 2, rng.uniform(-2.0, 2.0, 4))
        runs.append((f, ro.perron_eigendata(f)))
    f = ro.builtin_ising(sp, 1.0)
    runs.append((f, ro.perron_eigendata(f)))
    f = ro.builtin_xy(ro.gauss_legendre_space(16, 0.0, 1.0), 1.0)
    runs.append((f, ro.perron_eigendata(f)))
    return runs


def test_criterion_05_eigenmeasure_relation():
    worst = 0.0
    band_ok = True
    for f, sd in _spectral_census():
        assert sd.converged
        kernel = ro.build_kernel(f, sd.nu.depth)
        worst = max(worst, ro.check_eigenmeasure(kernel, sd.log_lam, sd.nu, sd.nu.depth))
        band_ok = band_ok and math.exp(-f.sup_norm) - 1e-12 <= sd.lam <= math.exp(f.sup_norm) + 1e-12
    _report(5, worst <= 1e-10 and band_ok, f"worst residual {worst:.2e}, bands {band_ok}")


def test_criterion_06_shift_invariance():
    sp = ro.uniform_space(2)
    cases = [ro.builtin_ising(sp, 1.0)]
    rng = np.random.default_rng(60606)
    cases.extend(ro.Potential(sp, 2, rng.uniform(-2.0, 2.0, 4)) for _ in range(20))
    worst = 0.0
    for f in cases:
        sd = ro.perron_eigendata(f)
        mu = ro.equilibrium_measure(sd)
        worst = max(worst, ro.check_invariance(mu, f, sd.log_lam, sd.nu))
    # negative control: the eigenmeasure without the eigenfunction
    # reweighting; needs a symmetry-breaking field so h is not constant
    g = ro.builtin_ising(sp, 1.0, 0.3)
    sg = ro.perron_eigendata(g)
    control = ro.check_invariance(sg.nu, g, sg.log_lam, sg.nu)
    ok = worst <= 1e-10 and control > 1e-3
    _report(6, ok, f"worst residual {worst:.2e}, control {control:.2e}")


def test_criterion_07_intertwine_identity():
    sp = ro.uniform_space(2)
    rng = np.random.default_rng(70707)
    cases = [ro.builtin_ising(sp, 1.0, 0.3)]
    cases.extend(ro.Potential(sp, 2, rng.uniform(-2.0, 2.0, 4)) for _ in range(10))
    words = list(itertools.product(range(2), repeat=2))
    worst = 0.0
    weakest_control = math.inf
    for f in cases:
        sd = ro.perron_eigendata(f)
        nu3 = deep_eigenmeasure(f, 3)
        kernel = ro.build_kernel(f, 3)
        worst = max(worst, ro.check_intertwine(kernel, sd.log_lam, nu3, words))
        raw = rng.uniform(0.05, 1.0, 8)
        fake = ro.CylinderMeasure(sp, 3, raw / raw.sum())
        weakest_control = min(weakest_control, ro.check_intertwine(kernel, sd.log_lam, fake, words))
    ok = worst <= 1e-10 and weakest_control > 1e-4
    _report(7, ok, f"worst residual {worst:.2e}, weakest control {weakest_control:.2e}")


def test_criterion_08_variational_principle():
    t0 = time.perf_counter()
    sp = ro.uniform_space(2)
    f = ro.builtin_ising(sp, 1.0)
    sd = ro.perron_eigendata(f)
    mu = ro.extend_equilibrium(sd, f, 7)
    eq_gap = abs(ro.variational_gap(mu, f, sd, 6).gap)

    rng = np.random.default_rng(80808)
    gaps = []
    for _ in range(100):
        P = rng.uniform(0.05, 1.0, (2, 2))
        P /= P.sum(axis=1, keepdims=True)
        rho = ro.CylinderMeasure(sp, 5, markov_weights(stationary(P), P, 5))
        gaps.append(float(ro.variational_gap(rho, f, sd, 4).gaps[-1]))
    gaps = np.array(gaps)
    elapsed = time.perf_counter() - t0
    ok = eq_gap < 1e-8 and bool(np.all(gaps >= -1e-10)) and float(gaps.max()) > 0.01
    ok = ok and elapsed < 10.0
    _report(
        8,
        ok,
        f"equilibrium gap {eq_gap:.2e}, min {gaps.min():.2e}, max {gaps.max():.2f}, {elapsed:.1f}s",
    )


def test_criterion_09_quadrature_convergence():
    t0 = time.perf_counter()
    lams = []
    for count in (8, 16, 32):
        spx = ro.gauss_legendre_space(count, 0.0, 1.0)
        f = ro.builtin_xy(spx, 1.0)
        lams.append(ro.perron_eigendata(f).lam)
    g1 = abs(lams[1] - lams[0])
    g2 = abs(lams[2] - lams[1])
    elapsed = time.perf_counter() - t0
    ok = g2 <= 0.25 * g1 and elapsed < 60.0
    _report(9, ok, f"gaps {g1:.2e} -> {g2:.2e}, {elapsed:.1f}s")


def test_criterion_10_phase_transition_scan():
    t0 = time.perf_counter()
    sp = ro.uniform_space(2)
    head = -math.log(1.0 / sum(j ** -2.7 for j in range(1, 400_000))) / 0.9
    betas = np.linspace(0.0, 2.0, 101)
    strongest = []
    for trunc in (8, 12, 16):
        payoffs = [-head]
        payoffs.extend(-3.0 * math.log((j + 1) / j) for j in range(1, trunc - 1))
        payoffs.append(0.0)
        f = ro.truncate(ro.builtin_renewal(sp, payoffs), trunc)
        curve = ro.pressure_curve(f, betas, trunc - 1)
        kinks = [b for b, reason in curve.candidates if reason == "slope-mismatch"]
        assert kinks, f"no kink candidate at truncation {trunc}"
        strongest.append(kinks[0])
    spread = max(strongest) - min(strongest)
    cell = betas[1] - betas[0]
    elapsed = time.perf_counter() - t0
    ok = spread <= cell + 1e-9 and elapsed < 300.0
    _report(
        10,
        ok,
        f"candidates {[f'{b:.2f}' for b in strongest]}, spread {spread:.3f}, {elapsed:.0f}s",
    )
