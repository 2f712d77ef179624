"""The lumped quotient of the kernel, and the scan that solves on it."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ruelleop as ro
from conftest import models
from ruelleop import scan


def indicator(lumping):
    """The word-by-class indicator matrix V."""
    return np.eye(lumping.size)[lumping.labels]


@settings(max_examples=60, deadline=None)
@given(models(), st.floats(-2.0, 2.0))
def test_quotient_intertwines_the_kernel(model, beta):
    f, depth = model
    lumping = ro.lumpable_partition(f, depth)
    kernel = ro.build_kernel(ro.scale(f, beta), depth)
    V = indicator(lumping)
    lhs = kernel.to_dense() @ V
    rhs = V @ lumping.quotient(kernel)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


@settings(max_examples=60, deadline=None)
@given(models(), st.floats(0.1, 2.0))
def test_partition_does_not_depend_on_beta(model, beta):
    f, depth = model
    labels = ro.lumpable_partition(f, depth).labels
    assert np.array_equal(ro.lumpable_partition(ro.scale(f, beta), depth).labels, labels)


@settings(max_examples=60, deadline=None)
@given(models(), st.floats(-2.0, 2.0))
def test_quotient_perron_root_is_the_spectral_radius(model, beta):
    f, depth = model
    lumping = ro.lumpable_partition(f, depth)
    kernel = ro.build_kernel(ro.scale(f, beta), depth)
    root = np.max(np.linalg.eigvals(lumping.quotient(kernel)).real)
    radius = np.max(np.abs(np.linalg.eigvals(kernel.to_dense())))
    assert abs(root - radius) <= 1e-12 * radius


@settings(max_examples=30, deadline=None)
@given(models())
def test_scan_matches_power_iteration(model):
    f, depth = model
    betas = np.array([0.0, 0.4, 0.8, 1.2])
    curve = ro.pressure_curve(f, betas, depth)
    assert curve.converged.all()
    for beta, lam in zip(betas, curve.lams):
        kernel = ro.build_kernel(ro.scale(f, beta), depth)
        ref = ro.power_iterate(kernel)
        assert ref.converged
        ref_lam = ref.lam * np.exp(kernel.offset)
        assert abs(lam - ref_lam) <= 1e-10 * ref_lam


def test_renewal_words_lump_by_leading_zeros(two_space):
    # the renewal kernel only sees the position of the first one; 0001
    # and 0000 share their row weights and their predecessors
    payoffs = [-3.0, -1.0, -0.5, -0.2, 0.0]
    f = ro.truncate(ro.builtin_renewal(two_space, payoffs), 5)
    lumping = ro.lumpable_partition(f, 4)
    zeros = [min(ro.index_word(i, 2, 4).index(1) if i else 4, 3) for i in range(16)]
    assert lumping.size == 4
    assert len(set(zip(lumping.labels, zeros))) == 4
    curve = ro.pressure_curve(f, np.linspace(0.0, 2.0, 11), 4)
    assert curve.converged.all() and np.all(curve.iterations == 0)


def test_large_potentials_do_not_overflow(two_space):
    # beta * f reaches 800, past exp's range; the gauge shift keeps the weights at most 1
    f = ro.builtin_constant(two_space, 400.0)
    betas = np.linspace(0.0, 2.0, 5)
    curve = ro.pressure_curve(f, betas, 1)
    assert curve.converged.all()
    np.testing.assert_allclose(curve.pressures, 400.0 * betas, rtol=1e-14)


def test_scan_falls_back_to_power_iteration_on_costly_quotients(two_space, monkeypatch):
    f = ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    betas = np.linspace(0.0, 2.0, 21)
    # 128 classes of 128 words: the eigensolve costs more than the iterations
    assert ro.lumpable_partition(f, 7).size == 128
    assert not scan._quotient_pays(128, ro.build_kernel(f, 7).product_size)
    power = ro.pressure_curve(f, betas, 7)
    assert np.all(power.iterations > 0)
    # the same table through the quotient path gives the same curve and kinks
    monkeypatch.setattr(scan, "QUOTIENT_WORK_RATIO", 10**9)
    lumped = ro.pressure_curve(f, betas, 7)
    assert np.all(lumped.iterations == 0)
    assert power.converged.all() and lumped.converged.all()
    np.testing.assert_allclose(lumped.lams, power.lams, rtol=1e-10)
    assert np.array_equal(lumped.kink_flags, power.kink_flags)
    assert lumped.candidates == power.candidates


def test_scan_uses_the_quotient_when_the_kernel_is_much_larger(two_space, monkeypatch):
    # the same 128 classes over 32,768 words: one eigensolve replaces
    # products with the full kernel
    f = ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    betas = np.array([0.0, 0.5, 1.0])
    assert ro.lumpable_partition(f, 15).size == 128
    lumped = ro.pressure_curve(f, betas, 15)
    assert lumped.converged.all() and np.all(lumped.iterations == 0)
    monkeypatch.setattr(scan, "QUOTIENT_WORK_RATIO", 0)
    power = ro.pressure_curve(f, betas, 15)
    assert np.all(power.iterations > 0)
    np.testing.assert_allclose(lumped.lams, power.lams, rtol=1e-10)


def test_wide_alphabet_scan_stays_within_vector_memory():
    # 400 symbols at working depth 2: 160,000 words of 1.3 MB per
    # vector; a (symbols x words) index array would take 512 MB
    f = ro.builtin_xy(ro.gauss_legendre_space(400), 8.0)
    tracemalloc.start()
    try:
        lumping = ro.lumpable_partition(f, 2)
        curve = ro.pressure_curve(f, np.array([0.0, 1.0]), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lumping.size == 400
    assert curve.converged.all() and np.all(curve.iterations > 0)
    assert peak < 64e6


def test_large_scans_do_not_overflow_on_the_power_iteration_path(two_space):
    # beta * f reaches past 709, where exp overflows; the gauge shift holds on both paths
    f = ro.Potential(two_space, 8, 400.0 * np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    assert 2.0 * f.table.max() > 709.0
    curve = ro.pressure_curve(f, np.linspace(0.0, 2.0, 5), 7)
    assert np.all(curve.iterations > 0) and curve.converged.all()
    assert np.all(np.isfinite(curve.pressures))
