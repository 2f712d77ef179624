"""Kernel products against an independent dense oracle."""

import itertools
import math

import numpy as np
import pytest

import ruelleop as ro


def dense_oracle(f, depth):
    """Dense operator matrix built straight from the definition.

    Row u, column v: sum over leading symbols a with v = (a,) + u[:-1]
    of weight(a) * exp(f evaluated on the depth-(d+1) history (a,) + u).
    Only uses word enumeration and Potential.evaluate.
    """
    n = f.space.size
    rows = n**depth
    M = np.zeros((rows, rows))
    for j, u in enumerate(itertools.product(range(n), repeat=depth)):
        for a in range(n):
            hist = (a,) + u
            col = ro.word_index(hist[:depth], n)
            M[j, col] += f.space.weights[a] * math.exp(f.evaluate(hist))
    return M


def cases():
    two = ro.uniform_space(2)
    three = ro.finite_space([0.2, 0.5, 0.3])
    rng = np.random.default_rng(7)
    out = []
    out.append((ro.builtin_ising(two, 1.1, -0.3), 2))  # depth > k - 1
    out.append((ro.builtin_ising(two, 0.6), 1))  # edge depth d = k - 1
    out.append((ro.Potential(three, 1, rng.uniform(-1, 1, 3)), 2))  # k = 1
    out.append((ro.Potential(three, 2, rng.uniform(-1, 1, 9)), 3))
    out.append((ro.Potential(two, 3, rng.uniform(-1, 1, 8)), 2))  # k = 3 edge
    out.append((ro.Potential(two, 3, rng.uniform(-1, 1, 8)), 4))
    xy = ro.builtin_xy(ro.gauss_legendre_space(12), 1.7)  # wide quadrature alphabet
    out.append((xy, 1))  # edge
    out.append((xy, 2))
    five = ro.Potential(ro.uniform_space(5), 3, rng.uniform(-1, 1, 125))
    out.append((five, 2))  # edge
    out.append((five, 4))
    return out


@pytest.mark.parametrize("f,depth", cases())
def test_matvec_matches_dense_oracle(f, depth):
    kern = ro.build_kernel(f, depth)
    M = dense_oracle(f, depth)
    rng = np.random.default_rng(100 + depth)
    for _ in range(5):
        phi = rng.uniform(-1.0, 2.0, kern.size)
        got = np.exp(kern.offset) * kern.matvec(phi)
        assert np.allclose(got, M @ phi, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("f,depth", cases())
def test_tmatvec_matches_dense_transpose(f, depth):
    kern = ro.build_kernel(f, depth)
    M = dense_oracle(f, depth)
    rng = np.random.default_rng(200 + depth)
    for _ in range(5):
        nu = rng.uniform(0.0, 1.0, kern.size)
        got = np.exp(kern.offset) * kern.tmatvec(nu)
        assert np.allclose(got, M.T @ nu, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("f,depth", cases())
def test_to_dense_matches_oracle(f, depth):
    kern = ro.build_kernel(f, depth)
    got = np.exp(kern.offset) * kern.to_dense()
    assert np.allclose(got, dense_oracle(f, depth), rtol=1e-15, atol=0)


@pytest.mark.parametrize("f,depth", cases())
def test_log_matvec_matches_dense_oracle(f, depth):
    kern = ro.build_kernel(f, depth)
    M = dense_oracle(f, depth)
    rng = np.random.default_rng(300 + depth)
    for _ in range(5):
        lphi = rng.uniform(-3.0, 3.0, kern.size)
        want = np.log(M @ np.exp(lphi))
        assert np.allclose(kern.log_matvec(lphi) + kern.offset, want, rtol=1e-13, atol=1e-13)


def test_log_matvec_agrees_with_linear_path(two_space):
    f = ro.builtin_ising(two_space, 0.9, 0.2)
    kern = ro.build_kernel(f, 3)
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.5, 2.0, kern.size)
    got = kern.log_matvec(np.log(phi))
    want = np.log(kern.matvec(phi))
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_log_matvec_survives_huge_offsets(two_space):
    # values that would overflow exp() must pass through the log path unharmed
    f = ro.builtin_ising(two_space, 1.0)
    kern = ro.build_kernel(f, 2)
    lphi = np.full(kern.size, 800.0)
    out = kern.log_matvec(lphi)
    assert np.all(np.isfinite(out))
    base = kern.log_matvec(np.zeros(kern.size))
    assert np.allclose(out, base + 800.0, rtol=1e-13, atol=1e-10)


def test_log_matvec_handles_minus_infinity(two_space):
    # a zero entry of phi is a -inf log entry; sums must stay well defined
    f = ro.builtin_ising(two_space, 0.5)
    kern = ro.build_kernel(f, 2)
    lphi = np.zeros(kern.size)
    lphi[0] = -np.inf
    out = kern.log_matvec(lphi)
    phi = np.exp(lphi)
    want = np.log(kern.matvec(phi))
    assert np.allclose(out, want, rtol=1e-13, atol=1e-13)
