import math

import numpy as np
import pytest

import ruelleop as ro
from ruelleop.space import _word_labels


def test_uniform_space_weights(three_space):
    assert three_space.size == 3
    assert np.allclose(three_space.weights, 1.0 / 3.0, rtol=0, atol=1e-16)
    assert three_space.nodes is None


def test_finite_space_accepts_normalized_weights():
    sp = ro.finite_space([0.25, 0.75])
    assert sp.size == 2
    assert sp.weights[1] == 0.75


def test_finite_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        ro.finite_space([1.0, 2.0])  # does not sum to 1
    with pytest.raises(ValueError):
        ro.finite_space([1.5, -0.5])
    with pytest.raises(ValueError):
        ro.finite_space([1.0, 0.0])


def test_weights_are_read_only(two_space):
    with pytest.raises(ValueError):
        two_space.weights[0] = 0.9


def test_gauss_legendre_two_point_nodes():
    # degree-2 Legendre roots are +-sqrt(1/3); on [0,1] they map to (1 +- r)/2
    r = math.sqrt(1.0 / 3.0)
    sp = ro.gauss_legendre_space(2, 0.0, 1.0)
    assert np.allclose(np.sort(sp.nodes), [(1 - r) / 2, (1 + r) / 2], rtol=0, atol=1e-15)
    assert np.allclose(sp.weights, [0.5, 0.5], rtol=0, atol=1e-15)


def test_gauss_legendre_integrates_cubics_exactly():
    # 2-point rule is exact through degree 3: integral of x^3 over [0,2] is 4;
    # the unnormalized rule's weights are the space's times b - a = 2
    sp = ro.gauss_legendre_space(2, 0.0, 2.0)
    approx = float(np.sum(sp.weights * sp.nodes**3)) * 2.0
    assert approx == pytest.approx(4.0, abs=1e-14)


def test_gauss_legendre_rejects_empty_interval():
    with pytest.raises(ValueError):
        ro.gauss_legendre_space(4, 1.0, 1.0)


def test_quadrature_needs_nodes():
    # a quadrature space is one with nodes: one finite, distinct node per symbol
    weights = np.array([0.5, 0.5])
    assert ro.SymbolSpace(size=2, weights=weights, nodes=np.array([0.1, 0.9])).nodes is not None
    for nodes in ([0.1], [0.1, np.inf], [0.3, 0.3]):
        with pytest.raises(ValueError):
            ro.SymbolSpace(size=2, weights=weights, nodes=np.array(nodes))


def test_word_index_is_most_significant_first():
    # (u1, u2, u3) over 3 symbols sits at u1*9 + u2*3 + u3
    assert ro.word_index((2, 0, 1), 3) == 2 * 9 + 0 * 3 + 1
    assert ro.word_index((), 3) == 0


def test_index_word_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        size = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 7))
        word = tuple(int(s) for s in rng.integers(0, size, depth))
        assert ro.index_word(ro.word_index(word, size), size, depth) == word


def test_word_labels_match_canonical_order(three_space):
    labels = list(_word_labels(three_space, 2))
    assert len(labels) == 9
    for i, label in enumerate(labels):
        assert ro.word_index(tuple(int(s) for s in label.split(".")), 3) == i
    assert list(_word_labels(three_space, 0)) == [""]


def test_word_labels_respect_cap(two_space):
    old = ro.cylinder_cap()
    try:
        ro.set_cylinder_cap(16)
        _word_labels(two_space, 4)
        with pytest.raises(ro.ResourceCapError):
            _word_labels(two_space, 5)
    finally:
        ro.set_cylinder_cap(old)


def test_cap_check_uses_exact_arithmetic():
    # 5^30 overflows a double's integer range; the check must not wrap or round
    with pytest.raises(ro.ResourceCapError):
        ro.check_cylinder_count(5, 30)



def test_spaces_check_the_cap_before_they_allocate():
    # n weights for a uniform space, and an n x n companion matrix for the rule
    with pytest.raises(ro.ResourceCapError):
        ro.uniform_space(10**12)
    with pytest.raises(ro.ResourceCapError):
        ro.gauss_legendre_space(200_000)
