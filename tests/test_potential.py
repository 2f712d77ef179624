import math

import numpy as np
import pytest

import ruelleop as ro


def test_constant_potential_table(three_space):
    f = ro.builtin_constant(three_space, -1.25)
    assert f.depth == 1
    assert np.all(f.table == -1.25)
    assert f.var_bound == 0.0
    assert f.sup_norm == 1.25


def test_spin_pair_table_in_canonical_order(two_space):
    # spins s(0) = -1, s(1) = +1; word order (0,0), (0,1), (1,0), (1,1)
    J, h = 1.3, 0.4
    f = ro.builtin_ising(two_space, J, h)
    expected = [J - h, -J - h, -J + h, J + h]
    assert np.allclose(f.table, expected, rtol=0, atol=1e-15)
    assert f.evaluate((1, 0)) == pytest.approx(-J + h, abs=1e-15)
    assert f.evaluate((1, 0, 1, 1)) == f.evaluate((1, 0))  # extra symbols ignored


def test_spin_potential_needs_two_symbols(three_space):
    with pytest.raises(ValueError):
        ro.builtin_ising(three_space, 1.0)


def test_rotor_pair_table():
    sp = ro.gauss_legendre_space(5, 0.0, 1.0)
    J = 0.8
    f = ro.builtin_xy(sp, J)
    assert f.depth == 2
    t = sp.nodes
    for i in range(5):
        for j in range(5):
            want = J * math.cos(2.0 * math.pi * (t[i] - t[j]))
            assert f.evaluate((i, j)) == pytest.approx(want, abs=1e-15)
    # diagonal is J itself
    assert f.evaluate((3, 3)) == pytest.approx(J, abs=1e-15)


def test_rotor_needs_nodes(two_space):
    with pytest.raises(ValueError):
        ro.builtin_xy(two_space, 1.0)


def test_evaluate_rejects_short_words(two_space):
    f = ro.builtin_ising(two_space, 1.0)
    with pytest.raises(ValueError):
        f.evaluate((0,))


def test_scale_multiplies_table_and_var_bound(two_space):
    f = ro.Potential(two_space, 1, np.array([0.5, -1.0]), var_bound=0.2)
    g = ro.scale(f, -2.0)
    assert np.array_equal(g.table, np.array([-1.0, 2.0]))
    assert g.var_bound == pytest.approx(0.4, abs=1e-16)
    assert g.sup_norm == pytest.approx(2.4, abs=1e-15)


def test_potential_validation(two_space):
    with pytest.raises(ValueError):
        ro.Potential(two_space, 0, np.array([1.0]))
    with pytest.raises(ValueError):
        ro.Potential(two_space, 2, np.zeros(3))  # wrong table size
    with pytest.raises(ValueError):
        ro.Potential(two_space, 1, np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        ro.Potential(two_space, 1, np.zeros(2), var_bound=-0.1)


def test_renewal_table_placement(two_space):
    a, b, c = 0.3, -0.7, 0.1
    f = ro.builtin_renewal(two_space, [a, b, c])
    assert isinstance(f, ro.Potential)
    assert f.depth == 3
    # payoff index = number of leading zeros before the first one
    assert f.evaluate((1, 0, 0)) == a
    assert f.evaluate((1, 1, 1)) == a
    assert f.evaluate((0, 1, 0)) == b
    assert f.evaluate((0, 1, 1)) == b
    assert f.evaluate((0, 0, 1)) == c
    assert f.evaluate((0, 0, 0)) == c  # all-zeros word carries the tail value
    assert f.var_bound == 0.0  # constant tail makes the stored table exact


def test_renewal_variation_bounds_shrink_with_depth(two_space):
    payoffs = [0.5, -0.25, 0.125, 0.0]
    g = ro.builtin_renewal(two_space, payoffs)
    assert g.var_bound == 0.0
    # payoffs 2^-j with limit 0: past horizon K they stay within 2^-K of it, so
    # the all-zeros cylinder spreads over {-2^-K, 2^-K, 2^-(K-1)}, 3 * 2^-K wide
    for horizon in range(1, 8):
        tail = ro.RenewalTail(0.0, 2.0**-horizon)
        f = ro.builtin_renewal(two_space, 2.0 ** -np.arange(horizon), tail=tail)
        assert f.var_bound == 3.0 * 2.0**-horizon


def test_renewal_custom_tail_band(two_space):
    g = ro.builtin_renewal(two_space, [1.0, 0.5], tail=ro.RenewalTail(0.0, 0.1))
    # even at full depth the tail band [-0.1, 0.1] and stored value 0.5 disagree
    assert g.var_bound == pytest.approx(0.6, abs=1e-15)


def test_renewal_needs_two_symbols(three_space):
    with pytest.raises(ValueError):
        ro.builtin_renewal(three_space, [0.1, 0.2])



def test_renewal_potential_builds_its_table_on_first_read(two_space):
    payoffs = [0.3, -0.7, 0.1, 0.1, -2.0]
    f = ro.builtin_renewal(two_space, payoffs)
    assert "table" not in vars(f)
    want = np.array([f.evaluate(ro.index_word(i, 2, 5)) for i in range(32)])
    assert np.array_equal(f.table, want) and f.table is f.table
    assert not f.table.flags.writeable and not f.payoffs.flags.writeable
    # beta times the payoffs is beta times the table, bit for bit
    for beta in (0.37, -1.9):
        g = ro.scale(f, beta)
        assert isinstance(g, ro.RenewalPotential) and "table" not in vars(g)
        assert np.array_equal(g.table, beta * f.table)
        assert g.var_bound == abs(beta) * f.var_bound
    # no table past the cap is built, and none is needed to hold the payoffs
    deep = ro.builtin_renewal(two_space, np.linspace(-1.0, 0.0, 200))
    assert deep.depth == 200
    with pytest.raises(ro.ResourceCapError):
        deep.table
    with pytest.raises(ValueError, match="at least one payoff"):
        ro.builtin_renewal(two_space, [])
    with pytest.raises(ValueError, match="finite"):
        ro.builtin_renewal(two_space, [0.0, np.nan])


def test_rotor_table_respects_cap():
    space = ro.gauss_legendre_space(20)
    old = ro.cylinder_cap()
    try:
        ro.set_cylinder_cap(399)
        with pytest.raises(ro.ResourceCapError):
            ro.builtin_xy(space, 1.0)
    finally:
        ro.set_cylinder_cap(old)
