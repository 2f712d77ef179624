"""The lumped quotient of the kernel, and the scan that solves on it."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ruelleop as ro
from conftest import VALUES, models, renewal_payoffs
from ruelleop import scan
from ruelleop.cli import main
from ruelleop.transfer import _gauge_offset


def indicator(lumping):
    """The word-by-class indicator matrix V."""
    return np.eye(lumping.size)[lumping.labels]


def rep_weights(kernel, lumping):
    """The kernel's weights in the rep rows, shape (n, c): what ``Lumping.quotient`` takes."""
    return kernel._row_weights(lumping.reps)


def rep_cols(f, lumping):
    """The values of f that each symbol reads in the rep rows, shape (n, c): the scan's ``cols``."""
    n = f.space.size
    return f.table.reshape(n, -1)[:, lumping.reps // n ** (lumping.depth - f.depth + 1)]


# the scan's roots agree with LAPACK's dense Perron roots to this relative
# bound; over 9,000 random points of models() they differed by at most 9.5e-15
DENSE_ROOT_RTOL = 1e-13


def per_point_curve(f, betas, depth):
    """(pressures, lams): each point's root from a dense eigensolve of its own quotient.

    lam is the largest real eigenvalue of the quotient Q of the point's
    full-depth kernel.
    """
    lumping = ro.lumpable_partition(f, depth)
    pressures, lams = [], []
    for beta in betas:
        kernel = ro.build_kernel(ro.scale(f, beta), depth)
        lam = float(np.max(np.linalg.eigvals(lumping.quotient(rep_weights(kernel, lumping))).real))
        pressures.append(kernel.offset + np.log(lam))
        with np.errstate(over="ignore"):
            lams.append(lam * np.exp(kernel.offset))
    return np.array(pressures), np.array(lams)


def padded(f, extra):
    """f as a depth-(k + extra) potential that does not read its last ``extra`` symbols.

    The same function on the shift space, so the same pressures.
    """
    return ro.Potential(f.space, f.depth + extra, np.repeat(f.table, f.space.size**extra), f.var_bound)


def renewal(trunc):
    """The criterion-10 renewal potential at a truncation."""
    return ro.builtin_renewal(ro.uniform_space(2), renewal_payoffs(trunc))


def as_table(f):
    """f as a plain table potential, which the scan partitions with ``lumpable_partition``."""
    return ro.Potential(f.space, f.depth, f.table, f.var_bound)


def assert_root_is_eig_root_and_g_certifies(f, depth, beta, tol=1e-12):
    """The scan's root and certificate vector at one beta, on its own quotient.

    The root agrees with the top real root of ``eig`` of the point's
    quotient to DENSE_ROOT_RTOL, and the scan's g is non-negative and,
    lifted to g[labels], passes the certificate on the full-depth kernel.
    """
    lumping = ro.lumpable_partition(f, depth)
    assert scan._exact(f, lumping)
    kernel = ro.build_kernel(ro.scale(f, beta), depth)
    offsets = np.array([kernel.offset])
    roots, vectors, certified = scan._lumped_roots(
        f.space.weights, rep_cols(f, lumping), lumping.quotient, np.array([beta]), offsets, 1, tol
    )
    lam = roots[0]
    dense = np.max(np.linalg.eig(lumping.quotient(rep_weights(kernel, lumping)))[0].real)
    assert abs(lam - dense) <= DENSE_ROOT_RTOL * dense
    h = vectors[0][lumping.labels]
    assert h.min() >= 0 and h.max() > 0
    assert np.max(np.abs(kernel.matvec(h) - lam * h)) / (lam * h.max()) <= tol
    assert certified[0]


def assert_scanned_without_quotient(f, partition, monkeypatch):
    """Scan f over a partition that the table check rejects.

    Every point is power-iterated, and the curve equals, array for array,
    the curve of a scan routed to power iteration up front.
    """
    assert not scan._exact(f, partition)
    monkeypatch.setattr(scan, "lumpable_partition", lambda g, d: partition)
    betas = np.linspace(0.25, 2.0, 8)
    curve = ro.pressure_curve(f, betas)
    assert np.all(curve.iterations > 0)
    assert curve.converged.all()
    monkeypatch.setattr(scan, "QUOTIENT_WORK_RATIO", 0)
    ref = ro.pressure_curve(f, betas)
    for name in ("betas", "pressures", "lams", "converged", "iterations", "mismatch", "kink_flags"):
        assert np.array_equal(getattr(curve, name), getattr(ref, name), equal_nan=True), name
    assert np.array_equal(curve.noise_floor, ref.noise_floor, equal_nan=True)
    assert curve.candidates == ref.candidates


@settings(max_examples=60, deadline=None)
@given(models(), st.floats(-2.0, 2.0))
def test_quotient_intertwines_the_kernel(model, beta):
    f, depth = model
    lumping = ro.lumpable_partition(f, depth)
    kernel = ro.build_kernel(ro.scale(f, beta), depth)
    V = indicator(lumping)
    lhs = kernel.to_dense() @ V
    rhs = V @ lumping.quotient(rep_weights(kernel, lumping))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


def test_quotient_rejects_weights_of_another_partition(two_space):
    f = ro.Potential(two_space, 2, np.array([0.0, 1.0, 1.0, 0.0]))
    lumping = ro.lumpable_partition(f, 3)
    with pytest.raises(ValueError):
        lumping.quotient(np.ones((2, lumping.size + 1)))
    with pytest.raises(ValueError):
        lumping.quotient(np.ones((3, lumping.size)))


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
    root = np.max(np.linalg.eigvals(lumping.quotient(rep_weights(kernel, lumping))).real)
    radius = np.max(np.abs(np.linalg.eigvals(kernel.to_dense())))
    assert abs(root - radius) <= 1e-12 * radius


@settings(max_examples=30, deadline=None)
@given(models())
def test_scan_matches_power_iteration(model):
    # the scan solves at depth max(k-1, 1); a deeper kernel has the same root
    f, depth = model
    betas = np.array([0.0, 0.4, 0.8, 1.2])
    curve = ro.pressure_curve(f, betas)
    assert curve.converged.all()
    for beta, lam in zip(betas, curve.lams):
        kernel = ro.build_kernel(ro.scale(f, beta), depth)
        ref = ro.power_iterate(kernel)
        assert ref.converged
        ref_lam = ref.lam * np.exp(kernel.offset)
        assert abs(lam - ref_lam) <= 1e-10 * ref_lam


@pytest.mark.parametrize(
    "trunc, betas, midpoint",
    [
        (8, np.linspace(0.0, 2.0, 101), False),
        (12, np.linspace(0.0, 2.0, 101), False),
        (8, np.linspace(-1.5, 1.5, 13), False),
        # k (max f - min f) beta passes LINEAR_VALUE_CEILING from beta 45 on
        (8, np.array([1.0, 30.0, 45.0, 60.0]), True),
    ],
)
def test_lumped_scan_matches_the_per_point_eigensolve(trunc, betas, midpoint, monkeypatch):
    f = renewal(trunc)
    depth = trunc - 1
    lumping = ro.lumpable_partition(f, depth)
    at_max = [ro.build_kernel(ro.scale(f, b), depth).offset == (b * f.table).max() for b in betas]
    assert all(at_max) != midpoint
    pressures, lams = per_point_curve(f, betas, depth)

    scatter, calls = scan._scatter_quotient, []

    def counted(targets, weights):
        calls.append(weights.shape)
        return scatter(targets, weights)

    monkeypatch.setattr(scan, "_scatter_quotient", counted)
    curve = ro.pressure_curve(f, betas)
    # squaring certifies every point on its quotient, also the badly graded
    # quotients at large beta; none falls back to power iteration
    assert curve.converged.all() and np.all(curve.iterations == 0)
    np.testing.assert_allclose(curve.lams, lams, rtol=DENSE_ROOT_RTOL, atol=0)
    np.testing.assert_allclose(curve.pressures, pressures, rtol=0, atol=DENSE_ROOT_RTOL)
    # one stack of quotients per block of at most STACK_ENTRIES / c**2
    # points: here one stack for the whole grid
    block = scan.STACK_ENTRIES // lumping.size**2
    assert block >= len(betas) and [shape[0] for shape in calls] == [len(betas)]
    # the scan's vector g of each point, lifted to g[labels], certifies the
    # point's full-depth kernel: the closed-form classes are numbered as
    # lumpable_partition numbers them on these payoffs
    kernels = [ro.build_kernel(ro.scale(f, beta), depth) for beta in betas]
    offsets = np.array([k.offset for k in kernels])
    cols, quotient = scan._quotient_data(f, depth)
    assert np.array_equal(cols, rep_cols(f, lumping))
    roots, vectors, certified = scan._lumped_roots(
        f.space.weights, cols, quotient, betas, offsets, block, 1e-12
    )
    assert certified.all() and np.array_equal(offsets + np.log(roots), curve.pressures)
    for k, lam, g in zip(kernels, roots, vectors):
        h = g[lumping.labels]
        assert h.min() >= 0 and h.max() > 0
        assert np.max(np.abs(k.matvec(h) - lam * h)) / (lam * h.max()) <= 1e-12


@pytest.mark.parametrize(
    "f, betas",
    [
        (renewal(12), np.linspace(0.0, 2.0, 101)),
        (ro.builtin_ising(ro.uniform_space(2), 1.0, 0.3), np.linspace(0.0, 2.0, 101)),
        # points that only the shifted pass certifies
        (ro.builtin_ising(ro.finite_space([0.3, 0.7]), -1.0), np.array([1.0, 8.0, 10.0, 12.0, 23.0, 40.0])),
    ],
)
def test_a_lumped_point_does_not_depend_on_its_grid(f, betas):
    # each point is certified on its own quotient and leaves the stack at
    # the first check it passes, and the stacked products act on each
    # matrix alone: a point has the same bits in its own two-point grid
    curve = ro.pressure_curve(f, betas)
    assert np.all(curve.iterations == 0)
    for i, beta in enumerate(betas):
        own = ro.pressure_curve(f, np.array([beta, beta + 1.0]))
        assert own.pressures[0] == curve.pressures[i] and own.lams[0] == curve.lams[i], beta


def test_a_lumped_point_does_not_depend_on_its_block(two_space):
    # 4 points per stack at 128 classes: dropping the first point of the
    # grid moves every other point to another block and another place in it
    f = padded(ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256)), 8)
    betas = np.linspace(0.0, 2.0, 11)
    curve = ro.pressure_curve(f, betas)
    shifted = ro.pressure_curve(f, betas[1:])
    assert np.all(curve.iterations == 0) and np.all(shifted.iterations == 0)
    assert np.array_equal(shifted.pressures, curve.pressures[1:])


@pytest.mark.parametrize("betas", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
def test_scan_rejects_a_grid_that_is_not_finite(two_space, betas):
    f = ro.Potential(two_space, 2, np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="beta grid must be finite"):
        ro.pressure_curve(f, betas)


def test_certificate_reads_the_table_and_not_the_partition(monkeypatch):
    # merge the first two classes, whose words have different row weights:
    # the quotient over the coarser labels is a different matrix, and no
    # point may be certified on it.  beta = 0 is left out of the grid:
    # there every row has the weights w_a, and any partition lumps.
    f = as_table(renewal(8))
    depth = 7
    lumping = ro.lumpable_partition(f, depth)
    kernel = ro.build_kernel(f, depth)
    weights = rep_weights(kernel, lumping)
    assert not np.array_equal(weights[:, 0], weights[:, 1])
    labels = np.where(lumping.labels == 1, 0, lumping.labels)
    labels -= labels > 1
    coarse = ro.Lumping(depth=depth, labels=labels, reps=np.unique(labels, return_index=True)[1])
    assert coarse.size == lumping.size - 1
    assert scan._exact(f, lumping)
    assert_scanned_without_quotient(f, coarse, monkeypatch)


def test_table_check_reads_the_row_weights(two_space, monkeypatch):
    # one class for both words at depth 1: every predecessor a q(u) = a
    # lies in it, but row 1 weighs symbol 0 by e and row 0 by 1
    f = ro.Potential(two_space, 2, np.array([0.0, 1.0, 0.0, 0.0]))
    one = ro.Lumping(depth=1, labels=np.zeros(2, dtype=np.int64), reps=np.array([0]))
    assert_scanned_without_quotient(f, one, monkeypatch)


def test_table_check_reads_the_predecessor_classes(monkeypatch):
    # split the largest class by each word's second-to-last symbol: the
    # row weights within each class stay equal, but the predecessors a q(u)
    # of one class now fall into different classes
    f = as_table(renewal(8))
    depth = 7
    lumping = ro.lumpable_partition(f, depth)
    largest = np.argmax(np.bincount(lumping.labels))
    second_to_last = (np.arange(2**depth) // 2) % 2
    split = lumping.labels + (lumping.labels == largest) * second_to_last * lumping.size
    labels = np.unique(split, return_inverse=True)[1].reshape(-1)
    finer = ro.Lumping(depth=depth, labels=labels, reps=np.unique(labels, return_index=True)[1])
    assert finer.size == lumping.size + 1
    weights = ro.build_kernel(f, depth)._row_weights(np.arange(2**depth))
    for c in range(finer.size):
        rows = weights[:, labels == c]
        assert np.array_equal(rows, np.broadcast_to(rows[:, :1], rows.shape))
    assert_scanned_without_quotient(f, finer, monkeypatch)


@settings(max_examples=100, deadline=None)
@given(models(), st.floats(-2.0, 2.0))
def test_quotient_residual_is_the_lifted_residual(model, beta):
    # over the partition of lumpable_partition, which the table check
    # accepts, Q's residual of its Perron vector g is the full-depth
    # kernel's residual of g[labels], up to the rounding of regrouped sums
    f, depth = model
    lumping = ro.lumpable_partition(f, depth)
    assert scan._exact(f, lumping)
    kernel = ro.build_kernel(ro.scale(f, beta), depth)
    q = lumping.quotient(rep_weights(kernel, lumping))
    vals, vecs = np.linalg.eig(q)
    top = int(np.argmax(vals.real))
    lam = float(vals[top].real)
    g = vecs[:, top].real
    g = g / g[np.argmax(np.abs(g))]
    h = g[lumping.labels]
    quotient = np.max(np.abs(q @ g - lam * g)) / lam
    full = np.max(np.abs(kernel.matvec(h) - lam * h)) / lam
    assert abs(quotient - full) <= 1e-15


def test_lumped_scan_builds_no_kernel(monkeypatch):
    # every point of the criterion-10 scan at truncation 12 is certified
    # on its quotient; no full-depth kernel is built
    calls = []
    monkeypatch.setattr(scan, "build_kernel", lambda *args: calls.append(args))
    curve = ro.pressure_curve(renewal(12), np.linspace(0.0, 2.0, 101))
    assert curve.converged.all() and np.all(curve.iterations == 0)
    assert calls == []


@pytest.mark.parametrize("trunc", [8, 12, 14])
def test_lumped_scan_converges_at_large_beta(trunc, monkeypatch):
    # past the transition the pressure of the criterion-10 family is -log 2
    # to rounding.  Its quotients there are badly graded, yet the squared
    # quotient's g = S 1 passes the certificate: every point is certified
    # on its quotient, and no kernel is built
    calls = []
    monkeypatch.setattr(scan, "build_kernel", lambda *args: calls.append(args))
    curve = ro.pressure_curve(renewal(trunc), np.array([10.0, 30.0, 45.0, 60.0]))
    assert curve.converged.all() and np.all(curve.iterations == 0)
    assert calls == []
    assert np.max(np.abs(curve.pressures + math.log(2.0))) <= 1e-12


@pytest.mark.parametrize("depth", [2, 4])
def test_shifted_squaring_certifies_quotients_with_a_mode_near_minus_lam(depth, monkeypatch):
    # the antiferromagnetic spin quotient on a non-uniform space has
    # eigenvalues near lam and -lam.  Its squares, near a diagonal matrix,
    # round the gap away: at these betas plain squaring stalls above tol or
    # needs more than SQUARINGS.  The passes after the first square Q + sigma
    # I, with sigma SHIFT_RATIO times the root the previous pass read, which
    # contracts the mode near -lam, and certify every point on its quotient:
    # in the scan, at depth 1, and at deeper depths, whose quotient is the
    # same 2 x 2 matrix
    f = ro.builtin_ising(ro.finite_space([0.3, 0.7]), -1.0)
    betas = np.array([8.0, 10.0, 12.0, 23.0, 30.0, 40.0])
    curve = ro.pressure_curve(f, betas)
    assert curve.converged.all() and np.all(curve.iterations == 0)
    for beta in betas:
        assert_root_is_eig_root_and_g_certifies(f, depth, beta)
    monkeypatch.setattr(scan, "SHIFT_RATIO", 0.0)
    plain = ro.pressure_curve(f, betas)
    assert plain.converged.all() and np.all(plain.iterations > 0)


def test_shifted_passes_certify_every_point_of_a_random_table_scan(two_space):
    # these quotients have peripheral modes that plain squaring does not
    # separate; a shift of SHIFT_RATIO times the previous pass's root does.  A
    # shift of SHIFT_RATIO times Q's least row sum, 1e-34 to 7e-5 of lam at the
    # points it failed, left 104 of the 131 points to power iteration
    f = ro.Potential(two_space, 6, np.random.default_rng(3).uniform(-1.0, 1.0, 64))
    curve = ro.pressure_curve(f, np.linspace(-5.0, 60.0, 131))
    assert curve.converged.all() and np.all(curve.iterations == 0)


def test_a_certificate_ratio_that_overflows_fails_without_a_warning():
    # at these betas the quotient's entries reach 1e215 and its root is near
    # 1e104: the squares underflow, the root read is near 1e-180, and the
    # ratio defect / (lam max g) overflows.  The point fails its certificate
    # and is left to power iteration, with no warning
    f = ro.Potential(ro.uniform_space(2), 5, np.random.default_rng(0).uniform(-50.0, 50.0, 32))
    cols, quotient = scan._quotient_data(f, 4)
    betas = np.array([9.5, 10.0])
    offsets = np.array([_gauge_offset(*sorted((b * cols.min(), b * cols.max())), 5) for b in betas])
    _, _, certified = scan._lumped_roots(f.space.weights, cols, quotient, betas, offsets, 2, 1e-12)
    assert not certified.any()


@settings(max_examples=100, deadline=None)
@given(models(), st.floats(-2.0, 2.0))
def test_lumped_root_is_the_eig_root_and_g_certifies_the_kernel(model, beta):
    f, depth = model
    assert_root_is_eig_root_and_g_certifies(f, depth, beta)


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_lumped_root_is_the_eig_root_at_128_classes(two_space, beta):
    f = ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    assert ro.lumpable_partition(f, 15).size == 128
    assert_root_is_eig_root_and_g_certifies(f, 15, beta)


@settings(max_examples=100, deadline=None)
@given(models(), st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5, unique=True))
def test_lumped_roots_are_the_dense_perron_roots_in_their_collatz_wielandt_bracket(model, betas):
    # one stack of quotients: g >= 0, lam within DENSE_ROOT_RTOL of the
    # spectral radius of the dense full-depth kernel, and lam in the
    # Collatz-Wielandt bracket [min Q g / g, max Q g / g] over g > 0, up to
    # the rounding of Q g / g (at most 4.1e-16 over 9,000 random points)
    f, depth = model
    betas = np.sort(betas)
    lumping = ro.lumpable_partition(f, depth)
    assert scan._exact(f, lumping)
    kernels = [ro.build_kernel(ro.scale(f, beta), depth) for beta in betas]
    offsets = np.array([kernel.offset for kernel in kernels])
    roots, vectors, certified = scan._lumped_roots(
        f.space.weights, rep_cols(f, lumping), lumping.quotient, betas, offsets, len(betas), 1e-12
    )
    assert certified.all()
    for kernel, lam, g in zip(kernels, roots, vectors):
        assert g.min() >= 0
        radius = np.max(np.abs(np.linalg.eigvals(kernel.to_dense())))
        assert abs(lam - radius) <= DENSE_ROOT_RTOL * radius
        q = lumping.quotient(rep_weights(kernel, lumping))
        ratios = (q @ g)[g > 0] / g[g > 0]
        assert ratios.min() * (1 - 1e-15) <= lam <= ratios.max() * (1 + 1e-15)


def renewal_pressure(payoffs, beta):
    """log lam of the criterion-10 renewal quotient, from its scalar renewal equation.

    With a_j = exp(beta s_j) / 2 the quotient's left Perron vector gives
    1 = sum_{j <= K-3} a_0 a_1 ... a_j / lam^(j+1)
        + a_0 a_1 ... a_(K-2) / (lam^(K-2) (lam - a_(K-1))),
    whose right side falls from infinity at lam = a_(K-1).  Bisection brings
    lam to adjacent doubles; the sum of positive terms is correctly rounded
    and each term's relative error is at most its number of factors in ulps,
    so lam is within a few ulps of the root for the rounded a_j.
    """
    a = [0.5 * math.exp(beta * s) for s in payoffs]

    def excess(lam):
        terms, t = [], a[0] / lam
        for x in a[1:-1]:
            terms.append(t)
            t *= x / lam
        terms.append(t * lam / (lam - a[-1]))
        return math.fsum(terms) - 1.0

    lo, hi = a[-1], a[0] + max(a)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return math.log(lo)


def renewal_perron_pair(payoffs, beta):
    """(pi, g): the left and right Perron vectors of the renewal quotient, in closed form.

    With a_j = exp(beta s_j) / 2, the quotient of the criterion-10
    truncation at K = len(payoffs) has K-1 classes, a_0 in its first
    column, a_j at (j-1, j) and a_(K-1) in its last diagonal entry.  Its
    left vector is the distribution of the cycle length: pi_0 = a_0 / lam,
    pi_j = pi_(j-1) a_j / lam, and the tail class pi_(K-2) = pi_(K-3)
    a_(K-2) / (lam - a_(K-1)).  pi sums to 1 at the root: the renewal
    equation of :func:`renewal_pressure`, bisected here on the gap
    lam - a_(K-1), which past beta_c is far below lam and would lose its
    digits in lam itself.  Q y = lam y, solved from the tail class back
    with y_(K-2) = 1 / (lam - a_(K-1)), has pi . y = sum_l (l + 1) pi_l / lam
    = m / lam, m the mean cycle length; g = lam y / m.
    """
    a = np.array([0.5 * math.exp(beta * s) for s in payoffs])

    def left(gap):
        lam = a[-1] + gap
        return lam, np.cumprod(np.append(a[:-2], a[-2] * lam / gap) / lam)

    lo, hi = 0.0, a[0] + a.max()
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if math.fsum(left(mid)[1]) > 1.0 else (lo, mid)
    lam, pi = left(hi)
    y = np.empty(len(a) - 1)
    y[-1] = 1.0 / hi
    for i in range(len(a) - 3, -1, -1):
        y[i] = (1.0 + a[i + 1] * y[i + 1]) / lam
    lengths = np.arange(1.0, len(a))
    lengths[-1] += a[-1] / hi  # the tail class's mean length, geometric at ratio a_(K-1) / lam
    return pi, lam * y / math.fsum(lengths * pi)


def test_renewal_limit_has_a_slope_jump_and_an_eigenfunction_only_in_l1():
    # the paper's limit K -> infinity, from the renewal equation of the
    # quotient, which needs no 2^K table.  Past beta_c = 0.9 the limit
    # pressure is -log 2; below it the left slope at beta_c is
    # -(head zeta(2.7) - 3 zeta'(2.7)) / zeta(1.7) = -0.592, finite since the
    # mean cycle length zeta(1.7) / zeta(2.7) is.  So the limit has a slope
    # jump of 0.592, and the mismatch at beta_c's grid cell rises toward it:
    # 0.140, 0.488 and 0.603 at K = 20, 100 and 1,000 (0.608 at 10^4), the
    # jump plus the curvature of the 0.02 grid
    j = np.arange(1.0, 400_000.0)
    zeta27 = math.fsum(j**-2.7)
    zeta17 = math.fsum(j**-1.7) + j[-1] ** -0.7 / 0.7  # with its integral tail
    jump = (math.log(zeta27) / 0.9 * zeta27 + 3.0 * math.fsum(np.log(j) * j**-2.7)) / zeta17
    assert abs(jump - 0.592) < 5e-4
    betas = 0.9 + 0.02 * np.arange(-2, 3)
    cell = []
    for trunc in (20, 100, 1000):
        slopes = np.diff([renewal_pressure(renewal_payoffs(trunc), beta) for beta in betas]) / np.diff(betas)
        mismatch = np.abs(np.diff(slopes))
        assert np.argmax(mismatch) == 1
        cell.append(mismatch[1])
    assert cell[0] < 0.3 * jump and np.all(np.diff(cell) > 0.1) and abs(cell[-1] - jump) < 0.02

    # the closed-form pair is the quotient's Perron pair
    for trunc in (8, 12):
        f = renewal(trunc)
        lumping = ro.lumpable_partition(f, trunc - 1)
        for beta in (0.5, 1.0, 1.5):
            g, pi = quotient_perron_pair(f, lumping, beta)
            pi_cf, g_cf = renewal_perron_pair(renewal_payoffs(trunc), beta)
            np.testing.assert_allclose(pi_cf, pi, rtol=0, atol=1e-14)
            np.testing.assert_allclose(g_cf, g, rtol=0, atol=1e-13 * g.max())
    # h = g[labels] has integral pi . g = 1 against nu at every K; its sup-norm
    # spread converges below beta_c (2.7433 at K = 250-1,000) and grows past
    # it, 8 and 23 times per doubling of K at beta 1 and 1.5
    spreads = {0.5: [], 1.0: [], 1.5: []}
    for trunc in (250, 500, 1000):
        for beta, row in spreads.items():
            pi, g = renewal_perron_pair(renewal_payoffs(trunc), beta)
            assert abs(pi.sum() - 1.0) <= 1e-12 and abs(pi @ g - 1.0) <= 1e-12
            row.append(g.max() / g.min())
    assert abs(spreads[0.5][-1] / spreads[0.5][0] - 1.0) < 1e-9
    for beta in (1.0, 1.5):
        assert np.all(np.diff(np.log(spreads[beta])) >= math.log(4.0))


@pytest.mark.parametrize("trunc", range(8, 21, 2))
def test_lumped_scan_solves_the_renewal_equation(trunc):
    # the criterion-10 pressures agree with the renewal equation to 2e-15:
    # squaring read at most 1.0e-15 at truncations 8-20, while the stacked
    # eigvals it replaced read 4.0e-15 at truncation 8, 8.6e-15 at 12 and
    # 2.1e-14 at 18
    betas = np.linspace(0.0, 2.0, 101)
    payoffs = renewal_payoffs(trunc)
    curve = ro.pressure_curve(renewal(trunc), betas)
    assert curve.converged.all() and np.all(curve.iterations == 0)
    want = np.array([renewal_pressure(payoffs, beta) for beta in betas])
    assert np.max(np.abs(curve.pressures - want)) <= 2e-15
    # beta = 0 weighs every row by its symbol's weight: a stochastic quotient
    assert curve.pressures[0] == 0.0
    beta, reason = curve.candidates[0]
    assert reason == "slope-mismatch"
    assert abs(beta - 0.9) <= (betas[1] - betas[0]) * (1 + 1e-9)


@pytest.mark.parametrize("route", ["renewal", "table"])
@pytest.mark.parametrize("fault", ["cap", "nan"])
def test_uncertified_quotients_are_power_iterated_on_their_own_quotient(route, fault, tmp_path, monkeypatch):
    # with the squarings capped at 1, before the first check, no point is
    # certified; with a NaN in the quotient of every third point, those
    # points are not.  On either route they are power-iterated, each bit for
    # bit on its own quotient from the uniform start, and never on a
    # full-depth kernel: on the renewal route a 2^199-word one, whose
    # partition is not read either.  The other points of a stack stay
    # certified.  The table route reads the renewal table as a table potential
    if route == "renewal":
        payoffs = renewal_payoffs(200)
        f = ro.builtin_renewal(ro.uniform_space(2), payoffs)
        betas = np.linspace(0.0, 2.0, 11)
        potential = {"kind": "renewal", "payoffs": payoffs}
    else:
        f = as_table(renewal(8))
        betas = np.linspace(10.0, 60.0, 21)
        potential = {"kind": "table", "depth": 8, "values": f.table.tolist()}
    cols, quotient = scan._quotient_data(f, max(f.depth - 1, 1))
    quotient_data, stacks, points = scan._quotient_data, [], []

    def faulty(weights):
        q = quotient(weights)
        if q.ndim == 2:
            points.append(q)
            return q
        at = np.arange(len(q)) + sum(len(stack) for stack in stacks)
        q[at % 3 == 0, 0, 0] = np.nan
        stacks.append(q)
        return q

    def refused(*args):
        raise AssertionError("a quotient route reads no full-depth kernel")

    if fault == "cap":
        monkeypatch.setattr(scan, "SQUARINGS", 1)
    else:
        monkeypatch.setattr(scan, "_quotient_data", lambda g, d: (quotient_data(g, d)[0], faulty))
    for name in ("build_kernel",) + (("lumpable_partition", "_exact") if route == "renewal" else ()):
        monkeypatch.setattr(scan, name, refused)
    curve = ro.pressure_curve(f, betas)
    failed = np.arange(len(betas)) % (1 if fault == "cap" else 3) == 0
    assert curve.converged.all() and np.all(curve.iterations[~failed] == 0)
    assert fault == "cap" or (sum(len(q) for q in stacks) == len(betas) and len(points) == failed.sum())
    for i in np.flatnonzero(failed):
        offset = scan._gauge_offset(betas[i] * cols.min(), betas[i] * cols.max(), f.depth)
        q = quotient(f.space.weights[:, None] * np.exp(betas[i] * cols - offset))
        res = ro.power_iterate(scan._Dense(q))
        assert res.converged and curve.iterations[i] == res.iterations > 0
        assert curve.pressures[i] == offset + np.log(res.lam)
        assert curve.lams[i] == res.lam * np.exp(offset)
    if route == "renewal":
        # every point solves the renewal equation: the certified ones to 2e-15
        want = np.array([renewal_pressure(payoffs, beta) for beta in betas])
        assert np.all(np.abs(curve.pressures - want)[~failed] <= 2e-15)
        assert np.max(np.abs(curve.pressures - want)) <= 1e-11

    stacks.clear()
    grid = {"start": float(betas[0]), "stop": float(betas[-1]), "count": len(betas)}
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": potential, "grid": grid}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "scan.txt")]) == 0
    assert "n_nonconverged  0" in (tmp_path / "scan.txt").read_text()
    assert fault == "cap" or sum(len(q) for q in stacks) == len(betas)


@settings(max_examples=60, deadline=None)
@given(models(), st.lists(st.sampled_from(VALUES) | st.floats(-2.0, 2.0), min_size=1, max_size=16))
def test_quotient_cols_hold_every_value_of_f(model, payoffs):
    # the scan's offsets read f's range from cols on a quotient route: every
    # word reads its class rep's values, and the renewal cols all K payoffs
    renewal_f = ro.builtin_renewal(ro.uniform_space(2), payoffs)
    for f in (model[0], renewal_f, as_table(renewal_f)):
        data = scan._quotient_data(f, max(f.depth - 1, 1))
        assert data is not None
        assert set(data[0].ravel().tolist()) == set(f.table.tolist())


def loop_kink_flags(curve):
    """The kink flags of a curve's pressures, one interior point at a time."""
    betas, pressures = curve.betas, curve.pressures
    m = len(betas)
    slopes = (pressures[1:] - pressures[:-1]) / (betas[1:] - betas[:-1])
    mismatch = np.full(m, np.nan)
    mismatch[1:-1] = np.abs(slopes[1:] - slopes[:-1])
    level = scan._median(mismatch[1 : m - 1])
    flags = np.zeros(m, dtype=bool)
    for i in range(1, m - 1):
        floor = scan.KINK_ABS_FLOOR * (1.0 + abs(slopes[i - 1]) + abs(slopes[i]))
        if np.isfinite(mismatch[i]) and np.isfinite(level):
            flags[i] = mismatch[i] > scan.KINK_FACTOR * level + floor
    return flags


@pytest.mark.parametrize(
    "trunc, betas", [(8, np.linspace(0.0, 2.0, 101)), (12, np.linspace(-1.5, 60.0, 41))]
)
def test_kink_flags_match_the_pointwise_loop(trunc, betas):
    curve = ro.pressure_curve(renewal(trunc), betas)
    flags = loop_kink_flags(curve)
    assert flags.any() and not flags.all()
    assert np.array_equal(curve.kink_flags, flags)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])))
def test_kink_median_is_numpy_median_bit_for_bit(values):
    x = np.array(values, dtype=float)
    finite = x[np.isfinite(x)]
    want = float(np.median(finite)) if finite.size else np.nan
    assert np.array_equal(scan._median(x), want, equal_nan=True)
    assert np.signbit(scan._median(x)) == np.signbit(want)


def test_renewal_words_lump_by_leading_zeros(two_space):
    # the renewal kernel only sees the position of the first one; 0001
    # and 0000 share their row weights and their predecessors
    payoffs = [-3.0, -1.0, -0.5, -0.2, 0.0]
    f = ro.builtin_renewal(two_space, payoffs)
    lumping = ro.lumpable_partition(f, 4)
    zeros = [min(ro.index_word(i, 2, 4).index(1) if i else 4, 3) for i in range(16)]
    assert lumping.size == 4
    assert len(set(zip(lumping.labels, zeros))) == 4
    curve = ro.pressure_curve(f, np.linspace(0.0, 2.0, 11))
    assert curve.converged.all() and np.all(curve.iterations == 0)


def leading_zero_lumping(trunc):
    """The closed-form lumping of a truncation-K renewal kernel at depth max(K-1, 1).

    Class j holds the words with j leading zeros, j capped at max(K-2, 0);
    its rep is its first word.
    """
    depth = max(trunc - 1, 1)
    words = np.arange(2**depth)
    zeros = depth - np.frexp(words.astype(float))[1]  # frexp(0) has exponent 0
    labels = np.minimum(zeros, max(trunc - 2, 0))
    return ro.Lumping(depth=depth, labels=labels, reps=np.unique(labels, return_index=True)[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda k: st.lists(st.sampled_from(VALUES) | st.floats(-2.0, 2.0), min_size=k, max_size=k)
))
def test_closed_form_renewal_quotient_is_the_table_quotient(payoffs):
    # the renewal route reads the payoffs alone: its lumping by leading zeros
    # passes the table check, its quotients are Lumping.quotient's bit for
    # bit, and its curve is the table route's, whose partition ties among the
    # payoffs can make coarser
    f = ro.builtin_renewal(ro.uniform_space(2), payoffs)
    table = as_table(f)
    depth = max(f.depth - 1, 1)
    lumping = leading_zero_lumping(f.depth)
    assert scan._exact(table, lumping)
    cols, quotient = scan._quotient_data(f, depth)
    assert np.array_equal(cols, rep_cols(table, lumping))
    betas = np.linspace(0.0, 2.0, 21)
    offsets = np.array([ro.build_kernel(ro.scale(table, beta), depth).offset for beta in betas])
    weights = f.space.weights[:, None] * np.exp(betas[:, None, None] * cols - offsets[:, None, None])
    assert np.array_equal(quotient(weights), lumping.quotient(weights))
    curve, want = ro.pressure_curve(f, betas), ro.pressure_curve(table, betas)
    assert np.all(curve.iterations == 0) and curve.converged.all()
    assert np.max(np.abs(curve.pressures - want.pressures)) <= 2e-15
    assert np.array_equal(curve.kink_flags, want.kink_flags)


def quotient_perron_pair(f, lumping, beta):
    """(g, pi): Q's right Perron vector with pi . g = 1, and its left one with sum 1.

    Over an exact partition g[labels] is the eigenfunction h of beta f with
    integral 1 against nu, and pi holds the class masses V^T nu of nu.
    """
    kernel = ro.build_kernel(ro.scale(f, beta), lumping.depth)
    q = lumping.quotient(rep_weights(kernel, lumping))
    vals, vecs = np.linalg.eig(q)
    left_vals, left_vecs = np.linalg.eig(q.T)
    g = np.abs(vecs[:, np.argmax(vals.real)].real)
    pi = np.abs(left_vecs[:, np.argmax(left_vals.real)].real)
    pi /= pi.sum()
    return g / (pi @ g), pi


def test_renewal_eigenfunction_leaves_the_continuous_functions_past_the_transition():
    # the paper's eigenfunction in L^1(nu): below beta_c = 0.9 the spread
    # max h / min h of the criterion-10 truncations converges; above it, it grows
    # without bound while h keeps integral 1 against nu
    spreads = {0.5: [], 1.0: [], 1.5: []}
    for trunc in (8, 10, 12, 16, 20):
        f = renewal(trunc)
        lumping = ro.lumpable_partition(f, trunc - 1)
        for beta, row in spreads.items():
            g, pi = quotient_perron_pair(f, lumping, beta)
            if trunc % 4 == 0:
                row.append(g.max() / g.min())
            if trunc in (10, 12):
                sd = ro.perron_eigendata(ro.scale(f, beta))
                masses = np.bincount(lumping.labels, weights=sd.nu.weights, minlength=lumping.size)
                np.testing.assert_allclose(masses, pi, rtol=0, atol=1e-12)
                h = sd.h.values
                np.testing.assert_allclose(g[lumping.labels], h, rtol=0, atol=1e-11 * h.max())
    assert abs(spreads[0.5][-1] / spreads[0.5][1] - 1.0) < 0.02
    for beta in (1.0, 1.5):
        assert np.all(np.diff(np.log(spreads[beta])) >= math.log(1.5))


def test_large_potentials_do_not_overflow(two_space):
    # beta * f reaches 800, past exp's range; the gauge shift keeps the weights at most 1
    f = ro.builtin_constant(two_space, 400.0)
    betas = np.linspace(0.0, 2.0, 5)
    curve = ro.pressure_curve(f, betas)
    assert curve.converged.all()
    np.testing.assert_allclose(curve.pressures, 400.0 * betas, rtol=1e-14)


def test_scan_falls_back_to_power_iteration_on_costly_quotients(two_space, monkeypatch):
    f = ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    betas = np.linspace(0.0, 2.0, 21)
    # 128 classes of 128 words: the eigensolve costs more than the iterations
    assert ro.lumpable_partition(f, 7).size == 128
    assert not scan._quotient_pays(128, f.table.size)
    power = ro.pressure_curve(f, betas)
    assert np.all(power.iterations > 0)
    # the same table through the quotient path gives the same curve and kinks
    monkeypatch.setattr(scan, "QUOTIENT_WORK_RATIO", 10**9)
    lumped = ro.pressure_curve(f, betas)
    assert np.all(lumped.iterations == 0)
    assert power.converged.all() and lumped.converged.all()
    np.testing.assert_allclose(lumped.lams, power.lams, rtol=1e-10)
    assert np.array_equal(lumped.kink_flags, power.kink_flags)
    assert lumped.candidates == power.candidates


def test_scan_uses_the_quotient_when_the_kernel_is_much_larger(two_space, monkeypatch):
    # the same table read as a depth-16 potential: its 128 classes now lump
    # 32,768 words at the canonical depth 15, and squaring the quotients
    # replaces products with the full kernel
    table = ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    f = padded(table, 8)
    betas = np.array([0.0, 0.5, 1.0])
    assert ro.lumpable_partition(f, 15).size == 128
    assert scan._quotient_pays(128, f.table.size)
    lumped = ro.pressure_curve(f, betas)
    assert lumped.converged.all() and np.all(lumped.iterations == 0)
    monkeypatch.setattr(scan, "QUOTIENT_WORK_RATIO", 0)
    power = ro.pressure_curve(f, betas)
    assert np.all(power.iterations > 0)
    np.testing.assert_allclose(lumped.lams, power.lams, rtol=1e-10)
    # it is the function of the depth-8 table, power-iterated at depth 7
    np.testing.assert_allclose(lumped.lams, ro.pressure_curve(table, betas).lams, rtol=1e-10)


def test_wide_alphabet_scan_stays_within_vector_memory():
    # 400 symbols: at depth 2, 160,000 words of 1.3 MB per vector, where a
    # (symbols x words) index array would take 512 MB; the scan itself runs
    # at the canonical depth 1, on 400 words of 400 classes
    f = ro.builtin_xy(ro.gauss_legendre_space(400), 8.0)
    tracemalloc.start()
    try:
        lumping = ro.lumpable_partition(f, 2)
        curve = ro.pressure_curve(f, np.array([0.0, 1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lumping.size == 400
    assert curve.converged.all() and np.all(curve.iterations > 0)
    assert peak < 64e6


def test_blocked_lumped_scan_stays_within_product_memory(two_space):
    # 128 classes of 256 words each at the canonical depth 15: 4 points per
    # stack of STACK_ENTRIES, so the 41 points take 11 blocks
    f = padded(ro.Potential(two_space, 8, np.random.default_rng(3).uniform(-1.0, 1.0, 256)), 8)
    betas = np.linspace(0.0, 2.0, 41)
    product_size = f.table.size
    assert ro.lumpable_partition(f, 15).size == 128
    assert scan.STACK_ENTRIES // 128**2 == 4
    tracemalloc.start()
    try:
        curve = ro.pressure_curve(f, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.converged.all() and np.all(curve.iterations == 0)
    # a scan holds a few arrays of product_size entries at once: the
    # partition's labels, the word vectors of the table check, and a
    # block's stacked quotients with their squares; one stack of all 41
    # quotients would take 41 * 128**2 doubles per copy
    assert peak < 16 * 8 * product_size


def test_wide_alphabet_lumped_scan_bounds_its_weights_too():
    # one class of 400 words on 400 symbols: a point's rep-row weights, n c
    # entries, outnumber its quotient's c**2, and they bound the block too;
    # blocks of STACK_ENTRIES // c**2 points would hold 5,001 x 400 weights
    f = ro.builtin_constant(ro.uniform_space(400), 0.5)
    betas = np.linspace(0.0, 2.0, 5001)
    assert ro.lumpable_partition(f, 1).size == 1
    tracemalloc.start()
    try:
        curve = ro.pressure_curve(f, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.converged.all() and np.all(curve.iterations == 0)
    np.testing.assert_allclose(curve.pressures, 0.5 * betas, rtol=0, atol=1e-13)
    assert peak < 16 * 8 * scan.STACK_ENTRIES


def test_large_scans_do_not_overflow_on_the_power_iteration_path(two_space):
    # beta * f reaches past 709, where exp overflows; the gauge shift holds on both paths
    f = ro.Potential(two_space, 8, 400.0 * np.random.default_rng(3).uniform(-1.0, 1.0, 256))
    assert 2.0 * f.table.max() > 709.0
    curve = ro.pressure_curve(f, np.linspace(0.0, 2.0, 5))
    assert np.all(curve.iterations > 0) and curve.converged.all()
    assert np.all(np.isfinite(curve.pressures))
