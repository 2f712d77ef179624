"""Pressure curves over an inverse-temperature grid, with kink candidates.

Each grid point solves for the leading eigenvalue of the operator for
beta * f, from the kernel of beta * f minus its gauge offset at depth
d0 = max(k-1, 1) (a deeper kernel only adds zero eigenvalues).  The
scan is routed once, since the exact quotient of the depth-d0 kernel
does not depend on beta (``_quotient_data``).  A renewal potential's
quotient is known in closed form: its K-1 classes count leading zeros,
and its entries are read from the payoffs, so the scan builds neither
the 2^K table nor a partition.  Any other potential is partitioned into
exactly lumpable classes (``transfer.lumpable_partition``); its quotient
is used when solving it is cheaper than a few power iterations on the
full kernel (``_quotient_pays``) and one pass over f's table confirms
that the partition is exact (``_exact``).  One path follows either
route.  The grid's offsets are computed once, from the values the
quotient reads, which are every value of f.  The quotients of a block
of at most ``STACK_ENTRIES`` entries are built by one scatter; repeated
squaring of the stack gives their Perron roots and non-negative
certificate vectors together.  After the first pass each squaring pass
shifts a point's quotient by ``SHIFT_RATIO`` times the root the previous
pass read, the rule power iteration shifts by, so that modes near -lam
contract.  Each point is certified on its own quotient, whose residual
is that of the lifted eigenvector on the full kernel, never built there.
A point whose certificate fails is power-iterated from the uniform start
on its own quotient, which has the kernel's Perron root, and is
non-converged only if that fails too.  Without a quotient the offsets
come from f's table, and each point is power-iterated on its kernel
``build_kernel(scale(f, beta), d0)`` from the previous point's vectors.
A point whose power iteration fails numerically (an adjoint mass that
underflows to 0) is non-converged with root NaN and passes no start on.

A genuine first-order transition would put a slope discontinuity into
the limiting curve; at finite truncation the curve is analytic, so the
detector only flags *candidates*: interior points whose one-sided slope
mismatch stands out against the mismatch level of the scan as a whole.
Non-converged points are surfaced as candidates too, never silently
dropped.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import check_cylinder_count
from .errors import NumericError
from .potential import RenewalPotential, scale
from .spectral import DEFAULT_MAX_ITERS, SHIFT_RATIO, _check_stop, power_iterate
from .transfer import (
    _gauge_offset,
    _prefix,
    _scatter_quotient,
    build_kernel,
    lumpable_partition,
)

KINK_FACTOR = 5.0
KINK_ABS_FLOOR = 1e-8

# Routing between the two solvers, once per scan: neither the class count
# nor the product size depends on beta.  Measured on a 2-vCPU Xeon with one
# BLAS thread: a squaring costs 0.07-0.1 ns * c**3 per point on c = 64-128
# classes and a point takes 6-10 (0.55 ns * c**3 in all at c = 128; LAPACK's
# eigvals alone took 3.7-4.1); a power iteration about 9-12 ns per entry of
# the kernel's product broadcast plus a fixed 18 us (about 2,000 entries).
# So the quotient is used when it costs at most 3-7 iterations; warm-started
# points took 2 (rotor) to 122 (random binary depth-8 table) on average.
QUOTIENT_WORK_RATIO = 64
ITERATION_OVERHEAD = 2_000
# squarings per pass: 2**64 powers take a mode at ratio r <= 1 - 2**-58 to the
# root below 2**-53 of it.  Checking from the 6th, not after every squaring, cut
# renewal-scan pressure_curve from 6.4-10.0 to 4.8-7.8 ms (medians of 40, 6 runs)
SQUARINGS, FIRST_CHECK = 64, 6
# squaring passes per block.  Pass p squares Q + sigma I, sigma = SHIFT_RATIO
# times the root pass p - 1 read for the point (0 before pass 1, which is plain
# squaring).  A pass that certifies nothing still reads a root nearer lam, so
# the count is fixed.  Points left uncertified at tol 1e-12 of 37,797 on
# moderate models (renewals K = 2-200, xy on 8-48 nodes, binary tables in
# [-1, 1], spin and 3-symbol quotients) / of 23,440 on binary tables in
# [-50, 50] and [-400, 400], most of them with entries that underflow to 0:
# 2 passes 171 / 11,481; 3 passes 0 / 10,502; 4 passes 0 / 10,195; 5 passes
# 0 / 10,068; passes until one certifies nothing 272 / 10,151
PASSES = 4
# a block of lumped points holds at most STACK_ENTRIES entries of weights (n c per
# point) or quotients (c**2), 512 kB, or one point.  It bounds memory only: stacked
# matmul, max and sums act on each matrix alone
STACK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class PressureCurve:
    """Scan results: one row per grid point plus kink diagnostics.

    ``mismatch`` is the absolute difference of the one-sided finite
    difference slopes of the pressure (NaN at the ends), and
    ``kink_flags`` marks interior points whose mismatch stands out
    against ``noise_floor``, the median mismatch over all interior
    points (the typical discretization curvature of the scan).
    ``candidates`` lists (beta, reason) pairs: flagged kinks and
    non-converged points, strongest mismatch first within each reason.
    """

    betas: np.ndarray
    pressures: np.ndarray
    lams: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    mismatch: np.ndarray
    noise_floor: float
    kink_flags: np.ndarray
    candidates: list = field(default_factory=list)


def pressure_curve(f, betas, tol=1e-12, max_iters=DEFAULT_MAX_ITERS):
    """Pressure log(lam) over a beta grid, with kink-candidate detection.

    One pass solves and certifies each lumped point on its own quotient, so no
    lumped pressure depends on the grid; one loop then power-iterates the other
    points.  ``iterations`` is 0 at points certified on Q, and at points whose
    power iteration failed numerically, which read lam NaN.  tol and max_iters
    are refused as by ``power_iterate``.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) < 2:
        raise ValueError("need a one-dimensional grid of at least two beta values")
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta grid must be finite")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("beta grid must be strictly increasing")
    _check_stop(tol, max_iters)

    m = len(betas)
    iters = np.zeros(m, dtype=np.int64)
    depth = max(f.depth - 1, 1)
    data = _quotient_data(f, depth)
    # beta f spans [beta lo, beta hi], reversed when beta < 0: scaling is monotone
    values = f.table if data is None else data[0]  # cols holds every value of f
    lo, hi = float(values.min()), float(values.max())
    offsets = np.array([_gauge_offset(*sorted((beta * lo, beta * hi)), f.depth) for beta in betas])
    if data is not None:
        cols, quotient = data
        w = f.space.weights
        block = max(1, STACK_ENTRIES // (cols.shape[1] * max(cols.shape[1], len(w))))
        roots, _, converged = _lumped_roots(w, cols, quotient, betas, offsets, block, tol)
    else:
        roots, converged = np.empty(m), np.zeros(m, dtype=bool)
    left = right = None
    for i in np.flatnonzero(~converged):
        if data is None:
            kernel = build_kernel(scale(f, betas[i]), depth)
        else:
            kernel = _Dense(quotient(w[:, None] * np.exp(betas[i] * cols - offsets[i])))
        try:
            res = power_iterate(kernel, tol=tol, max_iters=max_iters, left0=left, right0=right)
        except NumericError:
            roots[i] = np.nan  # non-converged, and no start for the next point
            continue
        roots[i], converged[i], iters[i] = res.lam, res.converged, res.iterations
        if data is None:
            left, right = res.left, res.right
    pressures = offsets + np.log(roots)
    with np.errstate(over="ignore"):
        lams = roots * np.exp(offsets)

    # slopes[i] is the finite-difference slope between points i and i + 1
    slopes = (pressures[1:] - pressures[:-1]) / (betas[1:] - betas[:-1])
    mismatch = np.full(m, np.nan)
    flags = np.zeros(m, dtype=bool)
    floor = KINK_ABS_FLOOR * (1.0 + np.abs(slopes[:-1]) + np.abs(slopes[1:]))
    with np.errstate(invalid="ignore"):
        mismatch[1:-1] = inner = np.abs(slopes[1:] - slopes[:-1])
        level = _median(inner)
        flags[1:-1] = np.isfinite(inner) & np.isfinite(level) & (inner > KINK_FACTOR * level + floor)

    hits = np.flatnonzero(flags)[np.argsort(-mismatch[flags], kind="stable")]
    candidates = [(float(betas[i]), "slope-mismatch") for i in hits]
    candidates.extend((float(betas[i]), "non-converged") for i in np.flatnonzero(~converged))
    return PressureCurve(
        betas=betas,
        pressures=pressures,
        lams=lams,
        converged=converged,
        iterations=iters,
        mismatch=mismatch,
        noise_floor=level,
        kink_flags=flags,
        candidates=candidates,
    )


def _quotient_pays(classes, product_size):
    """Whether solving the quotient beats a few power iterations on the full kernel."""
    return classes**3 <= QUOTIENT_WORK_RATIO * (product_size + ITERATION_OVERHEAD)


def _quotient_data(f, depth):
    """(cols, quotient) of the depth-d kernel's exact quotient, or None.

    ``cols[a, i]`` is the value of f that symbol a reads in the rows of
    class i, and ``quotient`` maps a stack (..., n, c) of rep-row weights
    to the stack (..., c, c) of quotients.  Every word reads its class
    rep's values, so ``cols`` holds every value of f.  A renewal
    potential's words lump by their leading zeros, capped at K-2
    (Hofbauer, Trans. AMS 228, 1977): class j goes to class 0 on payoff
    s_0 under symbol 1, and to class min(j+1, K-2) on payoff s_{j+1} under
    symbol 0.  Other potentials are partitioned by ``lumpable_partition``;
    None when power iteration is cheaper or the partition fails the table
    check.
    """
    if isinstance(f, RenewalPotential):
        c = max(f.depth - 1, 1)
        check_cylinder_count(c, 2)  # a quotient's entries
        j = np.arange(c)
        zero = np.zeros(c, dtype=np.intp)
        cols = f.payoffs[np.array([np.minimum(j + 1, f.depth - 1), zero])]
        targets = np.array([np.minimum(j + 1, c - 1), zero])
        return cols, functools.partial(_scatter_quotient, targets)
    n = f.space.size
    lumping = lumpable_partition(f, depth)
    # the depth-d0 kernel's product broadcast has n**k = f.table.size entries
    if not (_quotient_pays(lumping.size, f.table.size) and _exact(f, lumping)):
        return None
    return f.table.reshape(n, -1)[:, _prefix(n, depth, f.depth, lumping.reps)], lumping.quotient


def _exact(f, lumping):
    """Whether M V = V Q holds for the partition, on the kernel of beta f for every beta.

    It holds when every word u has the row weights of its class's rep
    and, for every symbol a, its predecessor a q(u) in the class of the
    rep's.  Only equality of table entries and labels is read, one
    symbol at a time, so that a few word vectors are held at once.
    """
    n = f.space.size
    reps = lumping.reps[lumping.labels]
    # in canonical order the words that read one weight column, and the n
    # words that share q(u), are runs of consecutive indices
    run = n ** (lumping.depth - f.depth + 1)
    cols = f.table.reshape(n, -1)
    preds = lumping.labels.reshape(n, -1)
    for a in range(n):
        if not (cols[a, reps // run].reshape(-1, run) == cols[a, :, None]).all():
            return False
        if not (preds[a, reps // n].reshape(-1, n) == preds[a, :, None]).all():
            return False
    return True


def _lumped_roots(weights, cols, quotient, betas, offsets, block, tol):
    """(roots, vectors, certified): each grid point's quotient Perron root and vector g.

    For ``block`` points at a time, the quotients Q of rep-row weights w_a
    exp(beta cols - offset) (see ``_quotient_data``) are shifted, S = Q + sigma
    I, and squared, S <- S S / max(S S): non-negative, tending to Q's Perron
    projector.  g = S 1 and lam = 1^T S Q g / 1^T S g; a point keeps both from
    the first check that certifies it on Q (lam > 0, max g > 0, max|Q g - lam g|
    <= tol lam max g; g >= 0 holds by construction, as S >= 0, a NaN in g
    fails max g > 0, and a ratio that overflows fails the bound) and leaves
    the stack.  Squares of a Q with a mode near -lam can stall, so each of
    ``PASSES`` passes retries the rest at sigma = SHIFT_RATIO times the root
    the previous pass read, as ``power_iterate`` shifts by SHIFT_RATIO times
    its mass.  That root is 0 before pass 1, which is plain squaring; a NaN
    or infinite root makes S NaN, which certifies nothing.
    """
    c = cols.shape[1]
    w = weights[:, None]
    roots, certified = np.empty(len(betas)), np.zeros(len(betas), dtype=bool)
    vectors = np.empty((len(betas), c))
    for at in np.split(np.arange(len(betas)), range(block, len(betas), block)):
        q = quotient(w * np.exp(betas[at, None, None] * cols - offsets[at, None, None]))
        roots[at] = 0.0
        for _ in range(PASSES):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                s = q + SHIFT_RATIO * roots[at, None, None] * np.eye(c)
                s /= s.max(axis=(1, 2), keepdims=True)
                for k in range(1, SQUARINGS + 1):
                    if not len(at):
                        break
                    s = s @ s
                    s /= s.max(axis=(1, 2), keepdims=True)
                    if k < FIRST_CHECK:
                        continue
                    g, u = s.sum(axis=2, keepdims=True), s.sum(axis=1, keepdims=True)
                    qg = q @ g
                    lam = roots[at] = (u @ qg / (u @ g))[:, 0, 0]
                    vectors[at] = g[:, :, 0]
                    defect = np.abs(qg - lam[:, None, None] * g).max(axis=(1, 2))
                    peak = g.max(axis=(1, 2))
                    ok = certified[at] = (lam > 0) & (peak > 0) & (defect / (lam * peak) <= tol)
                    if ok.any():
                        at, q, s = at[~ok], q[~ok], s[~ok]
    return roots, vectors, certified


class _Dense:
    """A c x c quotient as a kernel for ``power_iterate``: ``size``, ``matvec`` and ``tmatvec``."""

    def __init__(self, q):
        self.q, self.size = q, len(q)

    def matvec(self, x):
        return self.q @ x

    def tmatvec(self, x):
        return x @ self.q


def _median(x):
    """Median of the finite entries of x, NaN if there are none.

    The mean of the middle one or two sorted entries: bit for bit
    ``np.median``, whose first call imports ``numpy.ma``.
    """
    x = np.sort(x[np.isfinite(x)])
    if len(x) == 0:
        return np.nan
    mid = len(x) // 2
    return float(x[mid - 1 + len(x) % 2 : mid + 1].mean())
