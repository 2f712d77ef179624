"""Pressure curves over an inverse-temperature grid, with kink candidates.

Each grid point solves for the leading eigenvalue of the operator for
beta * f, from the kernel of beta * f minus its gauge offset so that
large potentials cannot overflow.  The offsets of the grid are computed
once.  The partition of the depth-d words into exactly lumpable classes
(``transfer.lumpable_partition``) and the kernel's product size do not
depend on beta, so each scan is routed once.  When a dense eigensolve of
the quotient is cheaper than a few dozen power iterations on the full
kernel (``_quotient_pays``) and one pass over f's table confirms that
the partition is exact (``_exact``), the quotients of a block of grid
points are built by one scatter; one stacked ``eigvals`` gives their
Perron roots and one stacked solve their certificate vectors.  A block
holds at most product_size // c**2 points for c classes, so its stack of
quotients is no larger than one product broadcast.  Each point is
certified on its quotient: over an exact partition the quotient's
residual is that of the lifted eigenvector on the full-depth kernel,
which that route never builds.  A point whose certificate fails is
solved by power iteration on its kernel, ``build_kernel(scale(f, beta),
depth)``, from the uniform start, and is non-converged only if that
fails too.  Otherwise each point is solved by power iteration on that
kernel, starting from the previous point's eigenvectors.

A genuine first-order transition would put a slope discontinuity into
the limiting curve; at finite truncation the curve is analytic, so the
detector only flags *candidates*: interior points whose one-sided slope
mismatch stands out against the mismatch level of the scan as a whole.
Non-converged points are surfaced as candidates too, never silently
dropped.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .potential import scale
from .spectral import DEFAULT_MAX_ITERS, power_iterate
from .transfer import _blocks, _gauge_offset, _prefix, build_kernel, lumpable_partition

KINK_FACTOR = 5.0
KINK_ABS_FLOOR = 1e-8

# Routing between the two solvers, once per scan: neither the class count
# nor the product size depends on beta.  Measured one matrix per call on a
# 2-vCPU Xeon with one BLAS thread: np.linalg.eigvals plus the certificate's
# solve cost about 4-6 ns * c**3 on c = 64-128 classes (eig 6-9 ns * c**3),
# and one power iteration about 9-12 ns per entry of the kernel's product
# broadcast (1k-65k entries, random binary and ternary tables) plus a fixed
# 18 us (about 2,000 entries).  The ratio was chosen when an iteration cost
# 25 ns per entry and eig 10 ns * c**3, so that the quotient is used when
# its eigensolve costs at most about 25 iterations; at the figures above
# that is about 20-45.  Warm-started points took 2 (rotor on Gauss-Legendre
# nodes) to 122 (random binary depth-8 table) iterations on average; at the
# original figures no measured scan routed to the slower path by more than
# 4x, and none was slower than on power iteration alone.
QUOTIENT_WORK_RATIO = 64
ITERATION_OVERHEAD = 2_000
# renewal truncations 8-20 on [0, 2] and [-1.5, 60] left 166 points uncertified
# at a shift of 4e-16, 5 at 1e-15, none at 1e-14 and 132 at 1e-12
SOLVE_SHIFT = 1e-14


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


def pressure_curve(f, betas, depth, tol=1e-12, max_iters=DEFAULT_MAX_ITERS):
    """Pressure log(lam) over a beta grid, with kink-candidate detection.

    One pass solves and certifies the lumped quotients; one loop then
    power-iterates the points off the lumped route and those whose quotient
    certificate failed.  ``iterations`` is 0 at points certified on Q.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) < 2:
        raise ValueError("need a one-dimensional grid of at least two beta values")
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta grid must be finite")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("beta grid must be strictly increasing")

    m = len(betas)
    iters = np.zeros(m, dtype=np.int64)
    # beta f spans [beta lo, beta hi], reversed when beta < 0: scaling is monotone
    lo, hi = float(f.table.min()), float(f.table.max())
    offsets = np.array([_gauge_offset(*sorted((beta * lo, beta * hi)), f.depth) for beta in betas])
    lumping = lumpable_partition(f, depth)
    product_size = f.space.size * math.prod(_blocks(f, depth))  # TransferKernel.product_size
    lumped = _quotient_pays(lumping.size, product_size) and _exact(f, lumping)
    if lumped:
        block = max(1, product_size // lumping.size**2)
        roots, converged = _lumped_roots(f, lumping, betas, offsets, block, tol)
    else:
        roots, converged = np.empty(m), np.zeros(m, dtype=bool)
    left = right = None
    for i in np.flatnonzero(~converged):
        kernel = build_kernel(scale(f, betas[i]), depth)
        res = power_iterate(kernel, tol=tol, max_iters=max_iters, left0=left, right0=right)
        roots[i], converged[i], iters[i] = res.lam, res.converged, res.iterations
        if not lumped:
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
    """Whether a dense eigensolve on the quotient beats a few dozen power iterations."""
    return classes**3 <= QUOTIENT_WORK_RATIO * (product_size + ITERATION_OVERHEAD)


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


def _lumped_roots(f, lumping, betas, offsets, block, tol):
    """(roots, certified): each grid point's quotient Perron root, and its certificate.

    The quotient at beta has the rep-row weights w_a exp(beta f - offset),
    with the grid's gauge offsets.  For ``block`` points at a time, lam is
    the largest real part of one stacked ``eigvals``, and one stacked solve
    gives g = (sigma I - Q)^-1 1 at sigma = lam (1 + SOLVE_SHIFT).  For
    Q >= 0 and sigma > rho(Q), sigma I - Q is a nonsingular M-matrix with
    inverse sum_k Q^k / sigma^(k+1) >= 0: g >= 0 is one step of inverse
    iteration from the ones vector.  A singular stack certifies none of its
    points.  Over an exact partition (:func:`_exact`), h = g[labels] has
    M h - lam h = V (Q g - lam g) and every class has a word, so the
    full-depth certificate is read on Q: with g scaled to largest magnitude
    1, g >= 0, max g > 0 and max|Q g - lam g| / (lam max g) <= tol.
    """
    n, c = f.space.size, lumping.size
    cols = f.table.reshape(n, -1)[:, _prefix(n, lumping.depth, f.depth, lumping.reps)]
    w = f.space.weights[:, None]
    roots = np.empty(len(betas))
    certified = np.zeros(len(betas), dtype=bool)
    for start in range(0, len(betas), block):
        b = betas[start : start + block, None, None]
        shift = offsets[start : start + block, None, None]
        q = lumping.quotient(w * np.exp(b * cols - shift))
        lam = roots[start : start + block] = np.linalg.eigvals(q).real.max(axis=-1)
        sigma = lam[:, None, None] * (1.0 + SOLVE_SHIFT)
        try:
            # a (B, c, 1) right-hand side: numpy 1.x and 2.x read (B, c) differently
            g = np.linalg.solve(sigma * np.eye(c) - q, np.ones((len(q), c, 1)))
        except np.linalg.LinAlgError:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            g = g / np.take_along_axis(g, np.abs(g).argmax(axis=1, keepdims=True), axis=1)
            peak = g.max(axis=(1, 2))
            defect = np.abs(q @ g - lam[:, None, None] * g).max(axis=(1, 2))
            ok = (lam > 0) & (peak > 0) & (g.min(axis=(1, 2)) >= 0)
            certified[start : start + block] = ok & (defect / (lam * peak) <= tol)
    return roots, certified


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
