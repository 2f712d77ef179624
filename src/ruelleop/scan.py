"""Pressure curves over an inverse-temperature grid, with kink candidates.

Each grid point solves for the leading eigenvalue of the operator for
beta * f, from the kernel of beta * f minus its gauge offset so that
large potentials cannot overflow.  The offsets of the grid are computed
once, and both the quotients below and the full-depth kernels read that
one array.  Each kernel exponentiates f's distinct table values only and
gathers them through one level index per scan
(``transfer._scaled_kernels``); it is bit for bit the kernel
``build_kernel`` makes of beta * f.  The partition of the depth-d words
into exactly lumpable classes (``transfer.lumpable_partition``) and the
kernel's product size do not depend on beta, so each scan is routed
once.  When a dense eigensolve of the quotient is cheaper than a few
dozen power iterations on the full kernel (``_quotient_pays``), the
quotients of a block of grid points are built by one scatter and their
Perron roots come from one stacked eigensolve.  A block holds at most
product_size // c**2 points for c classes, so its stack of quotients
is no larger than one product broadcast.  Each point's lifted
eigenvector is then certified by one product with its full-depth
kernel; a point whose certificate fails is reported as non-converged.
Otherwise each point is solved by power iteration, starting from the
previous point's eigenvectors.

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

from .spectral import DEFAULT_MAX_ITERS, power_iterate
from .transfer import _blocks, _gauge_offset, _prefix, _scaled_kernels, lumpable_partition

KINK_FACTOR = 5.0
KINK_ABS_FLOOR = 1e-8

# Routing between the two solvers, once per scan: neither the class count
# nor the product size depends on beta.  The figures below were taken
# with one eigensolve per point; the stacked solve of a block does the
# same arithmetic with less fixed cost per point.  Measured on a 2-vCPU
# Xeon with one BLAS thread: np.linalg.eig costs about 5-6 ns * c**3 on
# c = 64-128 classes, and one power iteration about 9-12 ns per entry of
# the kernel's product broadcast (1k-65k entries, random binary and
# ternary tables) plus a fixed 18 us (about 2,000 entries).  The ratio
# was chosen when an iteration cost 25 ns per entry and eig 10 ns * c**3,
# so that the quotient is used when its eigensolve costs at most about 25
# iterations; at the figures above that is about 30-45 iterations.  Warm-
# started points took 2 (rotor on Gauss-Legendre nodes) to 122 (random
# binary depth-8 table) iterations on average; at the original figures
# no measured scan routed to the slower path by more than 4x, and none
# was slower than on power iteration alone.
QUOTIENT_WORK_RATIO = 64
ITERATION_OVERHEAD = 2_000


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

    ``iterations`` is 0 at points solved on the lumped quotient.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) < 2:
        raise ValueError("need a one-dimensional grid of at least two beta values")
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta grid must be finite")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("beta grid must be strictly increasing")

    m = len(betas)
    roots = np.empty(m)
    converged = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=np.int64)
    # beta f spans [beta lo, beta hi], reversed when beta < 0: scaling is monotone
    lo, hi = float(f.table.min()), float(f.table.max())
    offsets = np.array([_gauge_offset(*sorted((beta * lo, beta * hi)), f.depth) for beta in betas])
    lumping = lumpable_partition(f, depth)
    product_size = f.space.size * math.prod(_blocks(f, depth))  # TransferKernel.product_size
    lumped = _quotient_pays(lumping.size, product_size)
    if lumped:
        block = max(1, product_size // lumping.size**2)
        quotient_roots = _lumped_roots(f, lumping, betas, offsets, block)
    left = right = None
    for i, kernel in enumerate(_scaled_kernels(f, betas, offsets, depth)):
        if lumped:
            roots[i], g = next(quotient_roots)
            converged[i] = _certified(kernel, lumping, roots[i], g, tol)
        else:
            res = power_iterate(kernel, tol=tol, max_iters=max_iters, left0=left, right0=right)
            roots[i], converged[i], iters[i] = res.lam, res.converged, res.iterations
            left, right = res.left, res.right
    pressures = offsets + np.log(roots)
    with np.errstate(over="ignore"):
        lams = roots * np.exp(offsets)

    # slopes[i] is the finite-difference slope between points i and i + 1
    slopes = (pressures[1:] - pressures[:-1]) / (betas[1:] - betas[:-1])
    mismatch = np.full(m, np.nan)
    with np.errstate(invalid="ignore"):
        mismatch[1:-1] = np.abs(slopes[1:] - slopes[:-1])

    level = _median(mismatch[1 : m - 1])
    flags = np.zeros(m, dtype=bool)
    for i in range(1, m - 1):
        floor = KINK_ABS_FLOOR * (1.0 + abs(slopes[i - 1]) + abs(slopes[i]))
        if np.isfinite(mismatch[i]) and np.isfinite(level):
            flags[i] = mismatch[i] > KINK_FACTOR * level + floor

    hits = np.nonzero(flags)[0]
    hits = hits[np.argsort(-mismatch[hits], kind="stable")]
    candidates = [(float(betas[i]), "slope-mismatch") for i in hits]
    candidates.extend(
        (float(betas[i]), "non-converged") for i in np.nonzero(~converged)[0]
    )
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


def _lumped_roots(f, lumping, betas, offsets, block):
    """(lam, g) per grid point: the Perron root and vector of its lumped quotient.

    The quotient at beta has the rep-row weights w_a exp(beta f - offset),
    with the grid's gauge offsets, the ones its full-depth kernels take;
    the roots of ``block`` grid points at a time come from one stacked
    eigensolve.
    """
    n = f.space.size
    cols = f.table.reshape(n, -1)[:, _prefix(n, lumping.depth, f.depth, lumping.reps)]
    w = f.space.weights[:, None]
    for start in range(0, len(betas), block):
        b = betas[start : start + block, None, None]
        shift = offsets[start : start + block, None, None]
        vals, vecs = np.linalg.eig(lumping.quotient(w * np.exp(b * cols - shift)))
        for j, top in enumerate(np.argmax(vals.real, axis=-1)):
            yield float(vals[j, top].real), vecs[j, :, top].real


def _certified(kernel, lumping, lam, g, tol):
    """Whether the quotient's Perron pair (lam, g), lifted to the words, is the kernel's.

    Certified at full depth: h = g[labels] >= 0 (scaled so that its
    largest magnitude is 1), max h > 0 and the scale-free residual
    max|M h - lam h| / (lam max h) within tol.  Every class has a word,
    so the sign and peak of h are those of g.
    """
    g = g / g[np.abs(g).argmax()]
    peak = float(g.max())
    if not (lam > 0 and peak > 0 and g.min() >= 0):
        return False
    h = g[lumping.labels]
    defect = kernel.matvec(h)
    defect -= np.multiply(h, lam, out=h)
    return float(np.abs(defect, out=defect).max()) / (lam * peak) <= tol


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
