"""Pressure curves over an inverse-temperature grid, with kink candidates.

Each grid point solves for the leading eigenvalue of the operator for
beta * f, from the kernel of beta * f minus its largest table entry so
that large potentials cannot overflow.  The partition of the depth-d
words into exactly lumpable classes (``transfer.lumpable_partition``)
does not depend on beta, so it is computed once per scan.  When a dense
eigensolve of the quotient is cheaper than a few dozen power iterations
on the full kernel (``_quotient_pays``), each point takes the Perron root
of the small quotient and certifies the lifted eigenvector by one
product with the full-depth kernel; a point whose certificate fails is
reported as non-converged.  Otherwise each point is solved by power
iteration, starting from the previous point's eigenvectors.

A genuine first-order transition would put a slope discontinuity into
the limiting curve; at finite truncation the curve is analytic, so the
detector only flags *candidates*: interior points whose one-sided slope
mismatch stands out against the mismatch level of the scan as a whole.
Non-converged points are surfaced as candidates too, never silently
dropped.
"""

from dataclasses import dataclass, field

import numpy as np

from .potential import scale
from .spectral import DEFAULT_MAX_ITERS, power_iterate
from .transfer import build_kernel, lumpable_partition

KINK_FACTOR = 5.0
KINK_ABS_FLOOR = 1e-8

# Routing between the two solvers.  Measured on a 2-vCPU Xeon with one
# BLAS thread: np.linalg.eig costs about 5-6 ns * c**3 on c = 64-128
# classes, and one power iteration about 9-12 ns per entry of the
# kernel's product broadcast (1k-65k entries, random binary and ternary
# tables) plus a fixed 18 us (about 2,000 entries).  The ratio was
# chosen when an iteration cost 25 ns per entry and eig 10 ns * c**3, so
# that the quotient is used when its eigensolve costs at most about 25
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

    ``slope_left``/``slope_right`` are one-sided finite differences
    (NaN at the ends), ``mismatch`` their absolute difference, and
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
    trunc_bounds: np.ndarray
    slope_left: np.ndarray
    slope_right: np.ndarray
    mismatch: np.ndarray
    noise_floor: np.ndarray
    kink_flags: np.ndarray
    candidates: list = field(default_factory=list)


def pressure_curve(
    f,
    betas,
    depth,
    tol=1e-12,
    max_iters=DEFAULT_MAX_ITERS,
    kink_factor=KINK_FACTOR,
):
    """Pressure log(lam) over a beta grid, with kink-candidate detection.

    ``iterations`` is 0 at points solved on the lumped quotient.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) < 2:
        raise ValueError("need a one-dimensional grid of at least two beta values")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("beta grid must be strictly increasing")

    lams = np.empty(len(betas))
    pressures = np.empty(len(betas))
    converged = np.zeros(len(betas), dtype=bool)
    iters = np.zeros(len(betas), dtype=np.int64)
    lumping = lumpable_partition(f, depth)
    left = right = None
    for i, beta in enumerate(betas):
        kernel = build_kernel(scale(f, beta), depth)
        if _quotient_pays(lumping.size, kernel.product_size):
            lam, converged[i] = _solve_lumped(kernel, lumping, tol)
        else:
            res = power_iterate(kernel, tol=tol, max_iters=max_iters, left0=left, right0=right)
            lam, converged[i], iters[i] = res.lam, res.converged, res.iterations
            left, right = res.left, res.right
        pressures[i] = kernel.offset + np.log(lam)
        with np.errstate(over="ignore"):
            lams[i] = lam * np.exp(kernel.offset)

    m = len(betas)
    slope_left = np.full(m, np.nan)
    slope_right = np.full(m, np.nan)
    slope_left[1:] = (pressures[1:] - pressures[:-1]) / (betas[1:] - betas[:-1])
    slope_right[:-1] = slope_left[1:]
    with np.errstate(invalid="ignore"):
        mismatch = np.abs(slope_right - slope_left)

    interior = mismatch[1 : m - 1]
    level = float(np.median(interior[np.isfinite(interior)])) if m > 2 else np.nan
    noise = np.full(m, level)
    flags = np.zeros(m, dtype=bool)
    for i in range(1, m - 1):
        floor = KINK_ABS_FLOOR * (1.0 + abs(slope_left[i]) + abs(slope_right[i]))
        if np.isfinite(mismatch[i]) and np.isfinite(level):
            flags[i] = mismatch[i] > kink_factor * level + floor

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
        trunc_bounds=np.abs(betas) * f.var_bound,
        slope_left=slope_left,
        slope_right=slope_right,
        mismatch=mismatch,
        noise_floor=noise,
        kink_flags=flags,
        candidates=candidates,
    )


def _quotient_pays(classes, product_size):
    """Whether a dense eigensolve on the quotient beats a few dozen power iterations."""
    return classes**3 <= QUOTIENT_WORK_RATIO * (product_size + ITERATION_OVERHEAD)


def _solve_lumped(kernel, lumping, tol):
    """(lam, certified): the Perron root of a kernel from its lumped quotient.

    The Perron vector of the quotient, lifted to the words, is
    certified at full depth: h >= 0, max h > 0 and the scale-free
    residual max|M h - lam h| / (lam max h) within tol.
    """
    vals, vecs = np.linalg.eig(lumping.quotient(kernel))
    top = int(np.argmax(vals.real))
    lam = float(vals[top].real)
    g = vecs[:, top].real
    h = (g / g[np.argmax(np.abs(g))])[lumping.labels]
    peak = float(h.max())
    if not (lam > 0 and peak > 0 and np.all(h >= 0)):
        return lam, False
    residual = float(np.max(np.abs(kernel.matvec(h) - lam * h))) / (lam * peak)
    return lam, residual <= tol
