"""Pressure curves over an inverse-temperature grid, with kink candidates.

Each grid point solves for the leading eigenvalue of the operator for
beta * f; consecutive points start from the previous eigenvectors, so
a scan costs a fraction of independent solves.  A genuine first-order
transition would put a slope discontinuity into the limiting curve;
at finite truncation the curve is analytic, so the detector only flags
*candidates*: interior points whose one-sided slope mismatch stands out
against the mismatch level of the scan as a whole.  Non-converged
points are surfaced as candidates too, never silently dropped.
"""

from dataclasses import dataclass, field

import numpy as np

from .potential import scale
from .spectral import DEFAULT_MAX_ITERS, power_iterate
from .transfer import build_kernel

KINK_FACTOR = 5.0
KINK_ABS_FLOOR = 1e-8


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
    """Pressure log(lam) over a beta grid, with kink-candidate detection."""
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) < 2:
        raise ValueError("need a one-dimensional grid of at least two beta values")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("beta grid must be strictly increasing")

    lams = np.empty(len(betas))
    converged = np.zeros(len(betas), dtype=bool)
    iters = np.zeros(len(betas), dtype=np.int64)
    left = right = None
    for i, beta in enumerate(betas):
        kernel = build_kernel(scale(f, float(beta)), depth)
        res = power_iterate(kernel, tol=tol, max_iters=max_iters, left0=left, right0=right)
        lams[i] = res.lam
        converged[i] = res.converged
        iters[i] = res.iterations
        left, right = res.left, res.right

    pressures = np.log(lams)
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
