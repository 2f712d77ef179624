"""Spectral quantities of the operator: pressure, radius, Perron eigendata.

The pressure is bracketed from the iterates of the constant function 1:

    p_inf[n] = min log(L^n 1)/n  <=  log(radius)  <=  max log(L^n 1)/n = p_sup[n]

(the two sides are the extreme row sums of the n-th kernel power, which
pinch the Perron root of a non-negative matrix).  The products run on
the kernel of f - offset, linearly and rescaled at every step, unless
(k-1) * (max f - min f) exceeds ``LINEAR_VALUE_CEILING``; then they run
in log space.

Eigendata come from simultaneous power iteration on the kernel of
f - offset at the canonical depth max(k-1, 1): the adjoint iteration
renormalizes by total mass, whose limit is the kernel's root, and the
forward iteration rescales to peak 1, so its residual is scale-free;
log lam is the log of that root plus the offset.  The iteration runs on M + sigma I with
sigma > 0: for M >= 0 the root lam + sigma strictly dominates |mu + sigma|
for every other eigenvalue mu, so an eigenvalue near -lam leaves no
periodic mode.  The residual (M + sigma I) x - (lam + sigma) x is
M x - lam x, so the certificates read the unshifted kernel.  A run that
exhausts its iteration budget returns flagged data instead of raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .measures import CylinderMeasure
from .transfer import CylinderFunction, _iterate_ones, build_kernel

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 100_000

# sigma = SHIFT_RATIO * lam, with lam the current adjoint mass.  Near an
# eigenvalue -lam an error then contracts by about (1 - s) / (1 + s) per step;
# every other kernel pays a little.  Iterations to tol 1e-12 with s = 0 / 0.02
# / 0.05 / 0.1: the table-battery table at depth 15 131 / 132 / 134 / 140; xy
# on 400 nodes, J=8, 283 / 289 / 298 / 312; renewal 14 at beta 1 347 / 354 /
# 364 / 382; Ising J=-1, h=0.2 at depth 8 97 / 83 / 69 / 53; Ising J=-5, h=0
# from the starts (0.8, 0.2) and (1, 3) 100,000 (not converged) / 691 / 277 /
# 139.  A sigma fixed at s times the first mass stalls instead: that mass is a
# weighted mean of the row sums, which can exceed lam by e^400 (the coboundary
# 400 (x0 - x1)), and M + sigma I is then nearly the identity.  The scan's
# squaring passes read the constant too: after the first they square Q + sigma I
# with sigma = SHIFT_RATIO times the root the previous pass read (scan.PASSES)
SHIFT_RATIO = 0.05


@dataclass(frozen=True, eq=False)
class PressureEstimate:
    """Bracket sequences for the pressure, from the canonical-depth kernel.

    ``p_sup[n-1]`` and ``p_inf[n-1]`` bound log(radius) after n
    applications; ``estimate`` is the final midpoint, ``width`` the
    final bracket width, and ``trunc_bound`` the additive log-scale
    error inherited from the potential's variation bound.
    """

    n_max: int
    p_sup: np.ndarray
    p_inf: np.ndarray
    estimate: float
    width: float
    trunc_bound: float


def pressure_bracket(f, n_max):
    """Bracket the pressure from n_max applications to 1 on the depth-max(k-1, 1) kernel."""
    if n_max < 1:
        raise ValueError("need at least one application")
    tops, bottoms, _ = _iterate_ones(f, max(f.depth - 1, 1), n_max)
    steps = np.arange(1, n_max + 1)
    p_sup = tops / steps
    p_inf = bottoms / steps
    return PressureEstimate(
        n_max=n_max,
        p_sup=p_sup,
        p_inf=p_inf,
        estimate=0.5 * (p_sup[-1] + p_inf[-1]),
        width=float(p_sup[-1] - p_inf[-1]),
        trunc_bound=f.var_bound,
    )


def _check_stop(tol, max_iters):
    """Refuse a tol that is not positive and finite, or a max_iters below 1."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class PowerIterationResult:
    """Raw output of the simultaneous iteration; ``lam`` is the root of the kernel of f - offset.

    ``right`` has peak 1 and ``left`` mass 1, as had the last step's input
    x, so both residuals max|M x - lam x| / lam are scale-free.
    """

    lam: float
    right: np.ndarray
    left: np.ndarray
    residual_right: float
    residual_left: float
    iterations: int
    converged: bool


def power_iterate(kernel, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, left0=None, right0=None):
    """Simultaneous forward/adjoint power iteration on a built kernel.

    Iterates on M + sigma I, sigma = SHIFT_RATIO times the adjoint mass of
    the step; ``lam``, the eigenvalue step and both residuals are those of M.
    A tol that is not positive and finite or a max_iters below 1 raises
    ValueError.  The iterates stay in the positive cone: a start ``left0`` or
    ``right0`` with a negative or non-finite entry, or with no positive
    entry, raises ValueError.  The forward iterate is divided by its
    maximum on entry and at every step, so a start scaled by a power of
    two runs the same steps; a -0.0 entry of a start is read as +0.0.
    Stops when the relative eigenvalue step, the forward residual and the
    adjoint residual all fall below tol.  A step reads the forward residual
    only once its eigenvalue step is below tol, and the adjoint residual
    only once the forward one is below tol too; the step at max_iters reads
    both, so the result always carries the residuals of its final step.
    tol bounds those, not the error of lam or of the vectors,
    which is about the residual over the spectral gap.  Non-convergence
    is reported in the result, not raised; a step whose adjoint mass or
    forward peak has no finite positive reciprocal raises NumericError.
    ``left0`` and ``right0`` are never written.
    """
    _check_stop(tol, max_iters)
    for start in (left0, right0):
        if start is not None and not (np.min(start) >= 0 and 0 < np.max(start) < math.inf):
            raise ValueError("a start must be finite and non-negative, with a positive entry")
    nd = kernel.size
    # + 0.0 reads a -0.0 entry as +0.0, which the two-symbol products would keep
    left = np.full(nd, 1.0 / nd) if left0 is None else (np.asarray(left0, float) + 0.0) / np.sum(left0)
    right = np.ones(nd) if right0 is None else (np.asarray(right0, float) + 0.0) / np.max(right0)
    lam = math.nan
    resid_l = resid_r = math.inf
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        t_left = kernel.tmatvec(left)
        mass = float(t_left.sum())
        if not (np.isfinite(mass) and mass > 0):
            raise NumericError(f"adjoint iteration produced mass {mass!r}")
        t_right = kernel.matvec(right)
        dlam = abs(mass - lam) / mass if not math.isnan(lam) else math.inf
        last = it == max_iters
        if dlam < tol or last:
            # the residuals matter only once the eigenvalue step is below tol, and
            # the adjoint one only once the forward one passes too; the last
            # iteration computes both for the result
            resid_r = float(np.max(np.abs(t_right - mass * right))) / mass
            if resid_r < tol or last:
                resid_l = float(np.max(np.abs(t_left - mass * left))) / mass
        lam = mass
        # t = M x + sigma x, written over M x, then scaled: by 1 / (lam + sigma)
        # on the adjoint side, to peak 1 on the forward side.  Multiplies, as a
        # divide per entry costs about 2.5 times as much
        sigma = SHIFT_RATIO * mass
        scale = 1.0 / (mass + sigma)
        right *= sigma
        t_right += right
        peak = float(t_right.max())
        # a step past double range: a subnormal mass or peak has no finite
        # reciprocal, an infinite peak a zero one, and either makes NaN iterates
        inv_peak = 1.0 / peak if peak > 0 else math.nan
        if not (0 < scale < math.inf and 0 < inv_peak < math.inf):
            raise NumericError(f"power iteration left double range: mass {mass!r}, peak {peak!r}")
        left *= sigma * scale
        t_left *= scale
        t_left += left
        t_right *= inv_peak
        left, right = t_left, t_right
        if max(resid_l, resid_r, dlam) < tol:
            converged = True
            break
    return PowerIterationResult(
        lam=lam,
        right=right,
        left=left,
        residual_right=resid_r,
        residual_left=resid_l,
        iterations=it,
        converged=converged,
    )


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Perron eigendata at the canonical depth max(k-1, 1).

    ``h`` is the strictly positive eigenfunction scaled so its integral
    against ``nu`` is one; ``nu`` is the probability eigenmeasure of the
    adjoint.  Both normalizations hold by construction, up to rounding:
    nu is divided by its mass and h by <h, nu>.  The residuals are
    scale-free sup-norm defects at the stored depth,
    max|M h - lam h| / (lam max h) and max|M^T nu - lam nu| / lam.
    ``log_lam`` is the pressure, the log of the leading eigenvalue of f.
    """

    log_lam: float
    h: CylinderFunction
    nu: CylinderMeasure
    residual_right: float
    residual_left: float
    iterations: int
    converged: bool
    trunc_bound: float

    @property
    def lam(self):
        """exp(log_lam): ``inf`` past double range, where log_lam stays exact."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_lam))


def perron_eigendata(f, *, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Leading eigenvalue, eigenfunction and eigenmeasure of the operator.

    The operator of a depth-k potential maps functions of the first
    max(k-1, 1) coordinates to themselves, so the eigenfunction is one
    of them, and the eigenmeasure is fixed by its weights at that depth
    (deeper weights follow in closed form, ``extend_eigenmeasure``).
    Both are solved on the kernel of that depth and no deeper.  ``tol``
    bounds the residuals of :func:`power_iterate`; the error of lam and
    of the eigendata is about those residuals over the spectral gap.
    """
    d0 = max(f.depth - 1, 1)
    kernel = build_kernel(f, d0)
    raw = power_iterate(kernel, tol=tol, max_iters=max_iters)
    # pairwise sums, not BLAS dot products, so that no thread count changes the digits
    nu = raw.left
    nu /= nu.sum()
    # lam is the mass of M^T nu for the nu reported: one step past raw.lam, the
    # mass of nu's input, for the product that the adjoint residual reads anyway
    adjoint = kernel.tmatvec(nu)
    lam = float(adjoint.sum())
    residual_left = float(np.max(np.abs(adjoint - lam * nu))) / lam
    del adjoint  # not held through the forward product
    # scale-free: max |M h - lam h| / (lam max h), read while h has peak 1
    h = raw.right
    residual_right = float(np.max(np.abs(kernel.matvec(h) - lam * h))) / lam
    scale = float((h * nu).sum())
    if not (np.isfinite(scale) and scale > 0):
        raise NumericError("eigenfunction integral against the eigenmeasure is not positive")
    h /= scale
    return SpectralData(
        log_lam=math.log(lam) + kernel.offset,
        h=CylinderFunction(f.space, d0, h),
        nu=CylinderMeasure(f.space, d0, nu),
        residual_right=residual_right,
        residual_left=residual_left,
        iterations=raw.iterations,
        converged=raw.converged,
        trunc_bound=f.var_bound,
    )

