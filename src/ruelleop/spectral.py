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
forward iteration rescales by the same estimate; log lam is the log of
that root plus the offset.  Near-degenerate second eigenvalues of
opposite sign show up as a period-2 oscillation of the mass sequence;
averaging two consecutive iterates removes the alternating mode and the
iteration then proceeds normally.  A run that exhausts its iteration
budget returns flagged data instead of raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .measures import CylinderMeasure
from .transfer import CylinderFunction, _iterate_ones, build_kernel

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 100_000

OSC_DETECT_NEAR = 1e-3  # period-2 detector: lam[t] vs lam[t-2] this much closer...
OSC_DETECT_FAR = 1e2 * OSC_DETECT_NEAR  # ...than lam[t] vs lam[t-1]


@dataclass(frozen=True, eq=False)
class PressureEstimate:
    """Bracket sequences for the pressure at one working depth.

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


def pressure_bracket(f, depth, n_max):
    """Bracket the pressure by iterating the constant function 1 n_max times."""
    if n_max < 1:
        raise ValueError("need at least one application")
    tops, bottoms, _ = _iterate_ones(f, depth, n_max)
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


@dataclass(frozen=True, eq=False)
class PowerIterationResult:
    """Raw output of the simultaneous iteration; ``lam`` is the root of the kernel of f - offset."""

    lam: float
    right: np.ndarray
    left: np.ndarray
    residual_right: float
    residual_left: float
    iterations: int
    converged: bool


def power_iterate(kernel, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, left0=None, right0=None):
    """Simultaneous forward/adjoint power iteration on a built kernel.

    Stops when the forward residual, the adjoint residual and the
    relative eigenvalue step all fall below tol.  Non-convergence is
    reported in the result, not raised.  Each side alternates between two
    vectors: a product writes over the iterate before its input, which the
    period-2 averaging has read by then.  ``left0`` and ``right0`` are
    never written.
    """
    nd = kernel.size
    left = np.full(nd, 1.0 / nd) if left0 is None else np.asarray(left0, float) / np.sum(left0)
    right = np.ones(nd) if right0 is None else np.asarray(right0, float).copy()
    prev_left, prev_right = np.empty(nd), np.empty(nd)
    lam = math.nan
    resid_l = resid_r = math.inf
    converged = False
    history = []
    it = 0
    while it < max_iters:
        it += 1
        t_left = kernel.tmatvec(left, out=prev_left)
        mass = float(t_left.sum())
        if not (np.isfinite(mass) and mass > 0):
            raise NumericError(f"adjoint iteration produced mass {mass!r}")
        t_right = kernel.matvec(right, out=prev_right)
        dlam = abs(mass - lam) / mass if not math.isnan(lam) else math.inf
        if dlam < tol or it == max_iters:
            # the residuals matter only once the eigenvalue step is below tol;
            # the last iteration computes them for the result
            resid_l = float(np.max(np.abs(t_left - mass * left))) / mass
            resid_r = float(np.max(np.abs(t_right - mass * right))) / mass
        lam = mass
        t_left /= mass
        t_right /= mass
        prev_left, left = left, t_left
        prev_right, right = right, t_right
        if max(resid_l, resid_r, dlam) < tol:
            converged = True
            break
        history.append(mass)
        if len(history) >= 3:
            step_2 = abs(history[-1] - history[-3])
            step_1 = abs(history[-1] - history[-2])
            if step_2 < OSC_DETECT_NEAR * step_1 and step_1 > OSC_DETECT_FAR * tol * mass:
                # period-2 oscillation: project out the alternating mode,
                # 0.5 * (left + prev_left) computed in place
                np.add(left, prev_left, out=left)
                left *= 0.5
                left /= left.sum()
                np.add(right, prev_right, out=right)
                right *= 0.5
                history.clear()
        # keep the forward iterate in floating range; scale is fixed at the end
        peak = max(float(right.max()), -float(right.min()))  # max |right|
        if peak > 1e100 or (0 < peak < 1e-100):
            right /= peak
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
    adjoint.  ``mass_dev`` and ``hnu_dev`` certify the normalizations;
    the residuals are scale-free sup-norm defects at the stored depth,
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
    mass_dev: float
    hnu_dev: float
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
    Both are solved on the kernel of that depth and no deeper.
    """
    d0 = max(f.depth - 1, 1)
    kernel = build_kernel(f, d0)
    raw = power_iterate(kernel, tol=tol, max_iters=max_iters)
    lam = raw.lam
    # pairwise sums, not BLAS dot products, so that no thread count changes the digits
    nu = raw.left
    mass = nu.sum()
    nu /= mass
    h = raw.right
    scale = float((h * nu).sum())
    if not (np.isfinite(scale) and scale > 0):
        raise NumericError("eigenfunction integral against the eigenmeasure is not positive")
    h /= scale
    # scale-free: max |M h - lam h| / (lam max h), on h / max h so the products stay in range
    h_unit = h / h.max()
    return SpectralData(
        log_lam=math.log(lam) + kernel.offset,
        h=CylinderFunction(f.space, d0, h),
        nu=CylinderMeasure(f.space, d0, nu),
        residual_right=float(np.max(np.abs(kernel.matvec(h_unit) - lam * h_unit))) / lam,
        residual_left=float(np.max(np.abs(kernel.tmatvec(nu) - lam * nu))) / lam,
        iterations=raw.iterations,
        converged=raw.converged,
        mass_dev=abs(mass - 1.0),
        hnu_dev=abs(float((h * nu).sum()) - 1.0),
        trunc_bound=f.var_bound,
    )

