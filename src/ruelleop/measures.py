"""Cylinder measures: eigenmeasure certificates, equilibrium states, entropy.

A measure is stored as its weights over depth-d cylinders.  The adjoint
transfer operator acts on these weight vectors through the same sparse
kernels as the forward operator; an eigenmeasure extends to deeper
cylinders by one closed-form step per level,

    nu[a u] = w_a * exp(f(a u) - log lam) * nu[u],

and the equilibrium state is the eigenmeasure reweighted by the
eigenfunction.  Entropy here is always relative to the product of the
a-priori symbol weights: H_n >= 0 grows linearly for ergodic measures,
and the signed entropy rate entering the variational functional is
minus its increment, so the pressure inequality reads

    log lam >= -(H_{n+1} - H_n) + integral of f  (equality at equilibrium).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_cylinder_count
from .errors import NumericError
from .space import SymbolSpace, word_index
from .transfer import _block_sums

EXTENSION_MASS_ABORT = 1e-6
INVARIANCE_TOL = 1e-10  # variational_gap flags a test measure less invariant than this


@dataclass(frozen=True, eq=False)
class CylinderMeasure:
    """A probability weight per depth-d cylinder, in canonical order.

    ``mass_dev`` records any deviation from unit mass that was absorbed
    by renormalization when the measure was constructed.
    """

    space: SymbolSpace
    depth: int
    weights: np.ndarray
    mass_dev: float = 0.0

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (self.space.size**self.depth,):
            raise ValueError(
                f"depth-{self.depth} measure needs {self.space.size**self.depth} "
                f"weights, got {w.size}"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("measure weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-13:
            raise ValueError(f"measure weights sum to {w.sum()!r}, expected 1 within 1e-13")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __repr__(self):
        return f"CylinderMeasure(size={self.space.size}, depth={self.depth})"


def product_measure(space, depth):
    """The product of the a-priori symbol weights over depth-d cylinders."""
    check_cylinder_count(space.size, depth)
    w = np.ones(1)
    for _ in range(depth):
        w = np.kron(w, space.weights)
    return CylinderMeasure(space, depth, w)


def marginalize(mu, depth):
    """Restrict a measure to shallower cylinders by summing trailing symbols."""
    if not 0 <= depth <= mu.depth:
        raise ValueError(f"marginal depth {depth} outside 0..{mu.depth}")
    w = _block_sums(mu.weights, mu.space.size ** (mu.depth - depth))
    return CylinderMeasure(mu.space, depth, w, mass_dev=mu.mass_dev)


def _extend_raw(f, log_lam, weights, depth):
    """One eigen-extension step without renormalization (length n**(depth+1))."""
    n = f.space.size
    k = f.depth
    if depth < k - 1:
        raise ValueError(f"measure depth {depth} too shallow for a depth-{k} potential")
    check_cylinder_count(n, depth + 1)
    ew_col = np.repeat(f.space.weights, n ** (k - 1)) * np.exp(f.table - log_lam)
    return np.repeat(ew_col, n ** (depth + 1 - k)) * np.tile(weights, n)


def _unit_mass(space, depth, w, what):
    """The measure w / sum(w), recording how far sum(w) is from 1; refused past 1e-6."""
    mass = w.sum()
    dev = abs(mass - 1.0)
    if dev > EXTENSION_MASS_ABORT:
        raise NumericError(f"{what} mass deviates from 1 by {dev:.3e}")
    return CylinderMeasure(space, depth, w / mass, mass_dev=dev)


def check_eigenmeasure(kernel, log_lam, nu, test_depth):
    """Worst |<L 1_[u], nu> - lam nu([u])| / lam over depth-t [u], L = kernel, lam = e^log_lam."""
    if kernel.depth != nu.depth:
        raise ValueError(f"depth-{nu.depth} measure given a depth-{kernel.depth} kernel")
    if not 0 <= test_depth <= nu.depth:
        raise ValueError(f"test depth {test_depth} outside 0..{nu.depth}")
    lam = math.exp(log_lam - kernel.offset)  # the eigenvalue on the kernel's scale
    t = kernel.tmatvec(nu.weights)
    length = nu.space.size ** (nu.depth - test_depth)
    lhs = _block_sums(t, length)
    rhs = lam * _block_sums(nu.weights, length)
    return float(np.max(np.abs(lhs - rhs))) / lam


def extend_eigenmeasure(f, log_lam, nu):
    """Extend an eigenmeasure by one cylinder depth via the closed-form step.

    The extension of a true eigenmeasure has unit mass; the observed
    deviation is recorded on the result and absorbed by renormalization.
    A deviation above 1e-6 means the input does not satisfy the eigen
    relation and the extension is refused.
    """
    w = _extend_raw(f, log_lam, nu.weights, nu.depth)
    return _unit_mass(nu.space, nu.depth + 1, w, "eigenmeasure extension")


def equilibrium_measure(spec, residual_tol=1e-8):
    """The shift-invariant measure h * nu from converged spectral data.

    Refuses spectral data that is flagged non-converged or whose
    residuals exceed ``residual_tol``.
    """
    if not spec.converged or max(spec.residual_right, spec.residual_left) > residual_tol:
        raise NumericError(
            "non-converged input refused: eigendata residuals "
            f"(right {spec.residual_right:.3e}, left {spec.residual_left:.3e}) "
            f"are not certified below {residual_tol:.1e}"
        )
    return _unit_mass(spec.nu.space, spec.nu.depth, spec.h.values * spec.nu.weights, "h*nu")


def extend_equilibrium(spec, f, depth):
    """The equilibrium measure on depth-d cylinders, d at least the stored depth.

    The eigenmeasure is pushed to depth d by eigen-extension steps and
    reweighted by the eigenfunction of the first stored-depth symbols.
    """
    mu0 = equilibrium_measure(spec)
    if depth < mu0.depth:
        raise ValueError(f"extension depth {depth} below stored depth {mu0.depth}")
    nu_w = spec.nu.weights
    d = spec.nu.depth
    while d < depth:
        nu_w = _extend_raw(f, spec.log_lam, nu_w, d)
        d += 1
    reps = f.space.size ** (depth - spec.h.depth)
    return _unit_mass(f.space, depth, np.repeat(spec.h.values, reps) * nu_w, "equilibrium")


def check_invariance(mu, f, log_lam, nu):
    """Worst deviation of mu(preimage of [u]) from mu([u]) at the stored depth.

    The preimage weights come from the eigen-extension of nu reweighted
    by h = mu/nu on the first d coordinates; for the true equilibrium
    state both sides agree.  No renormalization is applied, so feeding a
    non-eigenmeasure here shows up as a large residual rather than an
    exception.
    """
    if mu.depth != nu.depth:
        raise ValueError("mu and nu must share a depth")
    if np.any(nu.weights <= 0):
        raise ValueError("nu must be strictly positive on cylinders")
    n = mu.space.size
    h = mu.weights / nu.weights
    nu_ext = _extend_raw(f, log_lam, nu.weights, nu.depth)
    mu_ext = np.repeat(h, n) * nu_ext  # h of the first d symbols of each word
    preimage = mu_ext.reshape(n, -1).sum(axis=0)
    return float(np.max(np.abs(preimage - mu.weights)))


def check_intertwine(kernel, log_lam, nu, words):
    """Worst residual of the adjoint intertwining identity over words of length kernel.depth - 1.

    For each word, pairs against every indicator of depth len(word) the
    adjoint applied to (indicator-after-shift * nu) with 1/lam times the
    adjoint applied twice to (indicator * nu).  Both restrictions are
    read from the weights of nu at the kernel's depth: the first reads
    nu on the prepended cylinders, the second on the appended ones, so
    the comparison ties the deep weights to their own shifted marginals
    and vanishes only when nu satisfies the eigen relation with
    eigenvalue lam = exp(log_lam).  Rebuilding the deep level from the
    closed-form extension of nu's shallower marginal instead would miss
    deep weights that disagree with an eigen marginal.  Both sides
    use the kernel's scale (f - offset), the second is divided by lam
    between its two products and the residual by lam, so it neither
    overflows nor grows with f's scale.
    """
    d = kernel.depth - 1
    k = kernel.potential.depth
    if d < max(k - 1, 1):
        raise ValueError(f"depth-{kernel.depth} kernel too shallow for a depth-{k} potential")
    if nu.depth < kernel.depth:
        raise ValueError(f"nu must be stored at depth {kernel.depth} or deeper, got {nu.depth}")
    n = kernel.space.size
    deep = nu.weights if nu.depth == d + 1 else marginalize(nu, d + 1).weights
    lam = math.exp(log_lam - kernel.offset)  # the eigenvalue on the kernel's scale
    worst = 0.0
    for word in words:
        if len(word) != d:
            raise ValueError(f"word {tuple(word)} is not of length {d}, kernel depth - 1")
        idx = word_index(word, n)
        shifted = np.zeros(n ** (d + 1))
        sel = np.arange(n) * n**d + idx  # words r.word for each first symbol r
        shifted[sel] = deep[sel]
        lhs = _block_sums(kernel.tmatvec(shifted), n * n)

        pointed = np.zeros(n ** (d + 1))
        sel = idx * n + np.arange(n)  # words word.b for each last symbol b
        pointed[sel] = deep[sel]
        rhs = _block_sums(kernel.tmatvec(kernel.tmatvec(pointed) / lam), n * n)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / lam)
    return worst


def relative_entropy(mu, rho, depth=None):
    """Relative entropy of mu against rho on depth-n cylinders.

    Sum of mu * log(mu/rho) where mu > 0, with 0 * log(0/q) = 0; if mu
    charges a cylinder that rho does not, the result is +inf.  A measure
    stored at the depth asked for is read in place.  When mu charges
    every cylinder, a * (log a - log b) is formed in one array, with the
    operations and summation order of the masked sum.
    """
    if depth is None:
        depth = min(mu.depth, rho.depth)
    a = mu.weights if mu.depth == depth else marginalize(mu, depth).weights
    b = rho.weights if rho.depth == depth else marginalize(rho, depth).weights
    pos = a > 0
    if pos.all():
        if np.any(b <= 0):
            return math.inf
        terms = np.log(a)
        terms -= np.log(b)
        terms *= a
        return float(np.sum(terms))
    if np.any(b[pos] <= 0):
        return math.inf
    return float(np.sum(a[pos] * (np.log(a[pos]) - np.log(b[pos]))))


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Entropy diagnostics over a range of cylinder depths.

    ``H`` is the relative entropy against the a-priori product measure
    at each depth in ``n``; ``entropy_rate`` holds the signed rates
    -(H_{n+1} - H_n) (exact for Markov measures once n reaches the
    potential depth).  When produced by :func:`variational_gap` the
    integral term and the gap sequence are filled in as well.
    """

    n: np.ndarray
    H: np.ndarray
    entropy_rate: np.ndarray
    integral: float = None
    integral_err: float = None
    gaps: np.ndarray = None
    flags: dict = field(default_factory=dict)

    @property
    def gap(self):
        return None if self.gaps is None else float(self.gaps[-1])


def specific_entropy(mu, n_max):
    """Relative entropies of mu against the a-priori product, depths 1..n_max.

    Needs mu stored at depth n_max or deeper (shallower depths come from
    marginals).  Infinite values are legal and flagged.
    """
    if not 1 <= n_max <= mu.depth:
        raise ValueError(f"n_max {n_max} outside 1..{mu.depth}")
    rho = product_measure(mu.space, n_max)
    H = np.array([relative_entropy(mu, rho, d) for d in range(1, n_max + 1)])
    with np.errstate(invalid="ignore"):
        rate = -(H[1:] - H[:-1])
    flags = {"finite": bool(np.all(np.isfinite(H)))}
    return EntropyReport(n=np.arange(1, n_max + 1), H=H, entropy_rate=rate, flags=flags)


def integral_term(f, mu):
    """Integral of f against mu with its truncation-error bound."""
    if mu.depth < f.depth:
        raise ValueError(f"measure depth {mu.depth} below potential depth {f.depth}")
    val = float((f.table * marginalize(mu, f.depth).weights).sum())
    return val, f.var_bound


def invariance_defect(mu):
    """Worst deviation of the first-symbol marginal consistency of mu itself.

    Compares mu summed over its first symbol with mu summed over its
    last: equal for shift-invariant measures.
    """
    n = mu.space.size
    drop_first = mu.weights.reshape(n, -1).sum(axis=0)
    drop_last = _block_sums(mu.weights, n)
    return float(np.max(np.abs(drop_first - drop_last)))


def variational_gap(mu, f, spec, n):
    """Gap sequence log(lam) - (entropy rate + integral of f) for a test measure.

    Non-negative for every shift-invariant test measure, zero exactly at
    the equilibrium state.  ``mu`` must be stored at depth n+1 or deeper
    so the entropy increment at n is available.  The report flags a
    measure whose own invariance defect exceeds ``INVARIANCE_TOL``.
    """
    if mu.depth < n + 1:
        raise ValueError(f"need mu at depth {n + 1} for the increment at n={n}")
    if mu.depth < f.depth:
        raise ValueError("measure too shallow to integrate the potential")
    ent = specific_entropy(mu, n + 1)
    integral, err = integral_term(f, mu)
    gaps = spec.log_lam - (ent.entropy_rate[:n] + integral)
    defect = invariance_defect(mu)
    flags = dict(ent.flags)
    flags.update(
        {
            "invariant": bool(defect <= INVARIANCE_TOL),
            "invariance_defect": defect,
            "spec_converged": bool(spec.converged),
        }
    )
    return EntropyReport(
        n=ent.n[:n],
        H=ent.H[:n],
        entropy_rate=ent.entropy_rate[:n],
        integral=integral,
        integral_err=err,
        gaps=gaps,
        flags=flags,
    )
