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
from dataclasses import dataclass

import numpy as np

from .config import check_cylinder_count
from .errors import NumericError
from .space import SymbolSpace, word_index

EXTENSION_MASS_ABORT = 1e-6  # extend_eigenmeasure, whose nu is not certified, refuses a mass farther from 1
LOG_CHUNK = 2**16  # entries of log(rho) that relative_entropy holds at once


@dataclass(frozen=True, eq=False)
class CylinderMeasure:
    """A probability weight per depth-d cylinder, in canonical order."""

    space: SymbolSpace
    depth: int
    weights: np.ndarray

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
    w = mu.weights.reshape(-1, mu.space.size ** (mu.depth - depth)).sum(axis=1)
    return CylinderMeasure(mu.space, depth, w)


def _extend_raw(f, log_lam, weights, depth):
    """One eigen-extension step without renormalization (length n**(depth+1)).

    Entry a u is w_a * exp(f(a u) - log_lam) * weights[u]: the factor
    reads the first k-1 symbols of u, so one broadcast of shape
    (n, n**(k-1), n**(depth+1-k)) gives every entry.
    """
    n = f.space.size
    k = f.depth
    if depth < k - 1:
        raise ValueError(f"measure depth {depth} too shallow for a depth-{k} potential")
    check_cylinder_count(n, depth + 1)
    ew = _extension_factors(f, log_lam)
    return (ew[:, :, None] * weights.reshape(1, ew.shape[1], -1)).reshape(-1)


def _extension_factors(f, log_lam):
    """w_a * exp(f(a m) - log_lam), shape (n, n**(k-1)): symbol a, depth-(k-1) word m."""
    n = f.space.size
    return f.space.weights[:, None] * np.exp(f.table - log_lam).reshape(n, -1)


def _unit_mass(space, depth, w, what):
    """The measure w / sum(w), normalized in place.

    ``w`` must be a fresh array: the measure keeps it.  Only a sum that
    is not finite and positive is refused: how far from 1 converged
    eigendata leave it is bounded by their solve's tol, and the eigen
    residuals, not the mass, certify them.
    """
    mass = w.sum()
    if not (math.isfinite(mass) and mass > 0):
        raise NumericError(f"{what} mass is {mass}, not finite and positive")
    w /= mass
    return CylinderMeasure(space, depth, w)


def check_eigenmeasure(kernel, log_lam, nu, test_depth):
    """Worst |<L 1_[u], nu> - lam nu([u])| / lam over depth-t [u], L = kernel, lam = e^log_lam."""
    if kernel.depth != nu.depth:
        raise ValueError(f"depth-{nu.depth} measure given a depth-{kernel.depth} kernel")
    if not 0 <= test_depth <= nu.depth:
        raise ValueError(f"test depth {test_depth} outside 0..{nu.depth}")
    lam = math.exp(log_lam - kernel.offset)  # the eigenvalue on the kernel's scale
    t = kernel.tmatvec(nu.weights)
    length = nu.space.size ** (nu.depth - test_depth)
    lhs = t.reshape(-1, length).sum(axis=1)
    rhs = lam * nu.weights.reshape(-1, length).sum(axis=1)
    return float(np.max(np.abs(lhs - rhs))) / lam


def extend_eigenmeasure(f, log_lam, nu):
    """Extend an eigenmeasure by one cylinder depth via the closed-form step.

    The extension of a true eigenmeasure has unit mass, and the result
    is renormalized to it.  A mass farther than ``EXTENSION_MASS_ABORT``
    (1e-6) from 1 means the input does not satisfy the eigen relation,
    and the extension is refused.
    """
    w = _extend_raw(f, log_lam, nu.weights, nu.depth)
    dev = abs(w.sum() - 1.0)
    ext = _unit_mass(nu.space, nu.depth + 1, w, "eigenmeasure extension")
    if dev > EXTENSION_MASS_ABORT:
        raise NumericError(f"eigenmeasure extension mass deviates from 1 by {dev:.3e}")
    return ext


def equilibrium_measure(spec):
    """The shift-invariant measure h * nu from converged spectral data.

    Refuses spectral data that is flagged non-converged: the solve's own
    tol is the bound its residuals are certified against.
    """
    if not spec.converged:
        raise NumericError(
            "non-converged input refused: eigendata residuals "
            f"(right {spec.residual_right:.3e}, left {spec.residual_left:.3e}) "
            "did not reach the solve's tol"
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
    if depth == mu0.depth:
        return mu0
    nu_w = spec.nu.weights
    d = spec.nu.depth
    while d < depth:
        nu_w = _extend_raw(f, spec.log_lam, nu_w, d)
        d += 1
    # h weights every word that extends its cylinder; the extended nu_w is reweighted in place
    h = spec.h.values[:, None]
    by_cylinder = nu_w.reshape(len(h), -1)
    w = np.multiply(h, by_cylinder, out=by_cylinder)
    return _unit_mass(f.space, depth, w.reshape(-1), "equilibrium")


def check_invariance(mu, f, log_lam, nu):
    """Worst deviation of mu(preimage of [u]) from mu([u]) at the stored depth.

    The preimage weights come from the eigen-extension of nu reweighted
    by h = mu/nu on the first d coordinates; for the true equilibrium
    state both sides agree.  No renormalization is applied, so feeding a
    non-eigenmeasure here shows up as a large residual rather than an
    exception.  The preimage of [u] sums the weights of a u over the
    first symbol a; they are formed and added one symbol at a time, so
    no vector of the n**(d+1) extended weights is built.
    """
    if mu.depth != nu.depth:
        raise ValueError("mu and nu must share a depth")
    if np.any(nu.weights <= 0):
        raise ValueError("nu must be strictly positive on cylinders")
    n, d, k = mu.space.size, mu.depth, f.depth
    if d < max(k - 1, 1):
        raise ValueError(f"measure depth {d} too shallow for a depth-{k} potential")
    check_cylinder_count(n, d + 1)
    h = (mu.weights / nu.weights).reshape(n, -1, 1)  # h of a u_1..u_{d-1}, per symbol a
    ew = _extension_factors(f, log_lam)[:, :, None]  # its factor reads the first k-1 symbols of u
    by_prefix = nu.weights.reshape(1, ew.shape[1], -1)
    preimage = np.zeros(n**d)
    term = np.empty(n**d)
    for a in range(n):
        np.multiply(ew[a], by_prefix, out=term.reshape(by_prefix.shape))
        np.multiply(h[a], term.reshape(-1, n), out=term.reshape(-1, n))
        preimage += term
    preimage -= mu.weights
    return float(np.max(np.abs(preimage, out=preimage)))


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

    Each restriction has n nonzero weights, so each side is an n x n
    array of terms, from the kernel's weights of 2n rows: the term
    (a, r) lands on the word a r word_1..word_(d-1).  Past d = 2 each
    depth-(d-1) cylinder holds one of them, and the terms are compared
    one to one; at d <= 2 they are placed in a vector of the n**(d+1)
    deep words (at most n**3) and summed over the cylinders as before.
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
    symbols = np.arange(n)
    worst = 0.0
    for word in words:
        if len(word) != d:
            raise ValueError(f"word {tuple(word)} is not of length {d}, kernel depth - 1")
        idx = word_index(word, n)
        # adjoint of the shifted restriction: words r.word weighted by symbol a
        rows = symbols * n**d + idx
        lhs = kernel._row_weights(rows) * deep[rows]
        # the pointed restriction sums to nu(word) over its last symbol b; the
        # first adjoint puts it on a.word, the second on c.a.word_1..word_(d-1)
        mass = deep[idx * n : (idx + 1) * n].reshape(-1, n).sum(axis=1)
        first = kernel._row_weights(np.array([idx * n]))[:, 0] * mass / lam
        rhs = kernel._row_weights((symbols * n ** (d - 1) + idx // n) * n) * first
        if d <= 2:
            lhs, rhs = (_deep_block_sums(t, idx, n, d) for t in (lhs, rhs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / lam)
    return worst


def _deep_block_sums(terms, idx, n, d):
    """Block sums over n*n words of a depth-(d+1) level, d <= 2.

    The level holds terms[a, r] at the word a r word_1..word_(d-1) and
    zeros elsewhere.
    """
    level = terms  # at d = 1 the words a r are the whole level
    if d == 2:
        level = np.zeros((n, n, n))
        level[:, :, idx // n] = terms
    return level.reshape(-1, n * n).sum(axis=1)


def relative_entropy(mu, rho, depth=None):
    """Relative entropy of mu against rho on depth-n cylinders.

    Sum of mu * log(mu/rho) where mu > 0, with 0 * log(0/q) = 0; if mu
    charges a cylinder that rho does not, the result is +inf.  A measure
    stored at the depth asked for is read in place.  When mu charges
    every cylinder, a * (log a - log b) is formed in one array, with the
    operations and summation order of the masked sum; log b is taken
    ``LOG_CHUNK`` entries at a time, elementwise and so with the same bits.
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
        for start in range(0, len(b), LOG_CHUNK):
            terms[start : start + LOG_CHUNK] -= np.log(b[start : start + LOG_CHUNK])
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
    potential depth); an entry of ``H`` is ``inf`` where mu charges a
    cylinder the product measure does not.  When produced by
    :func:`variational_gap` the integral term, the gap sequence and mu's
    own ``invariance_defect`` (:func:`invariance_defect`) are filled in
    as well.
    """

    n: np.ndarray
    H: np.ndarray
    entropy_rate: np.ndarray
    integral: float = None
    integral_err: float = None
    gaps: np.ndarray = None
    invariance_defect: float = None

    @property
    def gap(self):
        return None if self.gaps is None else float(self.gaps[-1])


def specific_entropy(mu, n_max):
    """Relative entropies of mu against the a-priori product, depths 1..n_max.

    Needs mu stored at depth n_max or deeper (shallower depths come from
    marginals).  Infinite values are legal: the rates next to them are
    infinite or nan.
    """
    if not 1 <= n_max <= mu.depth:
        raise ValueError(f"n_max {n_max} outside 1..{mu.depth}")
    rho = product_measure(mu.space, n_max)
    H = np.array([relative_entropy(mu, rho, d) for d in range(1, n_max + 1)])
    with np.errstate(invalid="ignore"):
        rate = -(H[1:] - H[:-1])
    return EntropyReport(n=np.arange(1, n_max + 1), H=H, entropy_rate=rate)


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
    drop_last = mu.weights.reshape(-1, n).sum(axis=1)
    return float(np.max(np.abs(drop_first - drop_last)))


def variational_gap(mu, f, spec, n):
    """Gap sequence log(lam) - (entropy rate + integral of f) for a test measure.

    Non-negative for every shift-invariant test measure, zero exactly at
    the equilibrium state.  ``mu`` must be stored at depth n+1 or deeper
    so the entropy increment at n is available.  The report carries mu's
    own invariance defect: the gap is non-negative only for an invariant mu.
    """
    if mu.depth < n + 1:
        raise ValueError(f"need mu at depth {n + 1} for the increment at n={n}")
    ent = specific_entropy(mu, n + 1)
    return _gap_report(mu, f, spec, ent.H[:n], ent.entropy_rate[:n])


def markov_entropy_gap(mu, f, spec, n):
    """``variational_gap`` at n of a Markov measure, read at its stored depth m.

    ``mu`` is taken as the (m-1)-step Markov measure with these depth-m
    weights, as the equilibrium state of a depth-k potential is for any
    m >= max(k, 2) (Parry, Trans. AMS 112, 1964).  Its entropy increment
    H_{j+1} - H_j is then the same for every j >= m - 1, so the rows past
    m follow in closed form, H_j = H_m + (j - m)(H_m - H_{m-1}), and the
    rate is -(H_m - H_{m-1}) from j = m - 1 on.  H_1..H_m come from the
    marginals of mu; the integral and the invariance defect are read at
    depth m, so no deeper extension is built.
    """
    m = mu.depth
    if m < 2:
        raise ValueError(f"need mu at depth 2 or deeper, got {m}")
    ent = specific_entropy(mu, m)
    step = ent.H[-1] - ent.H[-2]
    with np.errstate(invalid="ignore"):
        H = np.concatenate([ent.H[:n], ent.H[-1] + np.arange(1, n - m + 1) * step])
        rate = np.concatenate([ent.entropy_rate[:n], np.full(max(n - m + 1, 0), -step)])
    return _gap_report(mu, f, spec, H, rate)


def _gap_report(mu, f, spec, H, rate):
    """The entropy report of rows 1..len(H): the gaps, the integral and mu's invariance defect."""
    if mu.depth < f.depth:
        raise ValueError("measure too shallow to integrate the potential")
    integral, err = integral_term(f, mu)
    return EntropyReport(
        n=np.arange(1, len(H) + 1),
        H=H,
        entropy_rate=rate,
        integral=integral,
        integral_err=err,
        gaps=spec.log_lam - (rate + integral),
        invariance_defect=invariance_defect(mu),
    )
