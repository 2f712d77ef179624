"""Locally constant potentials: tables over depth-k cylinders.

A depth-k potential assigns one real to every depth-k word; its value
on an infinite sequence is the table entry of the first k symbols.
Potentials that are not exactly locally constant are carried as a table
plus ``var_bound``, a bound on how much the true function can oscillate
within one cylinder.  Downstream log-quantities inherit an additive
error of var_bound per operator application, which callers surface as
``n * var_bound`` after n applications.
"""

from dataclasses import dataclass

import numpy as np

from .space import SymbolSpace, word_index

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Potential:
    """Table of values over depth-k cylinders, plus an oscillation bound.

    Parameters
    ----------
    space : SymbolSpace
    depth : int
        k >= 1; the table has space.size**k entries in canonical order.
    table : ndarray
    var_bound : float
        Bound on sup |f(x) - f(y)| over x, y sharing their first k
        symbols, and on |f(x) - table(first k symbols of x)|.  Zero for
        exactly locally constant potentials.
    """

    space: SymbolSpace
    depth: int
    table: np.ndarray
    var_bound: float = 0.0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("potential depth must be at least 1")
        t = np.asarray(self.table, dtype=float).reshape(-1)
        if t.shape != (self.space.size**self.depth,):
            raise ValueError(
                f"depth-{self.depth} table over {self.space.size} symbols needs "
                f"{self.space.size**self.depth} entries, got {t.size}"
            )
        if not np.isfinite(t).all():
            raise ValueError("potential table must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        if not (np.isfinite(self.var_bound) and self.var_bound >= 0):
            raise ValueError("var_bound must be finite and non-negative")

    @property
    def sup_norm(self):
        """Upper bound on the true sup norm: max table magnitude plus var_bound."""
        return float(np.max(np.abs(self.table))) + self.var_bound

    def evaluate(self, word):
        """Value on the cylinder of a word with depth >= k (extra symbols ignored)."""
        if len(word) < self.depth:
            raise ValueError(f"need at least {self.depth} symbols, got {len(word)}")
        return float(self.table[word_index(word[: self.depth], self.space.size)])

    def __repr__(self):
        return (
            f"Potential(size={self.space.size}, depth={self.depth}, "
            f"var_bound={self.var_bound!r})"
        )


def scale(f, beta):
    """The potential beta * f; var_bound scales by |beta|."""
    return Potential(f.space, f.depth, float(beta) * f.table, abs(float(beta)) * f.var_bound)


def builtin_constant(space, c):
    """The constant potential f = c, stored at depth 1."""
    return Potential(space, 1, np.full(space.size, float(c)))


def builtin_ising(space, coupling, external_field=0.0):
    """Nearest-neighbour spin potential J*s(u1)*s(u2) + h*s(u1), spins s(0)=-1, s(1)=+1."""
    if space.size != 2:
        raise ValueError("the spin potential needs a two-symbol space")
    s = np.array([-1.0, 1.0])
    table = coupling * np.outer(s, s) + external_field * s[:, None]
    return Potential(space, 2, table.ravel())


def builtin_xy(space, coupling):
    """Rotor pair potential J*cos(2*pi*(t(u1) - t(u2))) on quadrature nodes t."""
    if space.nodes is None:
        raise ValueError("the rotor potential needs a quadrature space with nodes")
    t = space.nodes
    table = coupling * np.cos(TWO_PI * (t[:, None] - t[None, :]))
    return Potential(space, 2, table.ravel())


@dataclass(frozen=True)
class RenewalTail:
    """Behaviour of a renewal payoff sequence beyond the stored horizon.

    ``limit`` is the payoff value at the all-zeros fixed point;
    ``bound`` dominates |s_j - limit| for every j past the horizon.
    """

    limit: float
    bound: float = 0.0


def builtin_renewal(space, payoffs, tail="constant"):
    """Renewal potential: value s_{j+1} on the cylinder with j leading zeros then a one.

    The word 0^j 1 ... gets payoff ``payoffs[j]`` (j = 0..K-1 zeros);
    the all-zeros depth-K cylinder gets ``payoffs[K-1]``.  The returned
    :class:`Potential` has depth K = len(payoffs).  Only the all-zeros
    cylinder oscillates: there the true value is the limit, something
    in the tail band or payoffs[K-1], so ``var_bound`` is the spread of
    {limit - bound, limit + bound, payoffs[K-1]}.

    ``tail`` is ``"constant"`` (payoffs continue at their last value,
    making the depth-K table exact) or a :class:`RenewalTail`.
    """
    if space.size != 2:
        raise ValueError("the renewal potential needs a two-symbol space")
    s = np.asarray(payoffs, dtype=float).reshape(-1)
    if s.size < 1:
        raise ValueError("need at least one payoff")
    horizon = s.size
    if tail == "constant":
        tail = RenewalTail(limit=float(s[-1]), bound=0.0)
    elif not isinstance(tail, RenewalTail):
        raise ValueError("tail must be 'constant' or a RenewalTail")

    # leading-zero count of the K-bit index: K minus the bit length
    idx = np.arange(1, 2**horizon, dtype=np.int64)
    bit_length = np.frexp(idx.astype(np.float64))[1]
    leading_zeros = horizon - bit_length
    table = np.empty(2**horizon)
    table[0] = s[-1]
    table[1:] = s[leading_zeros]

    # on the all-zeros cylinder the stored table uses s[K-1]
    vals = (tail.limit - tail.bound, tail.limit + tail.bound, float(s[-1]))
    return Potential(space, horizon, table, max(vals) - min(vals))
