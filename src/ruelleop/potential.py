"""Locally constant potentials: tables over depth-k cylinders.

A depth-k potential assigns one real to every depth-k word; its value
on an infinite sequence is the table entry of the first k symbols.
Potentials that are not exactly locally constant are carried as a table
plus ``var_bound``, a bound on how much the true function can oscillate
within one cylinder.  Downstream log-quantities inherit an additive
error of var_bound per operator application, which callers surface as
``n * var_bound`` after n applications.

A renewal potential (:class:`RenewalPotential`) is held as its K
payoffs; its 2^K-entry table is built on first read, under the cylinder
cap, so a scan, which reads only the payoffs, runs at any K.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import check_cylinder_count
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


class RenewalPotential(Potential):
    """A renewal potential held as its payoffs; its table is built on first read.

    The word 0^j 1 ... has value ``payoffs[j]`` (j = 0..K-1 leading
    zeros) and the all-zeros depth-K cylinder ``payoffs[K-1]``, so the
    depth is K = len(payoffs) and the table holds exactly the payoffs.
    ``table`` checks 2^K against the cylinder cap before it allocates;
    the scan reads only the payoffs, so it runs at any K.
    """

    def __init__(self, space, payoffs, var_bound=0.0):
        if space.size != 2:
            raise ValueError("the renewal potential needs a two-symbol space")
        s = np.array(payoffs, dtype=float).reshape(-1)
        if s.size < 1:
            raise ValueError("need at least one payoff")
        if not np.isfinite(s).all():
            raise ValueError("potential table must be finite")
        if not (np.isfinite(var_bound) and var_bound >= 0):
            raise ValueError("var_bound must be finite and non-negative")
        s.flags.writeable = False
        for name, value in (("space", space), ("depth", s.size), ("payoffs", s), ("var_bound", var_bound)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def table(self):
        """The depth-K table in canonical order, built on first read under the cylinder cap."""
        horizon = self.depth
        check_cylinder_count(2, horizon)
        # leading-zero count of the K-bit index: K minus the bit length
        idx = np.arange(1, 2**horizon, dtype=np.int64)
        leading_zeros = horizon - np.frexp(idx.astype(np.float64))[1]
        table = np.empty(2**horizon)
        table[0] = self.payoffs[-1]
        table[1:] = self.payoffs[leading_zeros]
        table.flags.writeable = False
        return table


def scale(f, beta):
    """The potential beta * f; var_bound scales by |beta|.

    A renewal potential stays one: beta times its payoffs gives the
    bits of beta times its table.
    """
    var_bound = abs(float(beta)) * f.var_bound
    if isinstance(f, RenewalPotential):
        return RenewalPotential(f.space, float(beta) * f.payoffs, var_bound)
    return Potential(f.space, f.depth, float(beta) * f.table, var_bound)


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
    check_cylinder_count(space.size, 2)
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
    :class:`RenewalPotential` has depth K = len(payoffs) and builds its
    table only when read.  Only the all-zeros cylinder oscillates: there
    the true value is the limit, something in the tail band or
    payoffs[K-1], so ``var_bound`` is the spread of
    {limit - bound, limit + bound, payoffs[K-1]}.

    ``tail`` is ``"constant"`` (payoffs continue at their last value,
    making the depth-K table exact) or a :class:`RenewalTail`.
    """
    s = np.asarray(payoffs, dtype=float).reshape(-1)
    last = float(s[-1]) if s.size else 0.0
    if tail == "constant":
        tail = RenewalTail(limit=last, bound=0.0)
    elif not isinstance(tail, RenewalTail):
        raise ValueError("tail must be 'constant' or a RenewalTail")
    # on the all-zeros cylinder the stored table uses s[K-1]
    vals = (tail.limit - tail.bound, tail.limit + tail.bound, last)
    return RenewalPotential(space, s, max(vals) - min(vals))
