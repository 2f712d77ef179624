"""Finite symbol spaces with a-priori weights, and words over them.

A space is the discretized alphabet: ``size`` symbols ``0..size-1``,
each carrying a strictly positive weight, weights summing to one.  A
quadrature space is one that also stores ``nodes``, the point in the
original domain that each symbol stands for, so integral operators over
an interval can be driven through the same code path as genuinely
finite alphabets.

Words are plain tuples of symbol indices; depth is their length.  All
vectors over depth-d cylinders use one canonical order everywhere in
the package: lexicographic with the first symbol most significant, so
the word ``(u1, .., ud)`` sits at index ``sum(u_i * size**(d-i))``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .config import check_cylinder_count

WEIGHT_SUM_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class SymbolSpace:
    """Discretized symbol alphabet with an a-priori probability weight per symbol.

    Parameters
    ----------
    size : int
        Number of symbols, at least 1.
    weights : ndarray
        Strictly positive, summing to 1 within 1e-14.
    nodes : ndarray or None
        For quadrature spaces, the representative point of each symbol
        in the original domain.  Pairwise distinct.  None for a finite
        alphabet.
    """

    size: int
    weights: np.ndarray
    nodes: np.ndarray = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("a symbol space needs at least one symbol")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.size,):
            raise ValueError(f"expected {self.size} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_SUM_TOL}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.nodes is not None:
            t = np.asarray(self.nodes, dtype=float)
            if t.shape != (self.size,):
                raise ValueError(f"expected {self.size} nodes, got shape {t.shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError("nodes must be finite")
            if len(np.unique(t)) != self.size:
                raise ValueError("quadrature nodes must be pairwise distinct")
            t.flags.writeable = False
            object.__setattr__(self, "nodes", t)

    def __repr__(self):
        return f"SymbolSpace(size={self.size}, quadrature={self.nodes is not None})"


def finite_space(weights):
    """Build a finite space from explicit positive weights (normalized check applies)."""
    w = np.asarray(weights, dtype=float)
    return SymbolSpace(size=len(w), weights=w)


def uniform_space(n):
    """Finite space on n symbols with uniform weights 1/n, checked against the cylinder cap."""
    check_cylinder_count(n, 1)
    return SymbolSpace(size=n, weights=np.full(n, 1.0 / n))


def gauss_legendre_space(n, a=-1.0, b=1.0):
    """Gauss-Legendre discretization of the interval [a, b].

    Nodes are the degree-n Legendre points mapped affinely to [a, b];
    weights are the quadrature weights normalized to total mass one, so
    the space carries a probability measure.  The unnormalized rule's
    weights are these times b - a.
    """
    if not n >= 1:
        raise ValueError("quadrature size must be at least 1")
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    check_cylinder_count(n, 2)  # leggauss solves an n x n companion matrix
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
    raw = 0.5 * (b - a) * w
    return SymbolSpace(size=n, weights=raw / raw.sum(), nodes=nodes)


def word_index(word, size):
    """Canonical index of a word among all words of its depth."""
    idx = 0
    for s in word:
        if not 0 <= s < size:
            raise ValueError(f"symbol {s} out of range for size-{size} space")
        idx = idx * size + s
    return idx


def index_word(idx, size, depth):
    """Inverse of word_index: the depth-`depth` word at canonical index idx."""
    if not 0 <= idx < size**depth:
        raise ValueError(f"index {idx} out of range for {size}^{depth} words")
    out = []
    for _ in range(depth):
        out.append(idx % size)
        idx //= size
    return tuple(reversed(out))


def _word_labels(space, depth):
    """Text labels of all depth-d words in canonical order, symbols joined by ".".

    The label of word (0, 1, 1) is "0.1.1"; depth 0 gives [""].  The
    labels come as an iterator that makes each one when it is read.
    Refuses depths whose cylinder count exceeds the package cap, on the
    call itself.
    """
    check_cylinder_count(space.size, depth)
    return map(".".join, itertools.product([str(s) for s in range(space.size)], repeat=depth))
