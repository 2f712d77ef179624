"""The weighted prepend-and-sum operator on cylinder functions.

One application maps a depth-m function phi to

    (L phi)(x) = sum_a w_a * exp(f(a x)) * phi(a x),

which is again locally constant, of depth max(k-1, m-1, 0) for a
depth-k potential.  At a fixed working depth d the operator is a sparse
square matrix with exactly one entry per symbol per row: the
predecessors of a word u are the words a u_1..u_{d-1}.  The kernel
stores that structure in factored form (per-symbol weight tables plus
block shapes) rather than as explicit coordinates; the dense matrix is
materialized on demand for small-instance cross-checks.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import check_cylinder_count, cylinder_cap
from .errors import NumericError, ResourceCapError
from .potential import Potential
from .space import SymbolSpace

# largest log-magnitude kept in linear doubles (exp overflows past 709)
LINEAR_VALUE_CEILING = 700.0


def _check_depth(k, depth):
    """Reject working depths too shallow for a depth-k potential."""
    if depth < max(k - 1, 1):
        raise ValueError(f"kernel depth {depth} below the minimum {max(k - 1, 1)} for k={k}")


def _prefix(n, depth, k, rows):
    """Column of the weight table (the depth-(k-1) prefix) of each depth-d row index."""
    return rows // n ** (depth - k + 1)


def _gauge_offset(lo, hi, k):
    """The shift taken off a depth-k potential whose table spans [lo, hi].

    ``hi`` while k * (hi - lo) <= LINEAR_VALUE_CEILING, else the
    midpoint of the range, at least hi - LINEAR_VALUE_CEILING (see
    :func:`build_kernel`).
    """
    if k * (hi - lo) <= LINEAR_VALUE_CEILING:
        return hi
    return max((hi + lo) / 2, hi - LINEAR_VALUE_CEILING)


def _blocks(f, depth):
    """``TransferKernel.blocks`` of the depth-d kernel of f, once the depth and sizes pass."""
    k = f.depth
    n = f.space.size
    _check_depth(k, depth)
    check_cylinder_count(n, depth)
    check_cylinder_count(n, k)
    if depth >= k:
        return (n ** (k - 1), n ** (depth - k), 1)
    return (n ** (depth - 1), 1, n)


def _arq(table, n, blocks):
    """A depth-k table in (a, r, q) order, shape (n, rw, p0): see :class:`TransferKernel`."""
    p0, _, rw = blocks
    return table.reshape(n, p0, rw).transpose(0, 2, 1)


def _block_sums(x, length):
    """Sums of consecutive blocks of ``length`` entries of x.

    Bit for bit ``x.reshape(-1, length).sum(axis=1)``, which runs one
    inner loop per block.  numpy adds fewer than 8 terms in order from
    +0.0, so short blocks are summed column by column from
    ``blocks[:, 0] + 0.0``: the +0.0 start gives its signed zeros too.
    """
    blocks = x.reshape(-1, length)
    if length >= 8:
        return blocks.sum(axis=1)
    total = blocks[:, 0] + 0.0
    for j in range(1, length):
        total += blocks[:, j]
    return total


def _same_space(a, b):
    return a is b or (
        a.size == b.size
        and np.array_equal(a.weights, b.weights)
        and ((a.nodes is None) == (b.nodes is None))
        and (a.nodes is None or np.array_equal(a.nodes, b.nodes))
    )


@dataclass(frozen=True, eq=False)
class CylinderFunction:
    """A function constant on depth-d cylinders, stored in canonical order."""

    space: SymbolSpace
    depth: int
    values: np.ndarray

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape != (self.space.size**self.depth,):
            raise ValueError(
                f"depth-{self.depth} function needs {self.space.size**self.depth} "
                f"values, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("cylinder function values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __repr__(self):
        return f"CylinderFunction(size={self.space.size}, depth={self.depth})"


@dataclass(frozen=True, eq=False)
class TransferKernel:
    """Square realization of the operator on depth-d cylinder vectors.

    The matrix M satisfies M[u, v] = w_{v_1} * exp(f(v_1 u) - offset)
    when v_2..v_d = u_1..u_{d-1} and is zero otherwise: exactly one
    entry per symbol per row.  ``offset`` (see :func:`build_kernel`) keeps
    every entry finite; the operator of f is exp(offset) * M, with the
    same eigenvectors.  M is never stored; each product is one broadcast
    numpy expression over the per-symbol weight tables.

    Index conventions (canonical word order, n symbols, working depth
    d, potential depth k):

      * The weight of symbol a in row u is w_a * exp(f(a m) - offset),
        m the depth-(k-1) prefix of u.
      * A row u splits as (q, r): its first d-1 symbols and its last
        symbol.  Its predecessor by symbol a is the word a q, at index
        a * n**(d-1) + q, so a vector reshaped to (n, n**(d-1)) holds
        the predecessors of every row along the leading symbol axis.
      * ``blocks`` = (p0, p1, rw) splits q as (q // p1, q % p1).  Deep
        kernels (d >= k) have (n**(k-1), n**(d-k), 1): the weight reads
        the first k-1 symbols of q and not r, so a forward product is
        summed once per q and repeated to the n rows (q, r).  The edge
        depth d = k-1 has (n**(d-1), 1, n): the weight reads the whole
        row, and the sums land in the output vector through its
        transposed view ``out.reshape(p0 * p1, rw).T.reshape(rw, p0, p1)``.
      * ``ew_arq`` holds the weights in (a, r, q) order, shape (n, rw,
        p0): the weight of row (q, r) is ``ew_arq[a, r % rw, q // p1]``,
        so every product broadcasts over a contiguous q axis.  It is the
        only weight array stored; no canonical-order copy is kept.
      * ``log_ew_arq`` is log w_a + (f - offset) in the same order.  Only
        ``log_matvec`` reads it, so it is derived (and cached) on first
        read.
    """

    space: SymbolSpace
    potential: Potential
    depth: int
    ew_arq: np.ndarray
    blocks: tuple
    offset: float

    @functools.cached_property
    def log_ew_arq(self):
        """log w_a + (f - offset) in the order of ``ew_arq``, derived on first read."""
        w = self.space.weights[:, None, None]
        table_arq = _arq(self.potential.table - self.offset, self.space.size, self.blocks)
        log_ew = np.add(np.log(w), table_arq, order="C")
        log_ew.flags.writeable = False
        return log_ew

    @property
    def size(self):
        return self.space.size**self.depth

    @property
    def nnz(self):
        return self.space.size ** (self.depth + 1)

    def _by_predecessor(self, table, x):
        """Row weights and predecessor values, broadcast to (n, rw, p0, p1)."""
        n = self.space.size
        p0, p1, rw = self.blocks
        return table.reshape(n, rw, p0, 1), np.asarray(x, dtype=float).reshape(n, 1, p0, p1)

    def _forward(self, reduce):
        """A forward product in row order; ``reduce(total)`` writes its (rw, p0, p1) sums."""
        n = self.space.size
        p0, p1, rw = self.blocks
        if rw == 1:
            # deep kernel: the n rows (q, r) share the sum of q
            total = np.empty(p0 * p1)
            reduce(total.reshape(1, p0, p1))
            return np.repeat(total, n)
        out = np.empty(self.size)
        reduce(out.reshape(p0 * p1, rw).T.reshape(rw, p0, p1))
        return out

    def matvec(self, x):
        """Forward product M x."""
        weights, pred = self._by_predecessor(self.ew_arq, x)
        terms = weights * pred
        return self._forward(lambda total: terms.sum(axis=0, out=total))

    def log_matvec(self, lx):
        """log(M exp(lx)), summed from each row's largest term."""
        log_weights, log_pred = self._by_predecessor(self.log_ew_arq, lx)
        terms = log_weights + log_pred
        peak = terms.max(axis=0)

        def log_sum(total):
            with np.errstate(invalid="ignore"):
                np.exp(np.subtract(terms, peak, out=terms), out=terms).sum(axis=0, out=total)
                np.log(total, out=total)
                total += peak
            # a row whose largest term is not finite (all terms -inf) is -inf
            total[~np.isfinite(peak)] = -np.inf

        return self._forward(log_sum)

    def tmatvec(self, x):
        """Adjoint product: (M^T x)[v] = sum_u M[u, v] x[u]."""
        n = self.space.size
        p0, p1, rw = self.blocks
        if rw == 1:
            # the weight of row (q, r) does not depend on r: sum over r first
            sums = _block_sums(np.asarray(x, dtype=float), n)
            return (self.ew_arq.reshape(n, p0, 1) * sums.reshape(p0, p1)).reshape(-1)
        rows = np.asarray(x, dtype=float).reshape(-1, n)
        return (self.ew_arq * rows.T).sum(axis=1).reshape(-1)

    def _row_weights(self, rows):
        """Weights of the given rows, C-contiguous of shape (n,) + rows.shape: one per symbol a."""
        n = self.space.size
        p0, p1, rw = self.blocks
        q, r = np.divmod(rows, n)
        return np.take(self.ew_arq.reshape(n, rw * p0), (r % rw) * p0 + q // p1, axis=1)

    def to_dense(self):
        """Materialize M as a dense array (small instances only)."""
        nd = self.size
        if nd * nd > cylinder_cap():
            raise ResourceCapError(f"dense {nd}x{nd} kernel exceeds the cylinder cap")
        n = self.space.size
        npred = nd // n
        rows = np.arange(nd)
        weights = self._row_weights(rows)
        dense = np.zeros((nd, nd))
        for a in range(n):
            dense[rows, a * npred + rows // n] = weights[a]
        return dense


def build_kernel(f, depth):
    """Build the depth-d square kernel of the operator for f - offset.

    Requires depth >= max(k - 1, 1) so that prepending one symbol to a
    depth-d word determines the potential value.  Its Perron root and
    n-th iterates are those of f times exp(-offset) and exp(-n * offset).
    ``offset`` is max f while k * osc <= LINEAR_VALUE_CEILING (osc = max f - min f):
    the root of f - max f is then at least exp(-osc) and the eigenfunction spans
    at most exp((k-1) osc), so a solve's products stay above exp(-k osc).  Past
    that it is the midpoint of f's range, at least max f - LINEAR_VALUE_CEILING.
    """
    n = f.space.size
    blocks = _blocks(f, depth)
    offset = _gauge_offset(float(f.table.min()), float(f.table.max()), f.depth)
    w = f.space.weights[:, None, None]
    ew_arq = np.multiply(w, np.exp(_arq(f.table - offset, n, blocks)), order="C")
    ew_arq.flags.writeable = False
    return TransferKernel(
        space=f.space,
        potential=f,
        depth=depth,
        ew_arq=ew_arq,
        blocks=blocks,
        offset=offset,
    )


@dataclass(frozen=True, eq=False)
class Lumping:
    """An exactly lumpable partition of the depth-d words of a kernel.

    Words in one class have the same row weights and, for every symbol
    a, predecessors in the same class.  So the class-indicator matrix V
    satisfies M V = V Q for a small c x c matrix Q, every eigenpair
    (lam, g) of Q lifts to the eigenpair (lam, g[labels]) of M, and the
    Perron root of Q is that of M.  ``labels`` is the class of each
    word, ``reps`` the first word of each class.
    """

    depth: int
    labels: np.ndarray
    reps: np.ndarray

    @property
    def size(self):
        return len(self.reps)

    def quotient(self, weights):
        """The quotients Q of kernels over this partition: M V = V Q.

        ``weights[..., a, i]`` is the weight of symbol a in the row of
        ``reps[i]``: the entry of M at the predecessor a u_1..u_{d-1} of
        u = ``reps[i]``.  A stack of shape (..., n, c) gives the stack of
        quotients, shape (..., c, c), from one scatter.
        """
        weights = np.asarray(weights, dtype=float)
        n, c = weights.shape[-2:]
        nd = len(self.labels)
        if c != self.size or n**self.depth != nd:
            raise ValueError(
                f"weights of shape {weights.shape} for {self.size} classes "
                f"of {nd} depth-{self.depth} words"
            )
        preds = np.arange(n)[:, None] * (nd // n) + self.reps // n
        return _scatter_quotient(self.labels[preds], weights)


def _scatter_quotient(targets, weights):
    """Quotients from rep-row weights: Q[..., i, targets[a, i]] sums weights[..., a, i].

    ``targets[a, i]`` is the class of the predecessor by symbol a of the
    rep of class i; a stack of weights, shape (..., n, c), gives a stack
    of quotients, shape (..., c, c), from one scatter.
    """
    n, c = weights.shape[-2:]
    rows = np.broadcast_to(np.arange(c), (n, c))
    q = np.zeros(weights.shape[:-2] + (c, c))
    np.add.at(q, (..., rows, targets), weights)
    return q


def _compress(keys):
    """Renumber keys as 0..m-1 in sorted order; return (labels, m)."""
    values, labels = np.unique(keys, return_inverse=True)
    return labels.reshape(-1), len(values)


def _column_classes(labels, count):
    """Classes of the columns of a 2-d array of labels below count; return (classes, m).

    Equal columns share a class; classes are numbered in the
    lexicographic order of the columns.
    """
    classes, m = np.zeros(labels.shape[1], dtype=np.int64), 1
    for row in labels:
        classes, m = _compress(classes * count + row)
    return classes, m


def lumpable_partition(f, depth):
    """The exactly lumpable partition of the depth-d kernel of f.

    Words first split by their column ``f.table[:, prefix]`` of row
    weights; each round then splits every class by the classes of the
    n predecessors a q(u).  The rounds stop when the class count is
    stable or equals the word count.  The partition uses only equality
    of table entries, which scaling f by any beta preserves, so one
    partition serves the kernels of beta * f for every beta.
    """
    k = f.depth
    n = f.space.size
    _check_depth(k, depth)
    nd = check_cylinder_count(n, depth)
    words = np.arange(nd)
    levels, index = np.unique(f.table, return_inverse=True)
    columns, count = _column_classes(index.reshape(n, -1), len(levels))
    labels = columns[_prefix(n, depth, k, words)]
    # the predecessors a q(u) depend only on q(u), the first d-1 symbols
    # of u: column q of labels.reshape(n, -1) holds their classes
    q = words // n
    while count < nd:
        preds, m = _column_classes(labels.reshape(n, -1), count)
        keys, size = _compress(labels * m + preds[q])
        if size == count:
            break
        labels, count = keys, size
    reps = np.unique(labels, return_index=True)[1]
    for arr in (labels, reps):
        arr.flags.writeable = False
    return Lumping(depth=depth, labels=labels, reps=reps)


def apply_transfer(f, phi):
    """One application of the operator: a depth-max(k-1, m-1, 0) function.

    Reference implementation used by everything that is not an inner
    loop; the square-kernel matvec must agree with it entrywise.
    """
    if not _same_space(f.space, phi.space):
        raise ValueError("potential and function live on different symbol spaces")
    n = f.space.size
    k = f.depth
    m = phi.depth
    d_out = max(k - 1, m - 1, 0)
    check_cylinder_count(n, d_out)
    nd = n**d_out
    ew = f.space.weights[:, None] * np.exp(f.table.reshape(n, n ** (k - 1)))
    out = np.zeros(nd)
    for a in range(n):
        pot = np.repeat(ew[a], nd // n ** (k - 1))
        if m == 0:
            val = phi.values[0]
        else:
            block = phi.values[a * n ** (m - 1) : (a + 1) * n ** (m - 1)]
            val = np.repeat(block, nd // n ** (m - 1))
        out += pot * val
    return CylinderFunction(f.space, d_out, out)


def _iterate_ones(f, depth, steps, log_space=False):
    """Apply the depth-d kernel of f `steps` times to the constant function 1.

    Returns (tops, bottoms, lv): the largest and smallest entries of
    log(L^n 1) for n = 1..steps, and log(L^steps 1).  The products use
    the kernel of f - offset, and n * offset is added back in log space.
    By bounded distortion, max/min of L^n 1 is at most
    exp((k-1) * (max f - min f)) for every n, so while that exponent is
    within LINEAR_VALUE_CEILING the products run linearly, rescaled by
    the peak at every step.  Past it, or when asked to, they run in log
    space.
    """
    kernel = build_kernel(f, depth)
    shifts = kernel.offset * np.arange(1, steps + 1)
    tops = np.empty(steps)
    bottoms = np.empty(steps)
    if log_space or (f.depth - 1) * float(np.ptp(f.table)) > LINEAR_VALUE_CEILING:
        lv = np.zeros(kernel.size)
        for n in range(steps):
            lv = kernel.log_matvec(lv)
            tops[n] = lv.max()
            bottoms[n] = lv.min()
        return tops + shifts, bottoms + shifts, lv + steps * kernel.offset
    v = np.ones(kernel.size)
    log_scale = 0.0
    for n in range(steps):
        v = kernel.matvec(v)
        peak = v.max()
        v /= peak
        log_scale += math.log(peak)
        tops[n] = log_scale
        bottoms[n] = log_scale + math.log(v.min())
    return tops + shifts, bottoms + shifts, log_scale + np.log(v) + steps * kernel.offset


def iterate_one(f, n, depth, return_log=False):
    """n applications of the operator to the constant function 1, at a fixed depth.

    Computed by n sparse products on the kernel of f - offset, in log
    space when (k-1) * (max f - min f) exceeds LINEAR_VALUE_CEILING or
    when logs are asked for (``return_log=True``).  If the result has
    entries too large for a double, linear values cannot be returned
    and the caller should ask for logs.
    """
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    _, _, lv = _iterate_ones(f, depth, n, log_space=return_log)
    if return_log:
        return CylinderFunction(f.space, depth, lv)
    if np.max(lv) > LINEAR_VALUE_CEILING:
        raise NumericError("iterate values overflow double precision; request return_log=True")
    return CylinderFunction(f.space, depth, np.exp(lv))


def brute_force_iterate(f, n, word):
    """Enumerate all length-n symbol strings to evaluate the n-th iterate at one word.

    Independent of the kernel machinery: sums, over all prepend
    histories, the product of symbol weights and exponentiated
    potential values, exactly as the operator definition unrolls.
    Exponential cost; guarded by the cylinder cap.
    """
    if n < 1:
        raise ValueError("brute force needs at least one application")
    k = f.depth
    if len(word) < k - 1:
        raise ValueError(f"word depth {len(word)} too shallow for a depth-{k} potential")
    nsym = f.space.size
    check_cylinder_count(nsym, n)
    weights = [float(w) for w in f.space.weights]

    def rec(current, steps):
        if steps == 0:
            return 1.0
        total = 0.0
        for a in range(nsym):
            ext = (a,) + current
            total += weights[a] * math.exp(f.evaluate(ext)) * rec(ext, steps - 1)
        return total

    return rec(tuple(word), n)
