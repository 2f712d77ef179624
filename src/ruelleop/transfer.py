"""The weighted prepend-and-sum operator on cylinder functions.

One application maps a depth-m function phi to

    (L phi)(x) = sum_a w_a * exp(f(a x)) * phi(a x),

which is again locally constant, of depth max(k-1, m-1, 0) for a
depth-k potential.  At a fixed working depth d the operator is a sparse
square matrix with exactly one entry per symbol per row: the
predecessors of a word u are the words a u_1..u_{d-1}.  The kernel
stores that structure in factored form (per-symbol weight tables plus
block shapes) rather than as explicit coordinates; the coordinate list
and the dense matrix are materialized on demand for export and for
small-instance cross-checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import check_cylinder_count, cylinder_cap
from .errors import NumericError, ResourceCapError
from .potential import Potential
from .space import SymbolSpace, _word_labels

LOG_SPACE_THRESHOLD = 300.0
LINEAR_VALUE_CEILING = 700.0


def _check_depth(k, depth):
    """Reject working depths too shallow for a depth-k potential."""
    if depth < max(k - 1, 1):
        raise ValueError(f"kernel depth {depth} below the minimum {max(k - 1, 1)} for k={k}")


def _prefix(n, depth, k, rows):
    """Column of the weight table (the depth-(k-1) prefix) of each depth-d row index."""
    return rows // n ** (depth - k + 1)


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


def ones_function(space, depth):
    """The constant function 1 at the given depth."""
    return CylinderFunction(space, depth, np.ones(space.size**depth))


def lift(phi, depth):
    """Re-express a cylinder function at a deeper level (values repeat blockwise)."""
    if depth < phi.depth:
        raise ValueError("lift target must be at least the current depth")
    check_cylinder_count(phi.space.size, depth)
    reps = phi.space.size ** (depth - phi.depth)
    return CylinderFunction(phi.space, depth, np.repeat(phi.values, reps))


@dataclass(frozen=True, eq=False)
class TransferKernel:
    """Square realization of the operator on depth-d cylinder vectors.

    The matrix M satisfies M[u, v] = w_{v_1} * exp(f(v_1 u)) when
    v_2..v_d = u_1..u_{d-1} and is zero otherwise: exactly one entry
    per symbol per row.  It is never stored; each product is one
    broadcast numpy expression over the per-symbol weight tables.

    Index conventions (canonical word order, n symbols, working depth
    d, potential depth k):

      * ``ew[a, m]`` = w_a * exp(f(a m)) over depth-(k-1) prefixes m,
        and ``log_ew`` its logarithm.
      * A row u splits as (q, r): its first d-1 symbols and its last
        symbol.  Its predecessor by symbol a is the word a q, at index
        a * n**(d-1) + q, so a vector reshaped to (n, n**(d-1)) holds
        the predecessors of every row along the leading symbol axis.
      * ``blocks`` = (p0, p1, rw) splits q as (q // p1, q % p1) so that
        the weight of row (q, r) is ``ew.reshape(n, p0, rw)[a, q // p1,
        r % rw]``.  Deep kernels (d >= k) have (n**(k-1), n**(d-k), 1):
        the weight reads the first k-1 symbols of q and not r, so a
        forward product is computed once per q and copied to every r.
        The edge depth d = k-1 has (n**(d-1), 1, n): the weight reads
        the whole row.
      * ``ew_adj`` (edge depth only) is ``ew`` in (r, a, q) order, so
        that the adjoint reduces over its leading r axis.
    """

    space: SymbolSpace
    potential: Potential
    depth: int
    ew: np.ndarray
    log_ew: np.ndarray
    blocks: tuple
    ew_adj: np.ndarray

    @property
    def size(self):
        return self.space.size**self.depth

    @property
    def nnz(self):
        return self.space.size ** (self.depth + 1)

    @property
    def product_size(self):
        """Entries in the broadcast of one product: n**d, or n**(d+1) at the edge depth."""
        return self.space.size * math.prod(self.blocks)

    def _by_predecessor(self, table, x):
        """Row weights and predecessor values, broadcast to (n, p0, p1, rw)."""
        n = self.space.size
        p0, p1, rw = self.blocks
        return table.reshape(n, p0, 1, rw), np.asarray(x, dtype=float).reshape(n, p0, p1, 1)

    def _spread(self, total):
        """Copy a (p0, p1, rw) result to all n last symbols of each row."""
        return np.repeat(total.reshape(-1), self.space.size // self.blocks[2])

    def matvec(self, x):
        weights, pred = self._by_predecessor(self.ew, x)
        return self._spread((weights * pred).sum(axis=0))

    def log_matvec(self, lx):
        log_weights, log_pred = self._by_predecessor(self.log_ew, lx)
        terms = log_weights + log_pred
        peak = terms.max(axis=0)
        with np.errstate(invalid="ignore"):
            total = peak + np.log(np.exp(terms - peak).sum(axis=0))
        # a row whose largest term is not finite (all terms -inf) is -inf
        return self._spread(np.where(np.isfinite(peak), total, -np.inf))

    def tmatvec(self, x):
        """Adjoint product: (M^T x)[v] = sum_u M[u, v] x[u]."""
        n = self.space.size
        rows = np.asarray(x, dtype=float).reshape(-1, n)
        if self.ew_adj is None:
            # the weight of row (q, r) does not depend on r: sum over r first
            p0, p1, _ = self.blocks
            return (self.ew.reshape(n, p0, 1) * rows.sum(axis=1).reshape(p0, p1)).reshape(-1)
        return (self.ew_adj * rows.T[:, None, :]).sum(axis=0).reshape(-1)

    def _prefix(self, rows):
        """Column of ``ew`` (the depth-(k-1) prefix) for each row index."""
        return _prefix(self.space.size, self.depth, self.potential.depth, rows)

    def to_dense(self):
        """Materialize M as a dense array (small instances only)."""
        nd = self.size
        if nd * nd > cylinder_cap():
            raise ResourceCapError(f"dense {nd}x{nd} kernel exceeds the cylinder cap")
        n = self.space.size
        npred = nd // n
        rows = np.arange(nd)
        dense = np.zeros((nd, nd))
        for a in range(n):
            dense[rows, a * npred + rows // n] = self.ew[a, self._prefix(rows)]
        return dense

    def export_coo(self, stream):
        """Write the coordinate list as text lines: row-word col-word value.

        Rows appear in canonical order, the entries of each row in
        symbol order; values carry 17 significant digits.
        """
        n = self.space.size
        npred = self.size // n
        labels = _word_labels(self.space, self.depth)
        for i, u in enumerate(labels):
            m = self._prefix(i)
            for a in range(n):
                v = labels[a * npred + i // n]
                stream.write(f"{u} {v} {self.ew[a, m]:.17g}\n")


def build_kernel(f, depth):
    """Build the depth-d square kernel of the operator for potential f.

    Requires depth >= max(k - 1, 1) so that prepending one symbol to a
    depth-d word determines the potential value.
    """
    k = f.depth
    n = f.space.size
    _check_depth(k, depth)
    check_cylinder_count(n, depth)
    check_cylinder_count(n, k)
    table = f.table.reshape(n, n ** (k - 1))
    ew = f.space.weights[:, None] * np.exp(table)
    log_ew = np.log(f.space.weights)[:, None] + table
    if depth >= k:
        blocks = (n ** (k - 1), n ** (depth - k), 1)
        ew_adj = None
    else:
        blocks = (n ** (depth - 1), 1, n)
        ew_adj = np.ascontiguousarray(ew.reshape(n, -1, n).transpose(2, 0, 1))
    for arr in (ew, log_ew, ew_adj):
        if arr is not None:
            arr.flags.writeable = False
    return TransferKernel(
        space=f.space,
        potential=f,
        depth=depth,
        ew=ew,
        log_ew=log_ew,
        blocks=blocks,
        ew_adj=ew_adj,
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

    def quotient(self, kernel):
        """The quotient Q of a kernel over this partition: M V = V Q."""
        if kernel.depth != self.depth:
            raise ValueError(f"depth-{kernel.depth} kernel, depth-{self.depth} partition")
        n = kernel.space.size
        c = self.size
        rows = np.broadcast_to(np.arange(c), (n, c))
        preds = np.arange(n)[:, None] * (kernel.size // n) + self.reps // n
        q = np.zeros((c, c))
        np.add.at(q, (rows, self.labels[preds]), kernel.ew[:, kernel._prefix(self.reps)])
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
    values, count = _compress(f.table)
    columns, count = _column_classes(values.reshape(n, -1), count)
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
    log(L^n 1) for n = 1..steps, and log(L^steps 1).  The products run
    in log space when asked to or when steps * sup_norm(f) exceeds 300;
    otherwise they run linearly, rescaled by the peak at every step.
    """
    kernel = build_kernel(f, depth)
    tops = np.empty(steps)
    bottoms = np.empty(steps)
    if log_space or steps * f.sup_norm > LOG_SPACE_THRESHOLD:
        lv = np.zeros(kernel.size)
        for n in range(steps):
            lv = kernel.log_matvec(lv)
            tops[n] = lv.max()
            bottoms[n] = lv.min()
        return tops, bottoms, lv
    v = np.ones(kernel.size)
    log_scale = 0.0
    for n in range(steps):
        v = kernel.matvec(v)
        peak = v.max()
        v /= peak
        log_scale += math.log(peak)
        tops[n] = log_scale
        bottoms[n] = log_scale + math.log(v.min())
    return tops, bottoms, log_scale + np.log(v)


def iterate_one(f, n, depth, return_log=False):
    """n applications of the operator to the constant function 1, at a fixed depth.

    Computed by n sparse products.  When n * sup_norm(f) exceeds 300 the
    whole iteration runs in log space; if the result then has entries
    too large for a double, linear values cannot be returned and the
    caller should ask for logs (``return_log=True``).
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
