"""Exact linear algebra over the prime field F_p.

Matrices and vectors are plain numpy int64 arrays with entries reduced to
[0, p).  Every routine is deterministic: pivots are taken in the leftmost
column first, smallest row index first, and free variables are set to zero,
so outputs are reproducible bit for bit.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from . import sparse
from .errors import BadModulus

Array = np.ndarray


def normalize(a, p: int) -> Array:
    """Coerce to an int64 array with entries reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def inverses(a: Array, p: int) -> Array:
    """Elementwise a^(p-2) mod p (the inverse of a nonzero residue), from a^1
    since p - 2 is odd; every product is of two residues, so it stays below p^2."""
    out = base = a % p
    e = (p - 2) >> 1
    while e:
        base = base * base % p
        if e & 1:
            out = out * base % p
        e >>= 1
    return out


def check_modulus(p: int, dim: int = 1) -> None:
    """Raise BadModulus unless p is an odd prime with dim·(p−1)² < 2^50.

    An int64 product of dim-sized operands accumulates up to dim·(p−1)²; the
    bound 2^50 leaves a factor 2^13 of headroom below 2^63 for the exact int64
    sums built on such products (a key of the Jacobi checks sums at most
    3·dim products of residues, each with a coefficient of absolute value at
    most 3, so below 9·2^50 < 2^54).
    """
    if p < 3 or p % 2 == 0:
        raise BadModulus(f"p = {p} is not an odd prime")
    if dim * (p - 1) ** 2 >= 1 << 50:
        raise BadModulus(f"p = {p} is too large for dimension {dim}: dim*(p-1)^2 must stay below 2^50")
    if any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        raise BadModulus(f"p = {p} is not an odd prime")


def matmul(a, b, p: int) -> Array:
    """a @ b mod p for operands reduced mod p, in int64.

    Exact: every partial sum is an integer below inner·(p−1)² < 2^50.
    Raises BadModulus when inner·(p−1)² reaches 2^50.  On the subspace
    products of the table's closures numpy's int64 loop is as fast as
    float64 BLAS, without float copies of both operands or BLAS buffers.
    """
    inner = np.shape(a)[-1]
    if inner * (p - 1) ** 2 >= 1 << 50:
        raise BadModulus(f"p = {p} is too large for an inner dimension {inner}: inner*(p-1)^2 must stay below 2^50")
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def rref(m, p: int) -> tuple[Array, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_columns).  Zero rows are moved to the bottom; pivot
    entries are scaled to 1 and are the only nonzero entries in their column.
    """
    a = normalize(m, p)  # a fresh array
    if a.ndim != 2:
        raise ValueError("rref expects a matrix")
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * inverses(a[r, c], p) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref_batch(stack, p: int) -> tuple[Array, Array]:
    """Reduced row echelon form of every matrix of a (blocks, rows, cols)
    stack at once, one column step for all blocks.

    Returns (R, pivots): R[b] is rref(stack[b])[0], and pivots[b, i] is the
    pivot column of row i of R[b], or -1 past its rank.  Each slice takes
    the pivots of rref, each in the first row still without one, and its rows
    are put in pivot order at the end, so it equals rref's output exactly;
    zero-padded rows and columns never take a pivot.  Every product is of two
    residues and is reduced mod p before the next, so no intermediate exceeds p^2.
    """
    a = normalize(stack, p)  # a fresh array
    if a.ndim != 3:
        raise ValueError("rref_batch expects a (blocks, rows, cols) stack")
    n, rows, cols = a.shape
    held = np.full((n, rows), cols, dtype=np.int64)  # the pivot column of each row, cols while it holds none
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & (held == cols)
        hit = candidates.any(axis=1).nonzero()[0]
        if not hit.size:
            continue
        src = candidates[hit].argmax(axis=1)
        top = a[hit, src]
        top = top * inverses(top[:, c], p)[:, None] % p
        col = a[hit, :, c]
        # the pivot row is zero left of c, so only columns c.. change; it clears itself and is put back scaled
        at = slice(None) if hit.size == n else hit
        a[at, :, c:] = (a[at, :, c:] - col[:, :, None] * top[:, None, c:]) % p
        a[hit, src] = top
        held[hit, src] = c
        if (held < cols).all():
            break
    each, order = np.arange(n)[:, None], held.argsort(axis=1, kind="stable")
    pivots = held[each, order]
    pivots[pivots == cols] = -1
    return a[each, order], pivots


def _entries(m) -> tuple[Array, Array, Array]:
    """Row, column and value of every stored entry of a sparse matrix, or of
    every nonzero of a dense one."""
    if isinstance(m, sparse.Coo):
        return m.row, m.col, m.data
    row, col = np.nonzero(m)
    return row, col, m[row, col]


def components(m) -> Array:
    """Connected components of the graph of m + m^T on the indices of the
    square matrix m: entry i is the number of i's component, components
    numbered by their smallest index (min-label propagation with pointer
    jumping)."""
    row, col, _ = _entries(m)
    u, v = np.concatenate([row, col]), np.concatenate([col, row])
    labels = np.arange(m.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, u, labels[v])
        new = new[new]
        if (new == labels).all():
            smallest = labels == np.arange(len(labels))
            return (smallest.cumsum() - 1)[labels]
        labels = new


def slots(blocks: Array, count: int) -> Array:
    """Position of each index within its block, in index order."""
    order = blocks.argsort(kind="stable")
    sizes = np.bincount(blocks, minlength=count)
    out = np.empty_like(blocks)
    out[order] = np.arange(len(blocks)) - (sizes.cumsum() - sizes).repeat(sizes)
    return out


def block_table(blocks: Array) -> Array:
    """(blocks, size) table of a partition: row b lists the indices in block
    b in ascending order, padded with -1."""
    count = int(blocks.max(initial=-1)) + 1
    table = np.full((count, np.bincount(blocks, minlength=1).max()), -1, dtype=np.int64)
    table[blocks, slots(blocks, count)] = np.arange(len(blocks))
    return table


def unique_rows(a: Array) -> tuple[Array, Array]:
    """The distinct rows of a 2-d array, in the byte order of their np.void
    views, by one stable argsort of the views (np.unique costs several times
    more per call): the index of the first occurrence of each, and for every
    row the number of its distinct row in that list."""
    a = np.ascontiguousarray(a)
    if not a.shape[1]:  # every row is the empty row
        return np.arange(min(len(a), 1)), np.zeros(len(a), dtype=np.int64)
    order = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel().argsort(kind="stable")
    new = np.ones(len(a), dtype=bool)
    new[1:] = (a[order[1:]] != a[order[:-1]]).any(axis=1)
    kind = np.empty(len(a), dtype=np.int64)
    kind[order] = new.cumsum() - 1
    return order[new], kind


def kernel_basis(m, p: int) -> Array:
    """Basis of the right kernel of m, one vector per row.

    Deterministic: each basis vector has a 1 in one free column (ascending),
    zeros in the other free columns, and pivot entries filled by back
    substitution.
    """
    a = normalize(m, p)
    r, pivots = rref(a, p)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[: len(pivots)][:, free].T % p
    return basis


def inverse(m, p: int) -> Array:
    """The inverse of one square matrix, found by the blocks of its row/column graph."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("inverse expects a square matrix")
    if (out := inverse_rows(sparse.from_dense(normalize(a, p).T), np.arange(len(a)), p)) is None:
        raise ValueError("matrix is singular")
    return out


def _block_split(a: sparse.Coo) -> tuple:
    """The blocks of the row/column graph of a sparse matrix A: each row's
    block and slot, each column's block, the rows and the columns of A in
    each block, and each block of A^T zero-padded, both in index order."""
    m, n = a.shape
    blocks = components(sparse.Coo(a.row, m + a.col, a.data, (m + n, m + n)))  # nodes: the rows, then the columns
    rows, cols, count = blocks[:m], blocks[m:], int(blocks.max(initial=-1)) + 1
    heights, widths = np.bincount(rows, minlength=count), np.bincount(cols, minlength=count)
    local = np.zeros((count, widths.max(initial=0), heights.max(initial=0)), dtype=np.int64)
    row_slots = slots(rows, count)
    local[rows[a.row], slots(cols, count)[a.col], row_slots[a.row]] = a.data
    return rows, row_slots, cols, heights, widths, local


def independent_rows(a: sparse.Coo, p: int) -> bool:
    """Whether the rows of a sparse matrix are independent: no block of its
    row/column graph has more rows than columns (a zero row has none), and
    each distinct block of several rows has full rank, found by one
    elimination."""
    _, _, _, heights, widths, local = _block_split(a)
    if (heights > widths).any():
        return False
    if not (several := (heights > 1).nonzero()[0]).size:
        return True
    first, _ = unique_rows(np.hstack([heights[several, None], local[several].reshape(len(several), -1)]))
    pivots = rref_batch(local[several[first]], p)[1]
    return bool(np.array_equal((pivots >= 0).sum(axis=1), heights[several[first]]))


def inverse_rows(a: sparse.Coo, rows, p: int) -> Array | None:
    """Rows `rows` of the inverse of M = A^T, A a square sparse matrix, found
    by the blocks of its row/column graph, each distinct block (of one size
    and one matrix) inverted once; None unless every block is square and
    invertible."""
    block_of, slot, cols, sizes, widths, local = _block_split(a)
    if not np.array_equal(widths, sizes):
        return None
    first, kind = unique_rows(np.hstack([sizes[:, None], local.reshape(len(local), local.shape[1] * local.shape[2])]))
    if (inverses := inverse_batch(local[first], sizes[first], p)) is None:
        return None
    rows = np.asarray(rows, dtype=np.int64)
    block = block_of[rows]
    local, where = inverses[kind[block], slot[rows]], block_table(cols)[block]
    out = np.zeros((len(rows), a.shape[0]), dtype=np.int64)
    row, col = np.nonzero(where >= 0)
    out[row, where[row, col]] = local[row, col]
    return out


def inverse_batch(stack, sizes, p: int) -> Array | None:
    """Inverses of the top-left sizes[b] x sizes[b] blocks of a zero-padded
    (blocks, n, n) stack, padded with the identity; None if one is singular.

    Each block is padded with the identity and eliminated beside I, so
    [M_b | I] reduces to [I | M_b^-1], and rref_batch stops after the left
    half exactly when every block is invertible.
    """
    stack = normalize(stack, p)
    count, n, _ = stack.shape
    slot = np.arange(n)
    block, pad = np.nonzero(slot >= np.asarray(sizes)[:, None])
    stack[block, pad, pad] = 1
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), stack.shape)
    r, pivots = rref_batch(np.concatenate([stack, eye], axis=2), p)
    if not np.array_equal(pivots, np.broadcast_to(slot, pivots.shape)):
        return None
    return r[:, :, n:].copy()

