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


def inv_scalar(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod p")
    return pow(a, p - 2, p)


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
    """a @ b mod p for operands reduced mod p, through float64 BLAS.

    Exact: every partial sum is an integer below inner·(p−1)² < 2^50 < 2^53,
    so no summation order rounds.  Raises BadModulus when inner·(p−1)²
    reaches 2^50.
    """
    inner = np.shape(a)[-1]
    if inner * (p - 1) ** 2 >= 1 << 50:
        raise BadModulus(f"p = {p} is too large for an inner dimension {inner}: inner*(p-1)^2 must stay below 2^50")
    return (np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)).astype(np.int64) % p


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
        a[r] = (a[r] * inv_scalar(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _inverses(a: Array, p: int) -> Array:
    """Elementwise a^(p-2) mod p (the inverse of a nonzero residue); every
    product is of two residues, so it stays below p^2."""
    out = np.ones_like(a)
    base, e = a % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def rref_batch(stack, p: int) -> tuple[Array, Array]:
    """Reduced row echelon form of every matrix of a (blocks, rows, cols)
    stack at once, one column step for all blocks.

    Returns (R, pivots): R[b] is rref(stack[b])[0], and pivots[b, i] is the
    pivot column of row i of R[b], or -1 past its rank.  Each slice follows
    the pivot order of rref, so it equals rref's output exactly; zero-padded
    rows and columns never take a pivot.  Every product is of two residues
    and is reduced mod p before the next, so no intermediate exceeds p^2.
    """
    a = normalize(stack, p)  # a fresh array
    if a.ndim != 3:
        raise ValueError("rref_batch expects a (blocks, rows, cols) stack")
    n, rows, cols = a.shape
    pivots = np.full((n, rows), -1, dtype=np.int64)
    rank = np.zeros(n, dtype=np.int64)
    below = np.arange(rows)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & (below >= rank[:, None])
        hit = np.flatnonzero(candidates.any(axis=1))
        if not hit.size:
            continue
        r, src = rank[hit], candidates[hit].argmax(axis=1)
        top = a[hit, src]
        a[hit, src] = a[hit, r]
        top = top * _inverses(top[:, c], p)[:, None] % p
        a[hit, r] = top
        col = a[hit, :, c]
        col[np.arange(hit.size), r] = 0
        # the pivot row is zero left of c, so only columns c.. change
        at = slice(None) if hit.size == n else hit
        a[at, :, c:] = (a[at, :, c:] - col[:, :, None] * top[:, None, c:]) % p
        pivots[hit, r] = c
        rank[hit] += 1
        if rank.min() == rows:
            break
    return a, pivots


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
        if np.array_equal(new, labels):
            smallest = labels == np.arange(len(labels))
            return (np.cumsum(smallest) - 1)[labels]
        labels = new


def slots(blocks: Array, count: int) -> Array:
    """Position of each index within its block, in index order."""
    order = np.argsort(blocks, kind="stable")
    sizes = np.bincount(blocks, minlength=count)
    out = np.empty_like(blocks)
    out[order] = np.arange(len(blocks)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return out


def block_table(blocks: Array) -> Array:
    """(blocks, size) table of a partition: row b lists the indices in block
    b in ascending order, padded with -1."""
    count = int(blocks.max(initial=-1)) + 1
    table = np.full((count, np.bincount(blocks, minlength=1).max()), -1, dtype=np.int64)
    table[blocks, slots(blocks, count)] = np.arange(len(blocks))
    return table


def block_stack(ms, row_blocks: Array, col_blocks: Array) -> Array:
    """The diagonal blocks of the matrices ms as one zero-padded
    (len(ms)*blocks, rows, cols) stack, matrix-major: slice k*blocks + b holds
    the rows and columns of block b of ms[k], in their order in ms[k].
    Raises unless every nonzero joins a row and a column of one block."""
    count = int(max(row_blocks.max(initial=-1), col_blocks.max(initial=-1))) + 1
    row_slots, col_slots = slots(row_blocks, count), slots(col_blocks, count)
    out = np.zeros((len(ms) * count, np.bincount(row_blocks, minlength=1).max(),
                    np.bincount(col_blocks, minlength=1).max()), dtype=np.int64)
    for k, m in enumerate(ms):
        row, col, data = _entries(m)
        block = row_blocks[row]
        if not np.array_equal(block, col_blocks[col]):
            raise ValueError("matrix is not block diagonal in the given blocks")
        out[k * count + block, row_slots[row], col_slots[col]] = data
    return out


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
    a = normalize(m, p)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse expects a square matrix")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


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


def powers(m, k: int, p: int) -> list[sparse.Coo]:
    """[I, m, ..., m^k] mod p as sparse matrices (derivations like ad e have
    a few nonzeros per column)."""
    a = sparse.from_dense(normalize(m, p))
    out = [sparse.identity(a.shape[0])]
    for _ in range(k):
        out.append(sparse.product(out[-1], a, p))
    return out
