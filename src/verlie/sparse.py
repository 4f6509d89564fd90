"""Sparse int64 matrices over F_p, or over Z, in row-major COO form.

A `Coo` keeps the nonzero entries of a matrix as three int64 arrays sorted by
(row, column), one entry per position, so equal matrices have equal arrays.
Products follow Gustavson ("Two fast algorithms for sparse matrices", 1978)
by expansion: every pair of entries that meet at an inner index gives one
term, and the terms are summed by output position after one sort.  Operands
reduced mod p give sums of at most `inner dimension` terms below (p-1)^2,
the bound fp.check_modulus keeps far from int64 overflow, and every product
is reduced mod p before it is used again.  With p = None the arithmetic is
exact over Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 22  # terms `contract` expands at once, unless one row needs more


@dataclass(frozen=True, eq=False)
class Coo:
    """The nonzero entries of a matrix, sorted by (row, column)."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Coo) and self.shape == other.shape and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col) and np.array_equal(self.data, other.data))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row, self.col] = self.data
        return out

    def held_rows(self) -> np.ndarray:
        """The indices of the rows holding an entry, ascending."""
        return self.row[_starts(self.row)]

    def nonzero_rows(self) -> np.ndarray:
        """The rows holding an entry, densified, in row order."""
        rows = self.held_rows()
        out = np.zeros((len(rows), self.shape[1]), dtype=np.int64)
        out[np.searchsorted(rows, self.row), self.col] = self.data
        return out

    def take_rows(self, rows) -> Coo:
        """Row r of the result is row rows[r] of this matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        at, entry = span_pairs(*spans(self, rows))
        return Coo(at, self.col[entry], self.data[entry], (len(rows), self.shape[1]))

    def scale_rows(self, c, p: int) -> Coo:
        """diag(c) @ self mod p."""
        data = self.data * np.asarray(c, dtype=np.int64)[self.row] % p
        keep = data != 0
        return Coo(self.row[keep], self.col[keep], data[keep], self.shape)

    def transpose(self) -> Coo:
        return from_entries(self.col, self.row, self.data, self.shape[::-1])

    def dot(self, b) -> np.ndarray:
        """self @ b for a dense b, exact in int64 and not reduced."""
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros((self.shape[0], *b.shape[1:]), dtype=np.int64)
        if self.nnz:
            terms = self.data.reshape(-1, *[1] * (b.ndim - 1)) * b[self.col]
            starts = _starts(self.row)
            out[self.row[starts]] = np.add.reduceat(terms, starts, axis=0)
        return out


def _starts(keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values begins in a sorted array."""
    first = np.ones(min(len(keys), 1), dtype=bool)  # an empty array has no run
    return np.flatnonzero(np.concatenate((first, keys[1:] != keys[:-1])))


def distinct(values) -> np.ndarray:
    """The distinct values in ascending order.  A plain np.unique would do,
    but it imports numpy.ma on its first call."""
    keys = np.sort(np.ravel(values))
    return keys[_starts(keys)]


def spans(m: Coo, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of each of the rows start in m, and how many there are."""
    lo = np.searchsorted(m.row, rows)
    return lo, np.searchsorted(m.row, rows, side="right") - lo


def span_pairs(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) for every t in lo[s] : lo[s] + counts[s], s ascending and t
    ascending within each s."""
    s = np.repeat(np.arange(len(lo)), counts)
    t = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    t += np.arange(len(s))
    return s, t


def cuts(counts: np.ndarray, budget: int, group: np.ndarray | None = None) -> list[int]:
    """Bounds 0 = b_0 < ... < b_m = len(counts) of runs of consecutive items
    whose counts sum to about `budget`, never parting items of equal
    `group` (an ascending array, if given): one run if everything fits, else
    a run begins at each item (first of its group) whose offset
    sum(counts[:b]) is the first to reach a new multiple of budget.  So a
    run sums to less than budget plus the counts of its last item or group."""
    if counts.sum() <= budget:
        return [0, len(counts)]
    starts = np.arange(len(counts)) if group is None else _starts(group)
    _, opening = np.unique((np.cumsum(counts) - counts)[starts] // budget, return_index=True)
    return [*starts[opening].tolist(), len(counts)]


def sum_by_key(keys: np.ndarray, vals: np.ndarray, p: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order with the sums of their values,
    mod p (exact over Z if p is None); keys whose sum vanishes are dropped."""
    if not len(keys):
        return keys.astype(np.int64), vals.astype(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    starts = _starts(keys)
    sums = np.add.reduceat(vals[order], starts)
    if p is not None:
        sums %= p
    keep = sums != 0
    return keys[starts[keep]], sums[keep]


def contract(group, join, data, right: Coo, key, p: int | None) -> tuple[np.ndarray, np.ndarray]:
    """sum_by_key of the terms data[s] * right.data[t] over every left entry s
    and every entry t of row join[s] of `right`, at the keys key(s, t).

    group[s] is ascending, and terms of different groups never share a key,
    so the left entries are expanded a few whole groups at a time."""
    lo, counts = spans(right, join)
    bounds = cuts(counts, _CHUNK, group)
    parts = []
    for first, last in zip(bounds, bounds[1:]):
        s, t = span_pairs(lo[first:last], counts[first:last])
        s += first
        parts.append(sum_by_key(key(s, t), data[s] * right.data[t], p))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([k for k, _ in parts]), np.concatenate([v for _, v in parts])


def from_keys(keys: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> Coo:
    """The matrix with entry vals[i] at the row-major position keys[i]; the
    keys ascend."""
    row, col = np.divmod(keys, shape[1])
    return Coo(row, col, vals, shape)


def from_entries(row, col, data, shape: tuple[int, int], p: int | None = None) -> Coo:
    """The matrix with the given entries, repeated positions summed."""
    row, col, data = (np.asarray(x, dtype=np.int64) for x in (row, col, data))
    return from_keys(*sum_by_key(row * shape[1] + col, data, p), shape)


def frozen(a):
    """A copy of an int64 array, or of a Coo's arrays, held in a bytes buffer:
    read-only for good, since WRITEABLE cannot be set on it again."""
    if isinstance(a, Coo):
        return Coo(frozen(a.row), frozen(a.col), frozen(a.data), a.shape)
    a = np.asarray(a, dtype=np.int64)
    return np.frombuffer(a.tobytes(), np.int64).reshape(a.shape)


def from_dense(a) -> Coo:
    a = np.asarray(a, dtype=np.int64)
    row, col = np.nonzero(a)
    return Coo(row, col, a[row, col], a.shape)


def product(a: Coo, b: Coo, p: int | None) -> Coo:
    """a @ b, reduced mod p."""
    width = b.shape[1]
    keys, vals = contract(a.row, a.col, a.data, b, lambda s, t: a.row[s] * width + b.col[t], p)
    return from_keys(keys, vals, (a.shape[0], width))


def vstack(mats) -> Coo:
    offsets = np.cumsum([0] + [m.shape[0] for m in mats])
    return Coo(np.concatenate([m.row + off for m, off in zip(mats, offsets)]),
               np.concatenate([m.col for m in mats]), np.concatenate([m.data for m in mats]),
               (int(offsets[-1]), mats[0].shape[1]))


def combine(terms, p: int | None) -> Coo:
    """sum of c * m over the (c, m) in terms, mod p (exact over Z if p is None)."""
    return from_entries(np.concatenate([m.row for _, m in terms]), np.concatenate([m.col for _, m in terms]),
                        np.concatenate([c * m.data for c, m in terms]), terms[0][1].shape, p)
