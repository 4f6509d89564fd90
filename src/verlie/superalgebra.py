"""Finite-dimensional superalgebras over F_p given by sparse structure constants.

A ModularSuperAlgebra is a basis with parity labels and a sparse tensor
C(i,j,k) over F_p; Lie algebras are the all-even case.  Structural
operations (generated subalgebras, ideal closures, quotients) all work on
subspaces kept in reduced echelon form so that equality and containment are
exact and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import fp, sparse
from .errors import DimensionTooLarge, InternalError, NotAnIdeal, NotParityHomogeneous

Constants = dict[tuple[int, int], dict[int, int]]


@dataclass(frozen=True, eq=False)
class ModularSuperAlgebra:
    p: int
    dim: int
    parity: np.ndarray  # 0/1 per basis vector
    tensor: sparse.Coo  # L[i, k*dim+j] = C(i,j,k), reduced: row i is ad(b_i), flattened
    labels: tuple[str, ...] | None = None  # any sequence, stored as a tuple
    gens: Mapping[str, np.ndarray] | None = None  # generator name -> coordinate vector, stored read-only
    origin: object | None = None  # construction-time metadata, not serialized
    # check name -> Report of check_super_skew / check_super_jacobi / check_odd_cubes, kept because
    # the tensor and parity cannot change; not compared, printed or serialized
    _reports: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        fp.check_modulus(self.p, self.dim)
        if self.dim**4 > 1 << 63:  # the Jacobi checks key (i, j, k, l) as one int64 below dim^4
            raise DimensionTooLarge(f"dim = {self.dim} is too large: dim^4 must not exceed 2^63")
        parity = np.array(self.parity, dtype=np.int64)  # a copy, so no caller can write to it
        for a in (parity, self.tensor.row, self.tensor.col, self.tensor.data):
            a.setflags(write=False)
        object.__setattr__(self, "parity", parity)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if self.gens is not None:
            object.__setattr__(self, "gens", MappingProxyType(dict(self.gens)))
        if self.parity.shape != (self.dim,):
            raise ValueError("parity length must equal dim")
        if self.tensor.shape != (self.dim, self.dim * self.dim):
            raise ValueError("tensor shape must be (dim, dim*dim)")

    def __eq__(self, other) -> bool:
        """Same field, basis parities, structure constants, labels and
        generator vectors (origin is not compared)."""
        if not isinstance(other, ModularSuperAlgebra):
            return NotImplemented
        gens, other_gens = self.gens or {}, other.gens or {}
        return (
            self.p == other.p
            and self.dim == other.dim
            and np.array_equal(self.parity, other.parity)
            and self.tensor == other.tensor
            and self.labels == other.labels
            and gens.keys() == other_gens.keys()
            and all(np.array_equal(vec, other_gens[name]) for name, vec in gens.items())
        )

    @classmethod
    def from_entries(cls, p: int, parity, i, j, k, c, labels=None, gens=None, origin=None) -> "ModularSuperAlgebra":
        """The algebra with C(i,j,k) the sum mod p of the c given at (i, j, k);
        zeros are dropped.  ValueError if an index lies outside [0, dim)."""
        dim = len(parity)
        fp.check_modulus(p, dim)  # before c % p
        i, j, k = _indices(dim, i, j, k)
        c = np.asarray(c, dtype=np.int64)
        tensor = sparse.from_entries(i, k * dim + j, c % p, (dim, dim * dim), p)
        return cls(p, dim, parity, tensor, labels, gens, origin)

    @classmethod
    def from_products(cls, products: sparse.Coo, p: int, parity, labels=None, gens=None) -> "ModularSuperAlgebra":
        """The algebra whose bracket [b_a, b_b] is row a*dim+b of the reduced
        sparse `products`: entry (a*n+b, k) moves to row a, column k*n+b."""
        n = len(parity)
        a, b = np.divmod(products.row, n)
        keys = (a * n + products.col) * n + b
        order = np.argsort(keys)
        return cls(p, n, parity, sparse.from_keys(keys[order], products.data[order], (n, n * n)), labels, gens)

    @property
    def constants(self) -> Constants:
        """(i, j) -> {k: C(i,j,k)} for every nonzero ordered pair, keys in
        (i, j) order and components in k order: a new dict, so writing to it
        leaves the algebra as it is."""
        out: Constants = {}
        for i, j, k, c in zip(*(x.tolist() for x in self._entries())):
            out.setdefault((i, j), {})[k] = c
        return out

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """i, j, k and C(i,j,k) of every nonzero constant, sorted by (i, j, k)."""
        t = self.tensor
        k, j = np.divmod(t.col, self.dim)
        order = np.lexsort((k, j, t.row))
        return t.row[order], j[order], k[order], t.data[order]

    # -- bracket machinery ------------------------------------------------

    def ad(self, v) -> np.ndarray:
        """Dense matrix of x -> [v, x]."""
        return self.sparse_ad(v).toarray()

    def sparse_ad(self, v) -> sparse.Coo:
        """Sparse matrix of x -> [v, x]."""
        row = sparse.from_dense(fp.normalize(v, self.p).reshape(1, -1))
        flat = sparse.product(row, self.tensor, self.p)  # column k*dim + j: [v, b_j]_k
        return sparse.from_keys(flat.col, flat.data, (self.dim, self.dim))

    def brackets(self, u, v) -> sparse.Coo:
        """All brackets of the rows of u with the rows of v: a sparse
        (len(u)*len(v), dim) matrix whose row a*len(v)+b is [u_a, v_b].

        Two sparse products: u @ L gives [u_a, b_j]_k at row a, column
        k*dim+j, and [u_a, v_b]_k sums it against v's coordinates j.
        Reducing mod p in between keeps each sum below dim*(p-1)^2, the bound
        fp.check_modulus enforces.  u and v may be dense or sparse (sparse
        rows are taken as already reduced).
        """
        d, p = self.dim, self.p
        u, v = (x if isinstance(x, sparse.Coo) else sparse.from_dense(fp.normalize(x, p)) for x in (u, v))
        n = v.shape[0]
        left = sparse.product(u, self.tensor, p)
        k, j = np.divmod(left.col, d)
        vt = v.transpose()  # row j: the coordinates v_bj
        keys, vals = sparse.contract(left.row, j, left.data, vt,
                                     lambda s, t: (left.row[s] * n + vt.col[t]) * d + k[s], p)
        return sparse.from_keys(keys, vals, (u.shape[0] * n, d))

    def bracket(self, u, v) -> np.ndarray:
        """[u, v]: the one row of brackets(u, v)."""
        return self.brackets(np.reshape(u, (1, -1)), np.reshape(v, (1, -1))).toarray()[0]

    def parities(self, rows) -> np.ndarray:
        """The parity of each row of a matrix reduced mod p: 0 or 1, or -1
        where the row mixes parities; a zero row reads 0."""
        odd = rows[:, self.parity == 1].any(axis=1)
        return np.where(odd & rows[:, self.parity == 0].any(axis=1), -1, odd.astype(np.int64))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """The constants as [i, j, k, C(i,j,k)] for i <= j, sorted by (i, j, k);
        from_json_dict restores the pairs i > j by super skew symmetry."""
        entries = np.stack(self._entries(), axis=1)
        return {
            "p": self.p,
            "dim": self.dim,
            "parity": [int(x) for x in self.parity],
            "labels": None if self.labels is None else list(self.labels),
            "constants": entries[entries[:, 0] <= entries[:, 1]].tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModularSuperAlgebra":
        p = int(data["p"])
        dim = int(data["dim"])
        parity = np.asarray(data["parity"], dtype=np.int64)
        if parity.shape != (dim,):
            raise ValueError("parity length must equal dim")
        quads = np.array(data["constants"], dtype=object).reshape(-1, 4)
        i, j, k = _indices(dim, *quads[:, :3].T)  # before their parities are read
        c = (quads[:, 3] % p).astype(np.int64)  # as Python ints, so a coefficient beyond int64 reduces exactly
        # the super-skew mirror [b_j, b_i] = -(-1)^{|i||j|} [b_i, b_j]
        mirror = i != j
        sign = np.where((parity[i] == 1) & (parity[j] == 1), 1, -1)
        return cls.from_entries(p, parity, np.concatenate([i, j[mirror]]), np.concatenate([j, i[mirror]]),
                                np.concatenate([k, k[mirror]]), np.concatenate([c, (sign * c)[mirror]]),
                                labels=data.get("labels"))


def _indices(dim: int, *indices) -> list[np.ndarray]:
    """The indices as int64 arrays; ValueError unless every index lies in
    [0, dim), also for one beyond int64."""
    try:
        out = [np.asarray(x, dtype=np.int64) for x in indices]
    except OverflowError:
        out = None
    if out is None or any(len(x) and (x.min() < 0 or x.max() >= dim) for x in out):
        raise ValueError(f"basis index outside [0, {dim})")
    return out


def superdim(alg: ModularSuperAlgebra) -> tuple[int, int]:
    return int(np.sum(alg.parity == 0)), int(np.sum(alg.parity == 1))


# -- axiom checks ----------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One check's result: whether it passed and, if not, a witness saying
    where.  Its truth value is `ok`."""

    check: str
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _first_key(keys: np.ndarray, vals: np.ndarray, p: int | None) -> int | None:
    """Smallest key whose values sum to nonzero (mod p; over Z if p is None)."""
    keys, _ = sparse.sum_by_key(keys, vals, p)
    return int(keys[0]) if len(keys) else None


def skew_witness(tensor: sparse.Coo, parity, p: int | None):
    """Smallest basis triple (i, j, k), i <= j, at which
    C(i,j,k) = -(-1)^{|i||j|} C(j,i,k) fails, or None.

    The sum C(i,j,k) + (-1)^{|i||j|} C(j,i,k) vanishes at (i,j,k) exactly
    when it does at (j,i,k), so the failures come together and the smallest
    has i <= j.  Each entry C(i,j,k) = c of the tensor adds its share of that
    sum once, at the key of (min(i,j), max(i,j), k): c when i < j,
    (-1)^{|i||j|} c when i > j, and both when i = j; the keys are summed
    exactly in int64.  p=None checks over Z.
    """
    if not tensor.nnz:
        return None
    dim = tensor.shape[0]
    k, j = np.divmod(tensor.col, dim)
    par = np.asarray(parity, dtype=np.int8)
    i, c = tensor.row, tensor.data
    sign = 1 - 2 * (par[i] & par[j])
    weight = np.where(i < j, 1, sign + (i == j))
    key = _first_key((np.minimum(i, j) * dim + np.maximum(i, j)) * dim + k, weight * c, p)
    if key is None:
        return None
    i, rest = divmod(key, dim * dim)
    return (i, *divmod(rest, dim))


def _kept_report(alg: ModularSuperAlgebra, check: str, witness) -> Report:
    """The report of check on alg, computed by witness() on the first call
    and kept on the algebra; witness() returns a failure's witness, or None."""
    if check not in alg._reports:
        found = witness()
        alg._reports[check] = Report(check, found is None, found)
    return alg._reports[check]


def _indexed(found) -> dict | None:
    """A failing basis triple as the witness {i, j, k}."""
    return None if found is None else dict(zip("ijk", found))


def check_super_skew(alg: ModularSuperAlgebra) -> Report:
    """C(i,j,k) = -(-1)^{|i||j|} C(j,i,k) for all triples; a failure's
    witness is the smallest failing (i, j, k) with i <= j.  Runs once per
    algebra."""
    return _kept_report(alg, "super_skew", lambda: _indexed(skew_witness(alg.tensor, alg.parity, alg.p)))


_JACOBI_BUDGET = 1 << 12  # products a Jacobi sum expands per block, give or take one index's (sparse.cuts)


def _quadruple(key: int | None, d: int):
    """(i, j, k, l) of the key ((i*d + j)*d + k)*d + l, or None."""
    if key is None:
        return None
    i, rest = divmod(key, d**3)
    j, rest = divmod(rest, d * d)
    return (i, j, *divmod(rest, d))


def _jacobi_blocks(t: sparse.Coo, p: int | None, weigh):
    """Smallest (i, j, k, l) at which a Jacobi sum is nonzero, or None.

    Every product C(x,y,w) C(w,z,l) of a left entry (an entry of t with
    x <= y) and an entry of t is added once, times weight, at the key of
    (i, j, k, l), where weigh(x, y, z) gives the key (i*d + j)*d + k of the
    triple and the weight, and i = min(x, z).  So the products fall into two
    kinds: those with z >= x, found from the left entry (the entries
    C(w,z,l) sorted by (w, z), a suffix of row w), and those with x > z,
    found from the right entry (the left entries sorted by (w, x), a suffix
    of w's span).  They are expanded in blocks [b, b') of i, in ascending
    order, of about _JACOBI_BUDGET products each.  Each product lands in one
    block, and a block holds every product of its keys, so the first block
    with a nonzero sum holds the smallest failing key: the check stops
    there, and no transient array outgrows a block or the O(nnz) sorted
    positions of the entries.  A tensor whose products fit one budget is one
    block.
    """
    d = t.shape[0]
    k, j = np.divmod(t.col, d)  # C(i,j,k) at entry (i, k*d + j); the entries are sorted by i
    left = np.flatnonzero(t.row <= j)
    w, a = k[left], t.row[left]
    by_wz = np.lexsort((j, t.row))
    rkey = t.row[by_wz] * d + j[by_wz]
    lo_a = np.searchsorted(rkey, w * d + a)  # z >= x
    n_a = np.searchsorted(rkey, (w + 1) * d) - lo_a
    by_wa = np.lexsort((a, w))
    lkey = w[by_wa] * d + a[by_wa]
    del rkey, w  # each O(nnz) array is freed once read, so only positions and counts reach the blocks
    lo_z = np.searchsorted(lkey, t.row * d + j, side="right")  # x > z
    n_z = np.searchsorted(lkey, (t.row + 1) * d) - lo_z
    del lkey
    bounds = sparse.cuts((np.bincount(a, n_a, minlength=d) + np.bincount(j, n_z, minlength=d)).astype(np.int64),
                         _JACOBI_BUDGET)
    by_a, by_z = np.argsort(a, kind="stable"), np.argsort(j, kind="stable")
    a_cuts, z_cuts = np.searchsorted(a[by_a], bounds), np.searchsorted(j[by_z], bounds)
    lo_a, n_a, lo_z, n_z = lo_a[by_a], n_a[by_a], lo_z[by_z], n_z[by_z]
    by_a, by_wa = left[by_a], left[by_wa]  # positions in t
    del left, a
    for (a0, a1), (z0, z1) in zip(pairwise(a_cuts), pairwise(z_cuts)):
        s, u = sparse.span_pairs(lo_a[a0:a1], n_a[a0:a1])  # x in the block, z >= x
        r, v = sparse.span_pairs(lo_z[z0:z1], n_z[z0:z1])  # z in the block, x > z
        xy = np.concatenate([by_a[s + a0], by_wa[v]])  # the entries C(x,y,w)
        zl = np.concatenate([by_wz[u], by_z[r + z0]])  # the entries C(w,z,l)
        del s, u, r, v  # and each block array once read
        keys, weight = weigh(t.row[xy], j[xy], j[zl])
        keys *= d
        keys += k[zl]
        vals = t.data[xy] * weight
        vals *= t.data[zl]
        del xy, zl, weight
        key = _first_key(keys, vals, p)
        if key is not None:
            return _quadruple(key, d)
    return None


def jacobi_witness(t: sparse.Coo, parity, p: int | None):
    """Smallest basis quadruple (i, j, k, l) at which the super Jacobi
    identity fails on a super skew tensor, or None.

    J(i,j,k) = (-1)^{|i||k|}[[b_i,b_j],b_k] + (-1)^{|j||i|}[[b_j,b_k],b_i]
    + (-1)^{|k||j|}[[b_k,b_i],b_j] must vanish for every ordered triple.  Each
    term [[b_x,b_y],b_z]_l is a sum of products C(x,y,w) C(w,z,l), taken with
    the sign (-1)^{|x||z|}, where (x,y,z) is a rotation of (i,j,k); rotating
    (i,j,k) permutes the three terms and keeps each one's sign, so J is the
    same at all three rotations.

    Write e_ab = (-1)^{|a||b|}.  Skew gives C(y,x,w) = -e_xy C(x,y,w), so
    J(j,i,k) = -(-1)^{|i||j|+|j||k|+|k||i|} J(i,j,k), and with the rotation
    invariance J vanishes at a triple if and only if it vanishes at its
    sorted one: the smallest failing ordered triple is sorted, and it fails
    at the same l.  J at a sorted triple is the sum over its rotations
    (a,b,c) of e_ac [[b_a,b_b],b_c]; when a > b the term is rewritten by
    skew as -e_ac e_ab [[b_b,b_a],b_c].  So the product of C(x,y,w), x <= y,
    with C(w,z,l) is added once, at the key of sorted(x,y,z), weighed
    e_xz ([z >= y] + [z <= x]) for the rotations equal to (x,y,z) plus
    [x <= z <= y] c, c = -e_xy e_yz, for the one equal to (y,x,z).  Skew
    leaves C(x,x,w) = 0 for even x, so x = y only for odd x, where the
    three cases give x = y = z the weight -3 = 3 (-1)^{|x|}, the three
    terms of J(x,x,x).  A key sums at most 3*dim products, each weighed at
    most 3 in absolute value.  On a tensor that is not super skew the sum
    decides nothing, so check_super_jacobi checks skew first.  p=None checks
    over Z.  The smallest index of sorted(x,y,z) is min(x, z), and the
    products are summed in blocks of it (_jacobi_blocks): x when x <= z, z
    when z < x.
    """
    if not t.nnz:
        return None
    d = t.shape[0]
    par = np.asarray(parity, dtype=np.int8)

    def weigh(x, y, z):
        px, py, pz = par[x], par[y], par[z]
        e_xz = 1 - 2 * (px & pz)
        between = (2 * (py & (px ^ pz)) - 1) * ((x <= z) & (z <= y))  # c = -e_xy e_yz
        low, high = np.minimum(x, z), np.maximum(y, z)
        triple = (low * d + x + y + z - low - high) * d + high
        return triple, e_xz * ((z >= y).view(np.int8) + (z <= x)) + between

    return _jacobi_blocks(t, p, weigh)


def check_super_jacobi(alg: ModularSuperAlgebra) -> Report:
    """J(i,j,k) = 0 for all triples (see jacobi_witness) on an algebra that
    passes check_super_skew; a failure's witness is the smallest failing
    (i, j, k), or {"requires": "super_skew"} when skew fails, and then no
    sum is formed.  Runs once per algebra."""

    def witness():
        if not check_super_skew(alg):
            return {"requires": "super_skew"}
        return _indexed(jacobi_witness(alg.tensor, alg.parity, alg.p))

    return _kept_report(alg, "super_jacobi", witness)


def _cube_requirement(alg: ModularSuperAlgebra) -> dict | None:
    """The witness naming the first prerequisite of the cube rows that the
    algebra fails: super Jacobi (which checks super skew first), then
    |k| = |i| + |j| at every nonzero C(i,j,k), named "parity"; or None."""
    if not check_super_jacobi(alg):
        return {"requires": "super_jacobi"}
    k, j = np.divmod(alg.tensor.col, alg.dim)
    if (alg.parity[alg.tensor.row] ^ alg.parity[j] ^ alg.parity[k]).any():
        return {"requires": "parity"}
    return None


def odd_cube_generators(alg: ModularSuperAlgebra):
    """The nonzero cube rows q(b_a) = [b_a,[b_a,b_a]] of the odd basis
    vectors b_a, each with the label {"kind": "cube", "nodes": [a]}, or None
    unless the algebra passes super Jacobi and its bracket respects parity
    (_cube_requirement).  With no odd basis vector the list is empty.

    Their span is {[x,[x,x]] : x odd} once both hold.  Over F_3 that span is
    spanned by the polarization pieces of the cubic map q(x) = [x,[x,x]]:
    the cubes q(b_a), the c^2-coefficients A_ab = 2[b_a,[b_a,b_b]] +
    [b_b,[b_a,b_a]] and the trilinear coefficients B_abc.  With J as in
    jacobi_witness and a, b, c odd, J(a,b,c) = -([[a,b],c] + [[b,c],a] +
    [[c,a],b]).  [a,b] is even, and super skew gives [x,y] = [y,x] for odd
    x, y and [w,x] = -[x,w] for even w, so J(a,b,c) = [a,[b,c]] + [b,[c,a]]
    + [c,[a,b]], and therefore A_ab = J(a,a,b) and B_abc = 2·J(a,b,c): both
    vanish, and only the cube rows remain.  (J(a,a,a) = 3·q(b_a), so at
    p = 5 and 7 Jacobi kills the cubes too, and the same code is right at
    every p.)
    """
    if _cube_requirement(alg) is not None:
        return None
    odd = np.nonzero(alg.parity == 1)[0]
    if not len(odd):
        return []
    basis = np.eye(alg.dim, dtype=np.int64)[odd]
    diagonal = np.arange(len(odd)) * (len(odd) + 1)
    squares = alg.brackets(basis, basis).take_rows(diagonal)
    cubes = alg.brackets(basis, squares).take_rows(diagonal)
    return [(vec, {"kind": "cube", "nodes": [int(odd[a])]})
            for a, vec in zip(cubes.held_rows(), cubes.nonzero_rows())]


def check_odd_cubes(alg: ModularSuperAlgebra) -> Report:
    """[x,[x,x]] = 0 for every odd x (the extra characteristic-3 axiom); a
    failure's witness labels the first cube row of odd_cube_generators, or
    names the prerequisite that fails (_cube_requirement), and then no cube
    is formed.  Runs once per algebra."""
    return _kept_report(alg, "odd_cubes", lambda: _cube_requirement(alg)
                        or next((label for _, label in odd_cube_generators(alg)), None))


# -- subspaces ---------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n in canonical reduced echelon form."""

    ambient: int
    p: int
    rows: np.ndarray  # (dim, ambient), reduced echelon, no zero rows
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, vectors, ambient: int, p: int) -> "Subspace":
        mat = np.zeros((0, ambient), dtype=np.int64) if not len(vectors) else fp.normalize(np.atleast_2d(vectors), p)
        r, piv = fp.rref(mat, p)
        return cls(ambient, p, r[: len(piv)].copy(), tuple(piv))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v) -> np.ndarray:
        """Residual of v after eliminating this subspace's pivot coordinates.
        Unused here; perfbench/spans.py patches this name to count reductions."""
        v = fp.normalize(v, self.p)
        if not self.pivots:
            return v.copy()
        return (v - fp.matmul(v[list(self.pivots)], self.rows, self.p)) % self.p

    def reduce_rows(self, mat) -> np.ndarray:
        """Row-wise residuals of a whole matrix (reduced echelon rows make
        the pivot coordinates the expansion coefficients)."""
        mat = fp.normalize(np.atleast_2d(mat), self.p)  # a fresh array, reduced in place
        if not self.pivots:
            return mat
        # the residual vanishes at the pivot columns; only the free ones need the product
        pivots = list(self.pivots)
        free = np.ones(self.ambient, dtype=bool)
        free[pivots] = False
        mat[:, free] -= fp.matmul(mat[:, pivots], self.rows[:, free], self.p)
        mat[:, pivots] = 0
        return np.remainder(mat, self.p, out=mat)

    def extended(self, vectors) -> "Subspace":
        """Span of this subspace and the vectors.  Only the residuals of the
        vectors are eliminated; the old rows are cleared at the new pivot
        columns with one product, and the rows are merged in pivot order."""
        res = self.reduce_rows(vectors)
        res = res[np.any(res, axis=1)]
        if not len(res):
            return self
        new, piv = fp.rref(res, self.p)
        new = new[: len(piv)]
        old = (self.rows - fp.matmul(self.rows[:, piv], new, self.p)) % self.p
        pivots = np.array(self.pivots + tuple(piv))
        order = np.argsort(pivots)
        return Subspace(self.ambient, self.p, np.vstack([old, new])[order], tuple(int(c) for c in pivots[order]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.p == other.p
            and self.pivots == other.pivots
            and np.array_equal(self.rows, other.rows)
        )


def _parity_split(alg: ModularSuperAlgebra, sub: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The even and the odd echelon rows; raise if the subspace mixes parities.
    On a sum of homogeneous parts every reduced echelon row is homogeneous:
    the odd part of an even-pivot row lies in the subspace and vanishes at
    every pivot, so it is zero (and likewise for odd pivots)."""
    parity = alg.parities(sub.rows)
    if (parity < 0).any():
        raise NotParityHomogeneous("subspace is not a sum of homogeneous parts")
    return sub.rows[parity == 0], sub.rows[parity == 1]


# -- structural operations ---------------------------------------------------


def _absorb(sub: Subspace, mat) -> tuple[Subspace, np.ndarray]:
    """Extend a subspace by the rows of mat; returns (new subspace, genuinely new rows)."""
    extended = sub.extended(mat)
    old = set(sub.pivots)
    return extended, extended.rows[[c not in old for c in extended.pivots]]


def distinct_rows(m: sparse.Coo, p: int) -> np.ndarray:
    """The nonzero rows of m, each scaled to lead with 1 and kept once,
    densified: pairwise non-proportional rows spanning what m.nonzero_rows()
    spans.  Rows with equal numbers of entries are compared exactly, as
    their columns followed by their values, by fp.unique_rows."""
    _, starts, sizes = np.unique(m.row, return_index=True, return_counts=True)
    data = m.data * np.repeat(fp.inverses(m.data[starts], p), sizes) % p
    out = [np.zeros((0, m.shape[1]), dtype=np.int64)]
    for n in sparse.distinct(sizes):
        at = starts[sizes == n, None] + np.arange(n)
        rows = np.hstack([m.col[at], data[at]])
        rows = rows[fp.unique_rows(rows)[0]]
        out.append(np.zeros((len(rows), m.shape[1]), dtype=np.int64))
        np.put_along_axis(out[-1], rows[:, :n], rows[:, n:], axis=1)
    return np.vstack(out)


def closure(sub: Subspace, images) -> Subspace:
    """Smallest subspace containing sub that holds images(frontier, span)
    for the rows it spans.  Only rows new since the last round form the
    frontier, and span is the subspace as it stood at the start of that
    round; images returns a sparse matrix whose rows join the span.

    Memory: the images are densified only after distinct_rows has dropped
    their repeats up to scale (on e8@e1 at p = 3, 537 of 3,850 rows), so
    the dense rows and the elimination copies made of them scale with the
    distinct lines, not with the expansion.  The span is the same, and a
    Subspace is the unique reduced echelon basis of its span, so every
    round, and the result, is the one the full image rows would give."""
    frontier = sub.rows
    while len(frontier) and sub.dim < sub.ambient:
        sub, frontier = _absorb(sub, distinct_rows(images(frontier, sub), sub.p))
    return sub


def _both_orders(alg: ModularSuperAlgebra, u, v) -> sparse.Coo:
    """[u, v], and [v, u] only if a row of u or v mixes parities: on a super
    skew algebra [y, x] = -(-1)^{|x||y|} [x, y] for homogeneous x and y."""
    mixed = any((alg.parities(m) < 0).any() for m in (u, v))
    return sparse.vstack([alg.brackets(u, v), alg.brackets(v, u)]) if mixed else alg.brackets(u, v)


def generated_subalgebra(alg: ModularSuperAlgebra, vectors) -> Subspace:
    """Smallest bracket-closed subspace containing the vectors: fixpoint of
    bracketing the newly added rows against the current span.  The algebra
    must be super skew; a homogeneous span is bracketed in one order."""

    def images(frontier, span):
        return _both_orders(alg, frontier, span.rows)

    return closure(Subspace.from_vectors(vectors, alg.dim, alg.p), images)


def ideal_closure(alg: ModularSuperAlgebra, vectors) -> Subspace:
    """Smallest subspace containing the vectors that is stable under
    bracketing with all of g.  The algebra must be super skew; a homogeneous
    frontier is bracketed with the basis in one order."""
    eye = np.eye(alg.dim, dtype=np.int64)

    def images(frontier, _):
        return _both_orders(alg, frontier, eye)

    return closure(Subspace.from_vectors(vectors, alg.dim, alg.p), images)


def subalgebra_on(alg: ModularSuperAlgebra, sub: Subspace) -> tuple[ModularSuperAlgebra, np.ndarray]:
    """Algebra structure induced on a bracket-closed, parity-homogeneous subspace.

    Returns the new algebra and its basis rows (even block first) in ambient
    coordinates.
    """
    ev_mat, od_mat = _parity_split(alg, sub)
    rows = np.vstack([ev_mat, od_mat])
    # even block first, so the rows are not one echelon form; each row's
    # pivot is 1 and zero in every other row, so the pivot columns of the identity are a left inverse
    pivots = np.argmax(rows != 0, axis=1)
    parity = np.array([0] * len(ev_mat) + [1] * len(od_mat), dtype=np.int64)
    labels = [f"sub[{i}]" for i in range(len(rows))]
    return read_back(alg, rows, np.eye(alg.dim, dtype=np.int64)[:, pivots], parity, labels), rows


def read_back(alg: ModularSuperAlgebra, rows: np.ndarray, inverse: np.ndarray, parity, labels,
              gens=None) -> ModularSuperAlgebra:
    """The algebra on the span of `rows` (reduced mod p): [rows[a], rows[b]]
    read back to coordinates through `inverse`, a (dim, len(rows)) left inverse
    of the rows.  InternalError unless every bracket lies in their span: the
    callers read back spans that are closed by construction."""
    products = alg.brackets(rows, rows)  # row a*n+b = [rows[a], rows[b]]
    coeffs = sparse.product(products, sparse.from_dense(inverse), alg.p)
    if sparse.product(coeffs, sparse.from_dense(rows), alg.p) != products:
        raise InternalError("subspace is not bracket-closed")
    return ModularSuperAlgebra.from_products(coeffs, alg.p, parity, labels, gens)


@dataclass
class QuotientAlgebra:
    quotient: ModularSuperAlgebra
    projection: np.ndarray  # (quotient dim, parent dim)


def quotient(alg: ModularSuperAlgebra, ideal: Subspace) -> QuotientAlgebra:
    """Quotient by a parity-homogeneous ideal; complement basis vectors are
    the standard basis vectors at non-pivot coordinates."""
    _parity_split(alg, ideal)  # raises NotParityHomogeneous
    eye = np.eye(alg.dim, dtype=np.int64)
    if ideal.reduce_rows(alg.brackets(ideal.rows, eye).nonzero_rows()).any():
        raise NotAnIdeal("[ideal, g] escapes the ideal")
    if ideal.reduce_rows(alg.brackets(eye, ideal.rows).nonzero_rows()).any():
        raise NotAnIdeal("[g, ideal] escapes the ideal")
    keep = [c for c in range(alg.dim) if c not in set(ideal.pivots)]
    qdim = len(keep)
    proj = ideal.reduce_rows(eye).T[keep] % alg.p
    # row a*qdim+b: the projection of [b_keep[a], b_keep[b]]
    images = sparse.product(alg.brackets(eye[keep], eye[keep]), sparse.from_dense(proj.T), alg.p)
    parity = alg.parity[keep]
    labels = [alg.labels[c] if alg.labels else f"q[{c}]" for c in keep]
    quot = ModularSuperAlgebra.from_products(images, alg.p, parity, labels)
    return QuotientAlgebra(quotient=quot, projection=proj)


@dataclass
class GenSubquotient:
    algebra: ModularSuperAlgebra
    generators: np.ndarray  # row a: the image of seed row a
    cube_ideal_dim: int


def gen_subquotient(alg: ModularSuperAlgebra, seeds) -> GenSubquotient:
    """Subalgebra generated by the seed rows, modulo the ideal forcing
    [x,[x,x]] = 0 for odd x.  The algebra is a checked output, so the
    subalgebra passes the prerequisites of its cube rows; InternalError if it
    does not, or if a seed lies outside the subalgebra it generates."""
    seeds = fp.normalize(np.atleast_2d(seeds), alg.p)
    if not len(seeds):
        raise ValueError("no generator vectors supplied")
    sub = generated_subalgebra(alg, seeds)
    subalg, rows = subalgebra_on(alg, sub)
    coords = seeds[:, np.argmax(rows != 0, axis=1)]  # pivot entries are 1 and zero in every other row
    if ((seeds - coords @ rows) % alg.p).any():
        raise InternalError("vector not inside the subalgebra")
    cubes = odd_cube_generators(subalg)
    if cubes is None:
        raise InternalError(f"generated subalgebra fails its cube prerequisites: {_cube_requirement(subalg)}")
    ideal = ideal_closure(subalg, [v for v, _ in cubes])
    if ideal.dim == 0:
        return GenSubquotient(subalg, coords, 0)
    q = quotient(subalg, ideal)
    return GenSubquotient(q.quotient, coords @ q.projection.T % alg.p, ideal.dim)
