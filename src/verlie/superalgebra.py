"""Finite-dimensional superalgebras over F_p given by sparse structure constants.

A ModularSuperAlgebra is a basis with parity labels and a sparse tensor
C(i,j,k) over F_p; Lie algebras are the all-even case.  Structural
operations (center, derived subalgebra, generated subalgebras, ideal
closures, quotients) all work on subspaces kept in reduced echelon form so
that equality and containment are exact and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import fp, sparse
from .errors import DimensionTooLarge, MissingTags, NotAnIdeal, NotParityHomogeneous

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
    # check name -> Report of check_super_skew / check_super_jacobi, kept because
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
    def from_products(cls, products: sparse.Coo, p: int, parity, labels=None) -> "ModularSuperAlgebra":
        """The algebra whose bracket [b_a, b_b] is row a*dim+b of the reduced
        sparse `products`: entry (a*n+b, k) moves to row a, column k*n+b."""
        n = len(parity)
        a, b = np.divmod(products.row, n)
        keys = (a * n + products.col) * n + b
        order = np.argsort(keys)
        return cls(p, n, parity, sparse.from_keys(keys[order], products.data[order], (n, n * n)), labels)

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
        row = sparse.from_dense(fp.normalize(v, self.p).reshape(1, -1))
        return sparse.product(row, self.tensor, self.p).toarray().reshape(self.dim, self.dim)

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

    def is_homogeneous(self, v) -> bool:
        v = fp.normalize(v, self.p)
        return not (v[self.parity == 0].any() and v[self.parity == 1].any())

    def vector_parity(self, v) -> int:
        """Parity of a homogeneous vector (0 for the zero vector)."""
        v = fp.normalize(v, self.p)
        if v[self.parity == 1].any():
            if v[self.parity == 0].any():
                raise NotParityHomogeneous("vector mixes parities")
            return 1
        return 0

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


def tensor_coo(constants: Constants, dim: int, p: int | None) -> sparse.Coo:
    """The tensor of a constants dict, as a (dim, dim*dim) sparse matrix
    L[i, k*dim+j] = C(i,j,k), reduced mod p (exact over Z if p is None)."""
    entries = [(i, k * dim + j, c) for (i, j), comps in constants.items() for k, c in comps.items()]
    return sparse.from_entries(*np.array(entries, dtype=np.int64).reshape(-1, 3).T, (dim, dim * dim), p)


def superdim(alg: ModularSuperAlgebra) -> tuple[int, int]:
    return int(np.sum(alg.parity == 0)), int(np.sum(alg.parity == 1))


# -- axiom checks ----------------------------------------------------------


@dataclass(frozen=True)
class Report:
    check: str
    ok: bool
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        out = {"check": self.check, "pass": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _first_key(keys: np.ndarray, vals: np.ndarray, p: int | None) -> int | None:
    """Smallest key whose values sum to nonzero (mod p; over Z if p is None)."""
    keys, _ = sparse.sum_by_key(keys, vals, p)
    return int(keys[0]) if len(keys) else None


def skew_witness(tensor: sparse.Coo, parity, p: int | None):
    """Smallest basis triple (i, j, k), i <= j, at which
    C(i,j,k) = -(-1)^{|i||j|} C(j,i,k) fails, or None.

    Each entry C(i,j,k) = c of the tensor adds c at key (i,j,k) and
    (-1)^{|i||j|} c at its mirror key (j,i,k); the keys are summed exactly in
    int64.  The failures at (i,j,k) and (j,i,k) come together, so the
    smallest has i <= j.  p=None checks over Z.
    """
    if not tensor.nnz:
        return None
    dim = tensor.shape[0]
    k, j = np.divmod(tensor.col, dim)
    par = np.asarray(parity, dtype=np.int64)
    i, c = tensor.row, tensor.data
    keys = np.concatenate([(i * dim + j) * dim + k, (j * dim + i) * dim + k])
    vals = np.concatenate([c, (1 - 2 * par[i] * par[j]) * c])
    key = _first_key(keys, vals, p)
    if key is None:
        return None
    i, rest = divmod(key, dim * dim)
    return (i, *divmod(rest, dim))


def _passed(alg: ModularSuperAlgebra, *checks: str) -> bool:
    """Whether the algebra keeps a passing report of every one of the checks."""
    return all(check in alg._reports and alg._reports[check].ok for check in checks)


def _kept_report(alg: ModularSuperAlgebra, check: str, witness) -> Report:
    """The report of check on alg, computed by witness() on the first call
    and kept on the algebra; a failure's witness names its first three
    indices i, j, k."""
    if check not in alg._reports:
        found = witness()
        alg._reports[check] = Report(check, found is None, None if found is None else dict(zip("ijk", found)))
    return alg._reports[check]


def check_super_skew(alg: ModularSuperAlgebra) -> Report:
    """C(i,j,k) = -(-1)^{|i||j|} C(j,i,k) for all triples; a failure's
    witness is the smallest failing (i, j, k) with i <= j.  Runs once per
    algebra."""
    return _kept_report(alg, "super_skew", lambda: skew_witness(alg.tensor, alg.parity, alg.p))


_JACOBI_BLOCK = 16  # values of x expanded at once by the Jacobi sums


def _jacobi_sum(left: sparse.Coo, t: sparse.Coo, p: int | None, weigh):
    """Smallest (i, j, k, l) at which the Jacobi sum is nonzero, or None.

    Every product C(x,y,w) C(w,z,l) of an entry of `left` (some entries of
    t, sorted by x) and an entry of t is added once, times weight, at the
    key of (i, j, k, l), where weigh(x, y, z) gives the key (i*d + j)*d + k
    of the triple and the weight.  The products are formed one block of x
    values at a time, and the keys are summed exactly in int64 after the
    last block, since the products of one key may come from several blocks.
    """
    d = t.shape[0]
    k, j = np.divmod(t.col, d)  # entries sorted by i = t.row
    left_k, left_j = np.divmod(left.col, d)
    bounds = np.searchsorted(left.row, [*range(0, d, _JACOBI_BLOCK), d])
    keys, vals = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        s, u = sparse.pairs(t, left_k[lo:hi])  # C(x,y,w) at left entry lo+s, C(w,z,l) at entry u
        s += lo
        triple, weight = weigh(left.row[s], left_j[s], j[u])
        keys.append(triple * d + k[u])
        vals.append(weight * left.data[s] * t.data[u])
    key = _first_key(np.concatenate(keys), np.concatenate(vals), p)
    if key is None:
        return None
    i, rest = divmod(key, d**3)
    j, rest = divmod(rest, d * d)
    return (i, j, *divmod(rest, d))


def jacobi_witness(t: sparse.Coo, parity, p: int | None):
    """Smallest basis quadruple (i, j, k, l) at which the (super) Jacobi
    identity fails, or None.

    Checks J(i,j,k) = (-1)^{|i||k|}[[b_i,b_j],b_k] + (-1)^{|j||i|}[[b_j,b_k],b_i]
    + (-1)^{|k||j|}[[b_k,b_i],b_j] = 0 for every ordered triple.  Each term
    [[b_x,b_y],b_z]_l is a sum of products C(x,y,w) C(w,z,l), taken with the
    sign (-1)^{|x||z|}, where (x,y,z) is a rotation of (i,j,k).  Rotating
    (i,j,k) permutes the three terms and keeps each one's sign, so J is the
    same at all three rotations, and the smallest failing triple is its own
    smallest rotation.  Each product is therefore added once, to the key of
    the smallest rotation of (x,y,z); a product with x = y = z is in all
    three terms of J(x,x,x) and counts three times.  So a key sums at most
    3*dim products.  This holds for any tensor, skew or not.  p=None checks
    over Z.
    """
    if not t.nnz:
        return None
    d = t.shape[0]
    par = np.asarray(parity, dtype=np.int64)

    def weigh(x, y, z):
        rotation = np.minimum(np.minimum((x * d + y) * d + z, (y * d + z) * d + x), (z * d + x) * d + y)
        return rotation, (1 - 2 * par[x] * par[z]) * np.where((x == y) & (y == z), 3, 1)

    return _jacobi_sum(t, t, p, weigh)


def sorted_jacobi_witness(t: sparse.Coo, parity, p: int | None):
    """jacobi_witness of a super skew tensor, from the products of the
    entries C(x,y,w) with x <= y only.

    Write e_ab = (-1)^{|a||b|}.  Skew gives C(y,x,w) = -e_xy C(x,y,w), so
    J(j,i,k) = -(-1)^{|i||j|+|j||k|+|k||i|} J(i,j,k), and with J's rotation
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
    most 3 in absolute value, and the sum forms about half the products of
    jacobi_witness.  p=None checks over Z.
    """
    if not t.nnz:
        return None
    d = t.shape[0]
    par = np.asarray(parity, dtype=np.int64)
    upper = t.row <= t.col % d  # x <= y
    left = sparse.Coo(t.row[upper], t.col[upper], t.data[upper], t.shape)

    def weigh(x, y, z):
        px, py, pz = par[x], par[y], par[z]
        e_xz = 1 - 2 * (px & pz)
        between = (2 * (py & (px ^ pz)) - 1) * ((x <= z) & (z <= y))  # c = -e_xy e_yz
        low, high = np.minimum(x, z), np.maximum(y, z)
        triple = (low * d + x + y + z - low - high) * d + high
        return triple, e_xz * ((z >= y).astype(np.int64) + (z <= x)) + between

    return _jacobi_sum(left, t, p, weigh)


def check_super_jacobi(alg: ModularSuperAlgebra) -> Report:
    """J(i,j,k) = 0 for all triples (see jacobi_witness); a failure's witness
    is the smallest failing (i, j, k).  When the algebra carries a passing
    super skew report the sum runs over sorted triples (sorted_jacobi_witness),
    which finds the same witness.  Runs once per algebra."""
    witness = sorted_jacobi_witness if _passed(alg, "super_skew") else jacobi_witness
    return _kept_report(alg, "super_jacobi", lambda: witness(alg.tensor, alg.parity, alg.p))


def _respects_parity(alg: ModularSuperAlgebra) -> bool:
    """|k| = |i| + |j| at every nonzero C(i,j,k)."""
    k, j = np.divmod(alg.tensor.col, alg.dim)
    return not (alg.parity[alg.tensor.row] ^ alg.parity[j] ^ alg.parity[k]).any()


def odd_cube_generators(alg: ModularSuperAlgebra):
    """Spanning vectors of {[x,[x,x]] : x odd}, with a label per vector.

    Uses the polarization pieces of the cubic map q(x) = [x,[x,x]] over F_3
    (q(b_a); the c^2-coefficients A_{ab}; the trilinear coefficients B_{abc}),
    whose span equals the span of q on all sums of up to three distinct odd
    basis vectors with coefficients in {1, 2}.  All of them are sums of rows
    of one contraction Q, row (a*no+b)*no+c = [b_a, [b_b, b_c]].  Pieces
    that vanish are dropped.

    When the algebra carries passing super skew and super Jacobi reports
    and its bracket respects parity, only the cube rows q(b_a) are formed.
    With J as in jacobi_witness and a, b, c odd, J(a,b,c) =
    -([[a,b],c] + [[b,c],a] + [[c,a],b]).  [a,b] is even, and super skew
    gives [x,y] = [y,x] for odd x, y and [w,x] = -[x,w] for even w, so
    J(a,b,c) = [a,[b,c]] + [b,[c,a]] + [c,[a,b]], and therefore
    A_ab = J(a,a,b) and B_abc = 2·J(a,b,c): both vanish when Jacobi holds,
    and the list is the nonzero cube rows.  (J(a,a,a) = 3·q(b_a), so at
    p = 5 and 7 Jacobi kills the cubes too, and the same code is right at
    every p.)  Otherwise every piece is formed.
    """
    odd = np.nonzero(alg.parity == 1)[0]
    no = len(odd)
    if no == 0:
        return []
    basis = np.eye(alg.dim, dtype=np.int64)[odd]
    squares = alg.brackets(basis, basis)
    ar = np.arange(no)
    if _passed(alg, "super_skew", "super_jacobi") and _respects_parity(alg):
        diagonal = ar * no + ar
        cubes = alg.brackets(basis, squares.take_rows(diagonal)).take_rows(diagonal)
        return [(vec, {"kind": "cube", "nodes": [int(odd[a])]})
                for a, vec in zip(np.unique(cubes.row), cubes.nonzero_rows())]
    q = alg.brackets(basis, squares)
    p = alg.p

    def at(a, b, c):
        return q.take_rows((a * no + b) * no + c)

    sa, sb = (x.ravel() for x in np.meshgrid(ar, ar, indexing="ij"))
    sa, sb = sa[sa != sb], sb[sa != sb]
    ta, tb, tc = np.array(list(combinations(range(no), 3)), dtype=np.int64).reshape(-1, 3).T
    pieces = sparse.vstack([
        at(ar, ar, ar),  # q(b_a) = [b_a, [b_a, b_a]]
        sparse.combine([(2, at(sa, sa, sb)), (1, at(sb, sa, sa))], p),  # A_ab = 2[b_a, W_ab] + [b_b, W_aa], a != b
        sparse.combine([(2, at(ta, tb, tc)), (2, at(tb, ta, tc)), (2, at(tc, ta, tb))], p),  # B_abc, a < b < c
    ])
    groups = [("cube", [ar]), ("square", [sa, sb]), ("triple", [ta, tb, tc])]

    def label(r):
        for kind, nodes in groups:
            if r < len(nodes[0]):
                return {"kind": kind, "nodes": [int(odd[n[r]]) for n in nodes]}
            r -= len(nodes[0])

    return [(vec, label(r)) for r, vec in zip(np.unique(pieces.row), pieces.nonzero_rows())]


def odd_cube_values_literal(alg: ModularSuperAlgebra):
    """q(x) on all sums of up to 3 distinct odd basis vectors with coefficients in {1, 2}."""
    from itertools import product

    odd = np.nonzero(alg.parity == 1)[0]
    vals = []
    for size in (1, 2, 3):
        for nodes in combinations(odd, size):
            for coeffs in product((1, 2), repeat=size):
                x = np.zeros(alg.dim, dtype=np.int64)
                for n, c in zip(nodes, coeffs):
                    x[n] = c
                vals.append(alg.bracket(x, alg.bracket(x, x)))
    return vals


def check_odd_cubes(alg: ModularSuperAlgebra) -> Report:
    """[x,[x,x]] = 0 for every odd x (the extra characteristic-3 axiom)."""
    gens = odd_cube_generators(alg)
    if not gens:
        return Report("odd_cubes", True)
    _, label = gens[0]
    return Report("odd_cubes", False, {"nodes": label["nodes"], "kind": label["kind"]})


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

    @classmethod
    def zero(cls, ambient: int, p: int) -> "Subspace":
        return cls(ambient, p, np.zeros((0, ambient), dtype=np.int64), ())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v) -> np.ndarray:
        """Residual of v after eliminating this subspace's pivot coordinates."""
        v = fp.normalize(v, self.p)
        if not self.pivots:
            return v.copy()
        return (v - fp.matmul(v[list(self.pivots)], self.rows, self.p)) % self.p

    def reduce_rows(self, mat) -> np.ndarray:
        """Row-wise residuals of a whole matrix (reduced echelon rows make
        the pivot coordinates the expansion coefficients)."""
        mat = fp.normalize(np.atleast_2d(mat), self.p)
        if not self.pivots:
            return mat.copy()
        # the residual vanishes at the pivot columns; only the free ones need the product
        free = np.ones(self.ambient, dtype=bool)
        free[list(self.pivots)] = False
        out = np.zeros_like(mat)
        out[:, free] = (mat[:, free] - fp.matmul(mat[:, list(self.pivots)], self.rows[:, free], self.p)) % self.p
        return out

    def coefficients(self, v) -> np.ndarray:
        """Coefficients of v over the echelon rows; raises if v is outside."""
        v = fp.normalize(v, self.p)
        coeffs = v[list(self.pivots)] if self.pivots else np.zeros(0, dtype=np.int64)
        if self.reduce(v).any():
            raise ValueError("vector not in subspace")
        return coeffs

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

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
    """Split echelon rows into even and odd parts; raise if the subspace mixes parities."""
    parts = [sub.rows * (alg.parity == parity) for parity in (0, 1)]
    if sub.reduce_rows(np.vstack(parts)).any():
        raise NotParityHomogeneous("subspace is not a sum of homogeneous parts")
    (ev_mat, ev_piv), (od_mat, od_piv) = (fp.rref(part, alg.p) for part in parts)
    if len(ev_piv) + len(od_piv) != sub.dim:
        raise NotParityHomogeneous("homogeneous parts do not add up")
    return ev_mat[: len(ev_piv)], od_mat[: len(od_piv)]


# -- structural operations ---------------------------------------------------


def center(alg: ModularSuperAlgebra) -> Subspace:
    """{x : [x, g] = 0}, as the iterated kernel of right-bracket maps."""
    eye = np.eye(alg.dim, dtype=np.int64)
    basis = eye
    for j in range(alg.dim):
        if basis.shape[0] == 0:
            break
        m = alg.brackets(basis, eye[j : j + 1]).toarray().T  # column r = [basis_r, b_j]
        ker = fp.kernel_basis(m, alg.p)
        basis = (ker @ basis) % alg.p
    return Subspace.from_vectors(basis, alg.dim, alg.p)


def _absorb(sub: Subspace, mat) -> tuple[Subspace, np.ndarray]:
    """Extend a subspace by the rows of mat; returns (new subspace, genuinely new rows)."""
    extended = sub.extended(mat)
    old = set(sub.pivots)
    return extended, extended.rows[[c not in old for c in extended.pivots]]


def derived_subalgebra(alg: ModularSuperAlgebra) -> Subspace:
    """Span of all brackets of basis pairs, sixteen left factors at a time,
    until the span is the whole algebra."""
    eye = np.eye(alg.dim, dtype=np.int64)
    sub = Subspace.zero(alg.dim, alg.p)
    for start in range(0, alg.dim, 16):
        sub = sub.extended(alg.brackets(eye[start : start + 16], eye).nonzero_rows())
        if sub.dim == alg.dim:
            break
    return sub


def closure(sub: Subspace, images) -> Subspace:
    """Smallest subspace containing sub that holds images(frontier, span)
    for the rows it spans.  Only rows new since the last round form the
    frontier, and span is the subspace as it stood at the start of that
    round; images returns a sparse matrix whose rows join the span."""
    frontier = sub.rows
    while len(frontier) and sub.dim < sub.ambient:
        sub, frontier = _absorb(sub, images(frontier, sub).nonzero_rows())
    return sub


def _both_orders(alg: ModularSuperAlgebra, u, v) -> sparse.Coo:
    """[u, v], and [v, u] only if a row of u or v mixes parities: on a super
    skew algebra [y, x] = -(-1)^{|x||y|} [x, y] for homogeneous x and y."""
    mixed = any((m[:, alg.parity == 0].any(axis=1) & m[:, alg.parity == 1].any(axis=1)).any() for m in (u, v))
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
    # pivot is still zero in every other row
    pivots = [int(np.flatnonzero(row)[0]) for row in rows]
    parity = np.array([0] * len(ev_mat) + [1] * len(od_mat), dtype=np.int64)
    n = len(rows)
    products = alg.brackets(rows, rows)  # row a*n+b = [rows[a], rows[b]]
    pick = sparse.from_dense(np.eye(alg.dim, dtype=np.int64)[:, pivots])
    coeffs = sparse.product(products, pick, alg.p)  # the coordinates at the pivots
    if sparse.product(coeffs, sparse.from_dense(rows), alg.p) != products:
        raise ValueError("subspace is not bracket-closed")
    new = ModularSuperAlgebra.from_products(coeffs, alg.p, parity, [f"sub[{i}]" for i in range(n)])
    return new, rows


@dataclass
class QuotientAlgebra:
    parent: ModularSuperAlgebra
    ideal: Subspace
    quotient: ModularSuperAlgebra
    projection: np.ndarray  # (quotient dim, parent dim)

    def project(self, v) -> np.ndarray:
        return (self.projection @ fp.normalize(v, self.parent.p)) % self.parent.p


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
    return QuotientAlgebra(parent=alg, ideal=ideal, quotient=quot, projection=proj)


@dataclass
class GenSubquotient:
    algebra: ModularSuperAlgebra
    generators: dict[str, np.ndarray]  # images of the seed generators
    sub_rows: np.ndarray  # generated subalgebra basis in ambient coordinates
    cube_ideal_dim: int


def gen_subquotient(alg: ModularSuperAlgebra, generators: Mapping[str, np.ndarray]) -> GenSubquotient:
    """Subalgebra generated by the given vectors, modulo the ideal forcing
    [x,[x,x]] = 0 for odd x."""
    if not generators:
        raise MissingTags("no generator vectors supplied")
    seeds = np.atleast_2d([fp.normalize(v, alg.p) for v in generators.values()])
    sub = generated_subalgebra(alg, seeds)
    subalg, rows = subalgebra_on(alg, sub)
    pivots = [int(np.nonzero(r)[0][0]) for r in rows]
    coords = seeds[:, pivots]  # pivot entries are 1 and zero in every other row
    if ((seeds - coords @ rows) % alg.p).any():
        raise ValueError("vector not inside the subalgebra")
    gen_coords = dict(zip(generators, coords))
    cube_vecs = [v for v, _ in odd_cube_generators(subalg)]
    ideal = ideal_closure(subalg, cube_vecs) if cube_vecs else Subspace.zero(subalg.dim, alg.p)
    if ideal.dim == 0:
        return GenSubquotient(subalg, gen_coords, rows, 0)
    q = quotient(subalg, ideal)
    gens_q = {name: q.project(v) for name, v in gen_coords.items()}
    return GenSubquotient(q.quotient, gens_q, rows, ideal.dim)
