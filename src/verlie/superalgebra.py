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
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from . import fp
from .errors import MissingTags, NotAnIdeal, NotParityHomogeneous

Constants = dict[tuple[int, int], dict[int, int]]


@dataclass
class ModularSuperAlgebra:
    p: int
    dim: int
    parity: np.ndarray  # 0/1 per basis vector
    constants: Constants  # (i, j) -> {k: C(i,j,k)}, every nonzero ordered pair
    labels: list[str] | None = None
    gens: dict[str, np.ndarray] | None = None  # generator name -> coordinate vector
    origin: object | None = None  # construction-time metadata, not serialized
    _adl: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        fp.check_modulus(self.p, self.dim)
        self.parity = np.asarray(self.parity, dtype=np.int64)
        if self.parity.shape != (self.dim,):
            raise ValueError("parity length must equal dim")

    def __eq__(self, other) -> bool:
        """Same field, basis parities, structure constants, labels and
        generator vectors (origin and caches are not compared)."""
        if not isinstance(other, ModularSuperAlgebra):
            return NotImplemented
        gens, other_gens = self.gens or {}, other.gens or {}
        return (
            self.p == other.p
            and self.dim == other.dim
            and np.array_equal(self.parity, other.parity)
            and self.constants == other.constants
            and self.labels == other.labels
            and gens.keys() == other_gens.keys()
            and all(np.array_equal(vec, other_gens[name]) for name, vec in gens.items())
        )

    # -- bracket machinery ------------------------------------------------

    def _ad_tensor(self) -> sp.csr_matrix:
        """Cached CSR L[i, k*dim+j] = C(i,j,k): row i is ad(b_i), flattened."""
        if self._adl is None:
            d = self.dim
            i, j, k, c = _tensor_coo(self.constants)
            self._adl = sp.csr_matrix((c, (i, k * d + j)), shape=(d, d * d), dtype=np.int64)
        return self._adl

    def ad(self, v) -> np.ndarray:
        """Dense matrix of x -> [v, x]."""
        v = fp.normalize(v, self.p)
        flat = sp.csr_matrix(v.reshape(1, -1)) @ self._ad_tensor()
        return np.asarray(flat.todense(), dtype=np.int64).reshape(self.dim, self.dim) % self.p

    def brackets(self, u, v) -> sp.csr_matrix:
        """All brackets of the rows of u with the rows of v: a sparse
        (len(u)*len(v), dim) matrix whose row a*len(v)+b is [u_a, v_b].

        Two sparse products: u @ L, read with rows (a, k) and columns j, then
        @ v.T.  Reducing mod p in between keeps each sum below dim*(p-1)^2,
        the bound fp.check_modulus enforces.  u and v may be dense or sparse
        (sparse rows are taken as already reduced).
        """
        d, p = self.dim, self.p
        u, v = (x.tocsr() if sp.issparse(x) else sp.csr_matrix(fp.normalize(x, p)) for x in (u, v))
        m, n = u.shape[0], v.shape[0]
        left = (u @ self._ad_tensor()).tocoo()
        row, col = left.row.astype(np.int64), left.col.astype(np.int64)
        left = sp.csr_matrix((left.data % p, (row * d + col // d, col % d)), shape=(m * d, d))
        out = (left @ v.T).tocoo()
        a, k = np.divmod(out.row.astype(np.int64), d)
        res = sp.csr_matrix((out.data % p, (a * n + out.col, k)), shape=(m * n, d))
        res.eliminate_zeros()
        return res

    def bracket(self, u, v) -> np.ndarray:
        u = fp.normalize(u, self.p)
        v = fp.normalize(v, self.p)
        su, sv = np.nonzero(u)[0], np.nonzero(v)[0]
        out = np.zeros(self.dim, dtype=np.int64)
        if len(su) * len(sv) <= 256:
            for i in su:
                ui = int(u[i])
                for j in sv:
                    comps = self.constants.get((int(i), int(j)))
                    if comps:
                        coef = ui * int(v[j]) % self.p  # keeps the sums below 256*(p-1)^2
                        for k, c in comps.items():
                            out[k] += coef * c
            return out % self.p
        return (self.ad(u) @ v) % self.p

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
        quads = []
        for (i, j), comps in sorted(self.constants.items()):
            if i > j:
                continue
            for k, c in sorted(comps.items()):
                quads.append([i, j, k, int(c)])
        return {
            "p": self.p,
            "dim": self.dim,
            "parity": [int(x) for x in self.parity],
            "labels": self.labels,
            "constants": quads,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModularSuperAlgebra":
        p = int(data["p"])
        dim = int(data["dim"])
        parity = np.asarray(data["parity"], dtype=np.int64)
        entries = []
        for i, j, k, c in data["constants"]:
            entries.append((i, j, k, c))
            if i != j:  # the super-skew mirror [b_j, b_i] = -(-1)^{|i||j|} [b_i, b_j]
                entries.append((j, i, k, c if parity[i] == 1 and parity[j] == 1 else -c))
        return cls(p=p, dim=dim, parity=parity, constants=make_constants(entries, p), labels=data.get("labels"))


def _dense_rows(m: sp.csr_matrix) -> np.ndarray:
    """The nonzero rows of a sparse matrix, densified."""
    return m[np.diff(m.indptr) > 0].toarray()


def make_constants(entries: Iterable[tuple[int, int, int, int]], p: int) -> Constants:
    """Assemble a constants dict from (i, j, k, c) quadruples, accumulating
    repeated triples and dropping zeros."""
    acc: Constants = {}
    for i, j, k, c in entries:
        comps = acc.setdefault((i, j), {})
        comps[k] = (comps.get(k, 0) + c) % p
    out: Constants = {}
    for key, comps in acc.items():
        cleaned = {k: c for k, c in comps.items() if c}
        if cleaned:
            out[key] = cleaned
    return out


def constants_from_products(products, n: int, p: int) -> Constants:
    """Constants from a (sparse or dense) matrix whose row a*n+b holds [b_a, b_b]."""
    coo = sp.coo_matrix(products)
    a, b = np.divmod(coo.row.astype(np.int64), n)
    return make_constants(zip(a.tolist(), b.tolist(), coo.col.tolist(), coo.data.tolist()), p)


def _tensor_coo(constants: Constants) -> np.ndarray:
    """The tensor as COO rows (i, j, k, c), one column per C(i,j,k) = c."""
    quads = [(i, j, k, c) for (i, j), comps in constants.items() for k, c in comps.items()]
    return np.array(quads, dtype=np.int64).reshape(-1, 4).T


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


def check_super_skew(alg: ModularSuperAlgebra) -> Report:
    """C(i,j,k) = -(-1)^{|i||j|} C(j,i,k) for all triples."""
    par = alg.parity
    seen: set[tuple[int, int]] = set()
    for (i, j), comps in alg.constants.items():
        if (j, i) in seen:
            continue
        seen.add((i, j))
        mirror = alg.constants.get((j, i), {})
        sign = 1 if (par[i] and par[j]) else -1
        for k in set(comps) | set(mirror):
            if (comps.get(k, 0) - sign * mirror.get(k, 0)) % alg.p:
                return Report("super_skew", False, {"i": i, "j": j, "k": k})
    return Report("super_skew", True)


_JACOBI_BLOCK = 16  # values of i per block of jacobi_witness


def jacobi_witness(constants: Constants, parity, dim: int, p: int | None):
    """Smallest basis quadruple (i, j, k, l) at which the (super) Jacobi
    identity fails, or None.

    Checks (-1)^{|i||k|}[[b_i,b_j],b_k] + (-1)^{|j||i|}[[b_j,b_k],b_i]
    + (-1)^{|k||j|}[[b_k,b_i],b_j] = 0 for every ordered triple.  Every term
    is an entry P[(x,y),(z,l)] = [[b_x,b_y],b_z]_l of the sparse product
    C1 @ C2 with sign (-1)^{|x||z|}; the keys are summed exactly in int64,
    one block of i values at a time, so the first block with a failure holds
    the smallest witness.  p=None checks over Z.
    """
    if dim == 0 or not constants:
        return None
    par = np.asarray(parity, dtype=np.int64)
    d = dim
    # c1[(i*d+j), k] = c1t[(j*d+i), k] = c2[i, (j*d+k)] = C(i,j,k)
    ci, cj, ck, cv = _tensor_coo(constants)
    c1 = sp.csr_matrix((cv, (ci * d + cj, ck)), shape=(d * d, d), dtype=np.int64)
    c1t = sp.csr_matrix((cv, (cj * d + ci, ck)), shape=(d * d, d), dtype=np.int64)
    c2 = sp.csc_matrix((cv, (ci, cj * d + ck)), shape=(d, d * d), dtype=np.int64)
    pairs = np.arange(d * d, dtype=np.int64)
    for start in range(0, d, _JACOBI_BLOCK):
        lo, hi = start * d, min(start + _JACOBI_BLOCK, d) * d
        lead = pairs[lo:hi]  # pairs (x, y) with x in the block
        swapped = lead % d * d + lead // d  # pairs (x, y) with y in the block
        # (i,j,k) = (x,y,z) in term 1, (z,x,y) in term 2, (y,z,x) in term 3
        terms = ((c1[lo:hi] @ c2, lead, pairs, 0), (c1 @ c2[:, lo:hi], pairs, lead, 1),
                 (c1t[lo:hi] @ c2, swapped, pairs, 2))
        keys, vals = [], []
        for product, rows, cols, shift in terms:
            t = product.tocoo()
            x, y = np.divmod(rows[t.row], d)
            z, l = np.divmod(cols[t.col], d)
            i, j, k = np.roll([x, y, z], shift, axis=0)
            keys.append(((i * d + j) * d + k) * d + l)
            vals.append((1 - 2 * par[x] * par[z]) * t.data)
        keys = np.concatenate(keys)
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(np.concatenate(vals)[order], starts)
        if p is not None:
            sums %= p
        bad = np.flatnonzero(sums)
        if bad.size:
            i, rest = divmod(int(keys[starts[bad[0]]]), d**3)
            j, rest = divmod(rest, d * d)
            return (i, j, *divmod(rest, d))
    return None


def check_super_jacobi(alg: ModularSuperAlgebra) -> Report:
    witness = jacobi_witness(alg.constants, alg.parity, alg.dim, alg.p)
    if witness is None:
        return Report("super_jacobi", True)
    i, j, k, _ = witness
    return Report("super_jacobi", False, {"i": i, "j": j, "k": k})


def odd_cube_generators(alg: ModularSuperAlgebra):
    """Spanning vectors of {[x,[x,x]] : x odd}, with a label per vector.

    Uses the polarization pieces of the cubic map q(x) = [x,[x,x]] over F_3
    (q(b_a); the c^2-coefficients A_{ab}; the trilinear coefficients B_{abc}),
    whose span equals the span of q on all sums of up to three distinct odd
    basis vectors with coefficients in {1, 2}.  All of them are sums of rows
    of one contraction Q, row (a*no+b)*no+c = [b_a, [b_b, b_c]].
    """
    odd = np.nonzero(alg.parity == 1)[0]
    no = len(odd)
    if no == 0:
        return []
    basis = np.eye(alg.dim, dtype=np.int64)[odd]
    q = alg.brackets(basis, alg.brackets(basis, basis))

    def at(a, b, c):
        return q[(a * no + b) * no + c]

    ar = np.arange(no)
    sa, sb = (x.ravel() for x in np.meshgrid(ar, ar, indexing="ij"))
    sa, sb = sa[sa != sb], sb[sa != sb]
    ta, tb, tc = np.array(list(combinations(range(no), 3)), dtype=np.int64).reshape(-1, 3).T
    pieces = sp.vstack([
        at(ar, ar, ar),  # q(b_a) = [b_a, [b_a, b_a]]
        2 * at(sa, sa, sb) + at(sb, sa, sa),  # A_ab = 2[b_a, W_ab] + [b_b, W_aa], a != b
        2 * (at(ta, tb, tc) + at(tb, ta, tc) + at(tc, ta, tb)),  # B_abc, a < b < c
    ]).tocsr()
    pieces.data %= alg.p
    pieces.eliminate_zeros()
    groups = [("cube", [ar]), ("square", [sa, sb]), ("triple", [ta, tb, tc])]

    def label(r):
        for kind, nodes in groups:
            if r < len(nodes[0]):
                return {"kind": kind, "nodes": [int(odd[n[r]]) for n in nodes]}
            r -= len(nodes[0])

    hit = np.flatnonzero(np.diff(pieces.indptr))
    return [(vec, label(r)) for r, vec in zip(hit, pieces[hit].toarray())]


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
        return (v - v[list(self.pivots)] @ self.rows) % self.p

    def reduce_rows(self, mat) -> np.ndarray:
        """Row-wise residuals of a whole matrix (reduced echelon rows make
        the pivot coordinates the expansion coefficients)."""
        mat = fp.normalize(np.atleast_2d(mat), self.p)
        if not self.pivots:
            return mat.copy()
        return (mat - mat[:, list(self.pivots)] @ self.rows) % self.p

    def coefficients(self, v) -> np.ndarray:
        """Coefficients of v over the echelon rows; raises if v is outside."""
        v = fp.normalize(v, self.p)
        coeffs = v[list(self.pivots)] if self.pivots else np.zeros(0, dtype=np.int64)
        if self.reduce(v).any():
            raise ValueError("vector not in subspace")
        return coeffs

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)

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
        old = (self.rows - self.rows[:, piv] @ new) % self.p
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
    """Span of all brackets of basis pairs."""
    sub = Subspace.zero(alg.dim, alg.p)
    batch: list[np.ndarray] = []
    for (i, j), comps in sorted(alg.constants.items()):
        if i > j:
            continue
        vec = np.zeros(alg.dim, dtype=np.int64)
        for k, c in comps.items():
            vec[k] = c
        batch.append(vec)
        if len(batch) >= 512:
            sub, _ = _absorb(sub, np.array(batch))
            batch = []
            if sub.dim == alg.dim:
                return sub
    if batch:
        sub, _ = _absorb(sub, np.array(batch))
    return sub


def closure(sub: Subspace, images) -> Subspace:
    """Smallest subspace containing sub that holds images(frontier, span)
    for the rows it spans.  Only rows new since the last round form the
    frontier, and span is the subspace as it stood at the start of that
    round; images returns a sparse matrix whose rows join the span."""
    frontier = sub.rows
    while len(frontier) and sub.dim < sub.ambient:
        sub, frontier = _absorb(sub, _dense_rows(images(frontier, sub)))
    return sub


def _both_orders(alg: ModularSuperAlgebra, u, v) -> sp.csr_matrix:
    """[u, v], and [v, u] only if a row of u or v mixes parities: on a super
    skew algebra [y, x] = -(-1)^{|x||y|} [x, y] for homogeneous x and y."""
    mixed = any((m[:, alg.parity == 0].any(axis=1) & m[:, alg.parity == 1].any(axis=1)).any() for m in (u, v))
    return sp.vstack([alg.brackets(u, v), alg.brackets(v, u)]) if mixed else alg.brackets(u, v)


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
    coeffs = products[:, pivots]
    escaped = products - coeffs @ sp.csr_matrix(rows)
    if (escaped.data % alg.p).any():
        raise ValueError("subspace is not bracket-closed")
    new = ModularSuperAlgebra(
        p=alg.p,
        dim=n,
        parity=parity,
        constants=constants_from_products(coeffs, n, alg.p),
        labels=[f"sub[{i}]" for i in range(n)],
    )
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
    if ideal.reduce_rows(_dense_rows(alg.brackets(ideal.rows, eye))).any():
        raise NotAnIdeal("[ideal, g] escapes the ideal")
    if ideal.reduce_rows(_dense_rows(alg.brackets(eye, ideal.rows))).any():
        raise NotAnIdeal("[g, ideal] escapes the ideal")
    keep = [c for c in range(alg.dim) if c not in set(ideal.pivots)]
    qdim = len(keep)
    proj = ideal.reduce_rows(eye).T[keep] % alg.p
    # row a*qdim+b: the projection of [b_keep[a], b_keep[b]]
    images = alg.brackets(eye[keep], eye[keep]) @ sp.csr_matrix(proj.T)
    images.data %= alg.p
    parity = alg.parity[keep]
    labels = [alg.labels[c] if alg.labels else f"q[{c}]" for c in keep]
    quot = ModularSuperAlgebra(p=alg.p, dim=qdim, parity=parity,
                               constants=constants_from_products(images, qdim, alg.p), labels=labels)
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
