"""Finite-dimensional superalgebras over F_p given by sparse structure constants.

A ModularSuperAlgebra is a basis with parity labels and a sparse tensor
C(i,j,k) over F_p; Lie algebras are the all-even case.  Structural
operations (center, derived subalgebra, generated subalgebras, ideal
closures, quotients) all work on subspaces kept in reduced echelon form so
that equality and containment are exact and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _adl: list | None = field(default=None, repr=False, compare=False)
    _adr: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.parity = np.asarray(self.parity, dtype=np.int64)
        if self.parity.shape != (self.dim,):
            raise ValueError("parity length must equal dim")

    # -- bracket machinery ------------------------------------------------

    def _flat_ads(self):
        """Cached CSRs: L[i, k*dim+j] = C(i,j,k) and R[j, k*dim+i] = C(i,j,k)."""
        if self._adl is None:
            d = self.dim
            i, j, k, c = _tensor_coo(self.constants)
            self._adl = sp.csr_matrix((c, (i, k * d + j)), shape=(d, d * d), dtype=np.int64)
            self._adr = sp.csr_matrix((c, (j, k * d + i)), shape=(d, d * d), dtype=np.int64)
        return self._adl, self._adr

    def ad(self, v) -> np.ndarray:
        """Dense matrix of x -> [v, x]."""
        v = fp.normalize(v, self.p)
        left, _ = self._flat_ads()
        flat = sp.csr_matrix(v.reshape(1, -1)) @ left
        return np.asarray(flat.todense(), dtype=np.int64).reshape(self.dim, self.dim) % self.p

    def ad_right(self, v) -> np.ndarray:
        """Dense matrix of x -> [x, v]."""
        v = fp.normalize(v, self.p)
        _, right = self._flat_ads()
        flat = sp.csr_matrix(v.reshape(1, -1)) @ right
        return np.asarray(flat.todense(), dtype=np.int64).reshape(self.dim, self.dim) % self.p

    def ad_basis(self, i: int) -> np.ndarray:
        """Dense matrix of x -> [b_i, x]."""
        left, _ = self._flat_ads()
        return np.asarray(left[i].todense(), dtype=np.int64).reshape(self.dim, self.dim)

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
                        coef = ui * int(v[j])
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
        constants: Constants = {}
        for i, j, k, c in data["constants"]:
            constants.setdefault((i, j), {})[k] = c % p
            if i != j:
                sign = 1 if (parity[i] == 1 and parity[j] == 1) else -1
                mirrored = (sign * c) % p
                if mirrored:
                    constants.setdefault((j, i), {})[k] = mirrored
        return cls(p=p, dim=dim, parity=parity, constants=constants, labels=data.get("labels"))


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


def jacobi_witness(constants: Constants, parity, dim: int, p: int | None):
    """First basis triple violating the (super) Jacobi identity, or None.

    Checks (-1)^{|i||k|}[[b_i,b_j],b_k] + (-1)^{|j||i|}[[b_j,b_k],b_i]
    + (-1)^{|k||j|}[[b_k,b_i],b_j] = 0 for every ordered triple, via three
    reindexings of the sparse product C1 @ C2.  p=None checks over Z.
    """
    if dim == 0 or not constants:
        return None
    par = np.asarray(parity, dtype=np.int64)
    d = dim
    # c1[(i*d+j), k] = C(i,j,k) and c2[i, (j*d+k)] = C(i,j,k)
    ci, cj, ck, cv = _tensor_coo(constants)
    c1 = sp.csr_matrix((cv, (ci * d + cj, ck)), shape=(d * d, d), dtype=np.int64)
    c2 = sp.csr_matrix((cv, (ci, cj * d + ck)), shape=(d, d * d), dtype=np.int64)
    block = max(1, min(d, (1 << 22) // max(1, d * d // 16)))
    idx = np.arange(d, dtype=np.int64)
    for start in range(0, d, block):
        blk = np.arange(start, min(start + block, d), dtype=np.int64)
        nb = len(blk)
        keys_parts, vals_parts = [], []
        # term 1: rows (i,j), cols (k,l), k restricted to blk
        cols1 = (blk[:, None] * d + idx[None, :]).ravel()
        t1 = c1[:, :] @ c2[:, cols1]
        t1 = t1.tocoo()
        if t1.nnz:
            i = t1.row // d
            j = t1.row % d
            k = blk[t1.col // d]
            l = t1.col % d
            s = 1 - 2 * (par[i] * par[k])
            keys_parts.append(((i * d + j) * d + k) * d + l)
            vals_parts.append(s * t1.data)
        # term 2: rows (j,k), cols (i,l)
        rows2 = (idx[:, None] * d + blk[None, :]).ravel()
        t2 = c1[rows2] @ c2
        t2 = t2.tocoo()
        if t2.nnz:
            j = t2.row // nb
            k = blk[t2.row % nb]
            i = t2.col // d
            l = t2.col % d
            s = 1 - 2 * (par[j] * par[i])
            keys_parts.append(((i * d + j) * d + k) * d + l)
            vals_parts.append(s * t2.data)
        # term 3: rows (k,i), cols (j,l)
        rows3 = (blk[:, None] * d + idx[None, :]).ravel()
        t3 = c1[rows3] @ c2
        t3 = t3.tocoo()
        if t3.nnz:
            k = blk[t3.row // d]
            i = t3.row % d
            j = t3.col // d
            l = t3.col % d
            s = 1 - 2 * (par[k] * par[j])
            keys_parts.append(((i * d + j) * d + k) * d + l)
            vals_parts.append(s * t3.data)
        if not keys_parts:
            continue
        keys = np.concatenate(keys_parts)
        vals = np.concatenate(vals_parts)
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=vals.astype(np.float64), minlength=len(uniq))
        sums = np.rint(sums).astype(np.int64)
        if p is not None:
            sums %= p
        bad = np.nonzero(sums)[0]
        if bad.size:
            key = int(uniq[bad[0]])
            l = key % d
            key //= d
            k = key % d
            key //= d
            j = key % d
            i = key // d
            return (i, j, k, l)
    return None


def check_super_jacobi(alg: ModularSuperAlgebra) -> Report:
    witness = jacobi_witness(alg.constants, alg.parity, alg.dim, alg.p)
    if witness is None:
        return Report("super_jacobi", True)
    i, j, k, _ = witness
    return Report("super_jacobi", False, {"i": i, "j": j, "k": k})


def _odd_tables(alg: ModularSuperAlgebra):
    """Dense tables for the odd part: W[a,b,:] = [odd_a, odd_b], ADo[a] = ad(odd_a)."""
    odd = np.nonzero(alg.parity == 1)[0]
    no, d = len(odd), alg.dim
    pos = {int(ia): a for a, ia in enumerate(odd)}
    w = np.zeros((no, no, d), dtype=np.float64)
    ado = np.zeros((no, d, d), dtype=np.float64)
    for (i, j), comps in alg.constants.items():
        a = pos.get(i)
        if a is None:
            continue
        for k, c in comps.items():
            ado[a, k, j] = c
        b = pos.get(j)
        if b is not None:
            for k, c in comps.items():
                w[a, b, k] = c
    return odd, w, ado


def odd_cube_generators(alg: ModularSuperAlgebra):
    """Spanning vectors of {[x,[x,x]] : x odd}, with a label per vector.

    Uses the polarization pieces of the cubic map q(x) = [x,[x,x]] over F_3
    (q(b_a); the c^2-coefficients A_{ab}; the trilinear coefficients B_{abc}),
    whose span equals the span of q on all sums of up to three distinct odd
    basis vectors with coefficients in {1, 2}.
    """
    p = alg.p
    odd, w, ado = _odd_tables(alg)
    no, d = len(odd), alg.dim
    out: list[tuple[np.ndarray, dict]] = []
    if no == 0:
        return out

    def push(vec: np.ndarray, label: dict):
        res = np.asarray(np.rint(vec), dtype=np.int64) % p
        if res.any():
            out.append((res, label))

    # q(b_a) = [b_a, W_aa]
    diag = w[np.arange(no), np.arange(no)]  # (no, d)
    qs = np.einsum("ade,ae->ad", ado, diag)
    for a in range(no):
        push(qs[a], {"kind": "cube", "nodes": [int(odd[a])]})
    # A_{ab} = 2[b_a, W_ab] + [b_b, W_aa]  (coefficient of c_a^2 c_b), a != b
    for a in range(no):
        t = ado[a] @ w[a].T  # (d, no), column b = [b_a, W_ab]
        s = np.einsum("bde,e->bd", ado, diag[a])  # (no, d), row b = [b_b, W_aa]
        piece = 2.0 * t.T + s
        for b in range(no):
            if b != a:
                push(piece[b], {"kind": "square", "nodes": [int(odd[a]), int(odd[b])]})
    # B_{abc} = 2([b_a, W_bc] + [b_b, W_ac] + [b_c, W_ab]), a < b < c
    for a in range(no):
        for b in range(a + 1, no):
            t1 = ado[a] @ w[b].T  # columns c
            t2 = ado[b] @ w[a].T
            t3 = np.einsum("cde,e->cd", ado, w[a, b]).T
            piece = 2.0 * (t1 + t2 + t3)
            for c in range(b + 1, no):
                push(piece[:, c], {"kind": "triple", "nodes": [int(odd[a]), int(odd[b]), int(odd[c])]})
    return out


def odd_cube_values_literal(alg: ModularSuperAlgebra):
    """q(x) on all sums of up to 3 distinct odd basis vectors with coefficients in {1, 2}."""
    from itertools import combinations, product

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
    even_rows, odd_rows = [], []
    for row in sub.rows:
        ev = row * (alg.parity == 0)
        od = row * (alg.parity == 1)
        if ev.any() and od.any():
            if not (sub.contains(ev) and sub.contains(od)):
                raise NotParityHomogeneous("subspace is not a sum of homogeneous parts")
        if ev.any():
            even_rows.append(ev)
        if od.any():
            odd_rows.append(od)
    even = fp.rref(np.atleast_2d(even_rows) if even_rows else np.zeros((0, alg.dim), dtype=np.int64), alg.p)
    odd = fp.rref(np.atleast_2d(odd_rows) if odd_rows else np.zeros((0, alg.dim), dtype=np.int64), alg.p)
    ev_mat = even[0][: len(even[1])]
    od_mat = odd[0][: len(odd[1])]
    if len(ev_mat) + len(od_mat) != sub.dim:
        raise NotParityHomogeneous("homogeneous parts do not add up")
    return ev_mat, od_mat


# -- structural operations ---------------------------------------------------


def center(alg: ModularSuperAlgebra) -> Subspace:
    """{x : [x, g] = 0}, as the iterated kernel of right-bracket maps."""
    eye = np.eye(alg.dim, dtype=np.int64)
    basis = eye
    for j in range(alg.dim):
        if basis.shape[0] == 0:
            break
        m = (alg.ad_right(eye[j]) @ basis.T) % alg.p
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
    """Smallest subspace containing sub that holds images(v, span) for every
    vector v it spans.  Only rows new since the last round are acted on, and
    span is the subspace as it stood at the start of that round."""
    frontier = sub.rows
    while len(frontier) and sub.dim < sub.ambient:
        span = sub
        sub, frontier = _absorb(sub, np.vstack([images(v, span) for v in frontier]))
    return sub


def generated_subalgebra(alg: ModularSuperAlgebra, vectors) -> Subspace:
    """Smallest bracket-closed subspace containing the vectors: fixpoint of
    bracketing the newly added rows against the current span."""

    def images(v, span):  # rows [v, row_j], then [row_j, v]
        return np.hstack([alg.ad(v) @ span.rows.T, alg.ad_right(v) @ span.rows.T]).T % alg.p

    return closure(Subspace.from_vectors(vectors, alg.dim, alg.p), images)


def ideal_closure(alg: ModularSuperAlgebra, vectors) -> Subspace:
    """Smallest subspace containing the vectors that is stable under
    bracketing with all of g."""

    def images(v, _):  # rows [v, b_j], then [b_j, v]
        return np.vstack([alg.ad(v).T, alg.ad_right(v).T])

    return closure(Subspace.from_vectors(vectors, alg.dim, alg.p), images)


def subalgebra_on(alg: ModularSuperAlgebra, sub: Subspace) -> tuple[ModularSuperAlgebra, np.ndarray]:
    """Algebra structure induced on a bracket-closed, parity-homogeneous subspace.

    Returns the new algebra and its basis rows (even block first) in ambient
    coordinates.
    """
    ev_mat, od_mat = _parity_split(alg, sub)
    rows = np.vstack([ev_mat, od_mat]) if len(ev_mat) or len(od_mat) else np.zeros((0, alg.dim), dtype=np.int64)
    # even block first, so the rows are not one echelon form; each row's
    # pivot is still zero in every other row
    pivots = []
    for row in rows:
        nz = np.nonzero(row)[0]
        pivots.append(int(nz[0]))
    parity = np.array([0] * len(ev_mat) + [1] * len(od_mat), dtype=np.int64)
    n = len(rows)
    entries = []
    for a in range(n):
        brackets = (alg.ad(rows[a]) @ rows.T).T % alg.p  # row b = [rows[a], rows[b]]
        coeffs = brackets[:, pivots] if pivots else np.zeros((n, 0), dtype=np.int64)
        if np.any((brackets - coeffs @ rows) % alg.p):
            raise ValueError("subspace is not bracket-closed")
        for b, k in zip(*np.nonzero(coeffs)):
            entries.append((a, int(b), int(k), int(coeffs[b, k])))
    new = ModularSuperAlgebra(
        p=alg.p,
        dim=n,
        parity=parity,
        constants=make_constants(entries, alg.p),
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
    ev_mat, od_mat = _parity_split(alg, ideal)  # raises NotParityHomogeneous
    rows = np.vstack([ev_mat, od_mat]) if len(ev_mat) or len(od_mat) else np.zeros((0, alg.dim), dtype=np.int64)
    pivots = [int(np.nonzero(r)[0][0]) for r in rows]
    for r in rows:
        if ideal.reduce_rows(alg.ad(r).T).any():
            raise NotAnIdeal("[ideal, g] escapes the ideal")
        if ideal.reduce_rows(alg.ad_right(r).T).any():
            raise NotAnIdeal("[g, ideal] escapes the ideal")
    pivot_set = set(pivots)
    keep = [c for c in range(alg.dim) if c not in pivot_set]
    qdim = len(keep)
    reducer = Subspace.from_vectors(rows, alg.dim, alg.p) if len(rows) else Subspace.zero(alg.dim, alg.p)
    proj = reducer.reduce_rows(np.eye(alg.dim, dtype=np.int64)).T[keep] % alg.p
    entries = []
    for a, ca in enumerate(keep):
        cols = alg.ad_basis(ca)[:, keep]  # column b = [b_ca, b_cb]
        img = (proj @ cols) % alg.p
        for k, b in zip(*np.nonzero(img)):
            entries.append((a, int(b), int(k), int(img[k, b])))
    parity = alg.parity[keep]
    labels = [alg.labels[c] if alg.labels else f"q[{c}]" for c in keep]
    quot = ModularSuperAlgebra(p=alg.p, dim=qdim, parity=parity, constants=make_constants(entries, alg.p), labels=labels)
    return QuotientAlgebra(parent=alg, ideal=reducer, quotient=quot, projection=proj)


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
