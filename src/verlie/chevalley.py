"""Integral Chevalley structure constants and their reductions mod p.

Basis order for a rank-n algebra with N positive roots:
  [x_gamma for gamma positive, canonical order] +
  [x_{-gamma}, same order] + [h_1 .. h_n],
so dim = 2N + n.  Signs are fixed by the extraspecial-pair convention: for
each non-simple positive root gamma the special pair (alpha, beta) with
alpha minimal gets N_{alpha,beta} = +(p+1), p the length of the descending
alpha-string below beta; every other constant follows from the Jacobi
identity and the standard three-root proportionality over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import JacobiViolation
from .fp import check_modulus
from .roots import GCM, Root, RootSystem, catalog_gcm, positive_roots
from .superalgebra import Constants, ModularSuperAlgebra, jacobi_witness, make_constants


@dataclass
class IntegralLieAlgebra:
    gcm: GCM
    roots: RootSystem
    dim: int
    labels: list[str]
    constants: Constants  # over Z, every nonzero ordered pair

    @property
    def rank(self) -> int:
        return self.gcm.n

    @property
    def npos(self) -> int:
        return len(self.roots.positive)

    def e_index(self, gamma: Root) -> int:
        return self.roots.index(gamma)

    def f_index(self, gamma: Root) -> int:
        return self.npos + self.roots.index(gamma)

    def h_index(self, i: int) -> int:
        return 2 * self.npos + (i - 1)

    def generator_index(self, kind: str, i: int) -> int:
        if kind == "h":
            if not 1 <= i <= self.rank:
                raise ValueError(f"h{i} out of range")
            return self.h_index(i)
        simple = self.roots.simple(i)
        return self.e_index(simple) if kind == "e" else self.f_index(simple)


def _special_pairs(rs: RootSystem):
    """For each non-simple positive root gamma: its ordered special pairs
    (alpha before beta in the canonical order), extraspecial pair first."""
    out: dict[Root, list[tuple[Root, Root]]] = {}
    pos = rs.positive
    for gamma in pos:
        if gamma.height < 2:
            continue
        pairs = []
        for alpha in pos:
            if 2 * alpha.height > gamma.height:
                break
            beta = gamma - alpha
            if rs.is_positive(beta) and _sort_lt(alpha, beta):
                pairs.append((alpha, beta))
        pairs.sort(key=lambda ab: (ab[0].height, ab[0].coords))
        out[gamma] = pairs
    return out


def _sort_lt(a: Root, b: Root) -> bool:
    return (a.height, a.coords) < (b.height, b.coords)


def _string_down(rs: RootSystem, alpha: Root, beta: Root) -> int:
    """Largest k with beta - k*alpha a root."""
    k = 0
    while rs.is_root(beta - Root(tuple(c * (k + 1) for c in alpha.coords))):
        k += 1
    return k


class _SignTable:
    """Structure constants N_{a,b} for all root pairs, bootstrapped over Q."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.t: dict[tuple[Root, Root], int] = {}
        self._form_cache: dict[Root, Fraction] = {}
        for gamma, pairs in sorted(_special_pairs(rs).items(), key=lambda kv: (kv[0].height, kv[0].coords)):
            a1, b1 = pairs[0]
            self.t[(a1, b1)] = _string_down(rs, a1, b1) + 1
            for alpha, beta in pairs[1:]:
                self.t[(alpha, beta)] = self._solve_pair(alpha, beta, a1, b1)
        for (alpha, beta), val in list(self.t.items()):
            expect = _string_down(rs, alpha, beta) + 1
            if abs(val) != expect:
                raise JacobiViolation(f"|N| = {abs(val)} != {expect} for a special pair")

    def _norm(self, r: Root) -> Fraction:
        if r not in self._form_cache:
            self._form_cache[r] = self.rs.form(r, r)
        return self._form_cache[r]

    def _pp(self, a: Root, b: Root) -> int:
        """N for a pair of positive roots with a + b a positive root."""
        if (a, b) in self.t:
            return self.t[(a, b)]
        return -self.t[(b, a)]

    def n_any(self, a: Root, b: Root) -> Fraction:
        """N_{a,b} for any two roots with a + b a root."""
        pos_a = self.rs.is_positive(a)
        pos_b = self.rs.is_positive(b)
        if pos_a and pos_b:
            return Fraction(self._pp(a, b))
        if not pos_a and not pos_b:
            return -self.n_any(-a, -b)
        z = -(a + b)
        if pos_a:
            if self.rs.is_positive(-z):
                return self._norm(z) / self._norm(a) * self.n_any(b, z)
            return self._norm(z) / self._norm(b) * self.n_any(z, a)
        if self.rs.is_positive(-z):
            return self._norm(z) / self._norm(b) * self.n_any(z, a)
        return self._norm(z) / self._norm(a) * self.n_any(b, z)

    def _solve_pair(self, alpha: Root, beta: Root, a1: Root, b1: Root) -> int:
        """Jacobi identity on (x_{a1}, x_{b1}, x_{-alpha}), all terms in the
        beta root space, solved for the one unknown N_{alpha,beta}."""
        gamma = alpha + beta
        acc = Fraction(0)
        delta = b1 - alpha
        if self.rs.is_root(delta):
            acc += self.n_any(b1, -alpha) * self.n_any(delta, a1)
        eta = a1 - alpha
        if self.rs.is_root(eta):
            acc += self.n_any(-alpha, a1) * self.n_any(eta, b1)
        coef = Fraction(self.t[(a1, b1)]) * self._norm(beta) / self._norm(gamma)
        val = acc / coef
        if val.denominator != 1:
            raise JacobiViolation(f"non-integral structure constant {val}")
        return int(val)


def chevalley_basis(gcm: GCM) -> IntegralLieAlgebra:
    """Integral Chevalley basis of the finite-type algebra with this Cartan matrix."""
    if not gcm.all_even:
        raise ValueError("Chevalley construction needs a purely even Cartan matrix")
    rs = positive_roots(gcm)
    signs = _SignTable(rs)
    npos = len(rs.positive)
    n = gcm.n
    dim = 2 * npos + n
    labels = (
        [f"e@{list(g.coords)}" for g in rs.positive]
        + [f"f@{list(g.coords)}" for g in rs.positive]
        + [f"h@{i}" for i in range(1, n + 1)]
    )
    entries: list[tuple[int, int, int, int]] = []

    def emit(i: int, j: int, k: int, c: int):
        if c:
            entries.append((i, j, k, c))
            entries.append((j, i, k, -c))

    norm = {g: rs.form(g, g) for g in rs.positive}
    d_sym = rs.symmetrizer()
    for gi, gamma in enumerate(rs.positive):
        # [e_gamma, f_gamma] = h_gamma expanded over simple coroots
        for i in range(n):
            coef = Fraction(gamma.coords[i]) * 2 * d_sym[i] / norm[gamma]
            if coef:
                if coef.denominator != 1:
                    raise JacobiViolation("non-integral coroot expansion")
                emit(gi, npos + gi, 2 * npos + i, int(coef))
        # Cartan action
        for i in range(1, n + 1):
            c = rs.pairing(gamma, i)
            emit(2 * npos + i - 1, gi, gi, c)
            emit(2 * npos + i - 1, npos + gi, npos + gi, -c)
        for di, delta in enumerate(rs.positive):
            s = gamma + delta
            if rs.is_positive(s):
                nval = signs._pp(gamma, delta) if _sort_lt(gamma, delta) else (
                    -signs._pp(delta, gamma) if _sort_lt(delta, gamma) else 0
                )
                if gi < di and nval:
                    si = rs.index(s)
                    emit(gi, di, si, nval)  # [e,e]
                    emit(npos + gi, npos + di, npos + si, -nval)  # [f,f]
            diff = gamma - delta
            if gamma != delta and rs.is_root(diff):
                nval = signs.n_any(gamma, -delta)
                if nval.denominator != 1:
                    raise JacobiViolation("non-integral mixed constant")
                nval = int(nval)
                if rs.is_positive(diff):
                    emit(gi, npos + di, rs.index(diff), nval)
                else:
                    emit(gi, npos + di, npos + rs.index(-diff), nval)

    constants: Constants = {}
    for i, j, k, c in entries:
        if c:
            constants.setdefault((i, j), {})[k] = constants.setdefault((i, j), {}).get(k, 0) + c
    # read-only: integral_catalog shares one basis per name with every caller
    constants = {key: MappingProxyType({k: c for k, c in comps.items() if c}) for key, comps in constants.items()}
    constants = MappingProxyType({key: comps for key, comps in constants.items() if comps})
    return IntegralLieAlgebra(gcm=gcm, roots=rs, dim=dim, labels=labels, constants=constants)


def integral_jacobi_witness(alg: IntegralLieAlgebra):
    """First basis triple violating the Jacobi identity over Z, or None."""
    parity = np.zeros(alg.dim, dtype=np.int64)
    return jacobi_witness(alg.constants, parity, alg.dim, None)


def integral_antisymmetry_ok(alg: IntegralLieAlgebra) -> bool:
    for (i, j), comps in alg.constants.items():
        mirror = alg.constants.get((j, i), {})
        for k in set(comps) | set(mirror):
            if comps.get(k, 0) != -mirror.get(k, 0):
                return False
    return True


def reduce_mod_p(alg: IntegralLieAlgebra, p: int) -> ModularSuperAlgebra:
    """Reduce the integral constants mod an odd prime; all-even parity."""
    check_modulus(p, alg.dim)
    entries = []
    for (i, j), comps in alg.constants.items():
        for k, c in comps.items():
            entries.append((i, j, k, c % p))
    gens = {}
    eye = np.eye(alg.dim, dtype=np.int64)
    for i in range(1, alg.rank + 1):
        gens[f"e{i}"] = eye[alg.generator_index("e", i)]
        gens[f"f{i}"] = eye[alg.generator_index("f", i)]
        gens[f"h{i}"] = eye[alg.generator_index("h", i)]
    return ModularSuperAlgebra(
        p=p,
        dim=alg.dim,
        parity=np.zeros(alg.dim, dtype=np.int64),
        constants=make_constants(entries, p),
        labels=list(alg.labels),
        gens=gens,
        origin=alg,
    )


def gl(n: int, p: int) -> ModularSuperAlgebra:
    """gl_n over F_p on elementary matrices: [E_ij, E_kl] = d_jk E_il - d_li E_kj.

    Generators e_i = E_{i,i+1}, f_i = E_{i+1,i}, h_i = E_ii - E_{i+1,i+1}.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    dim = n * n
    check_modulus(p, dim)

    def idx(i: int, j: int) -> int:
        return (i - 1) * n + (j - 1)

    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if j == k:
                        entries.append((idx(i, j), idx(k, l), idx(i, l), 1))
                    if l == i:
                        entries.append((idx(i, j), idx(k, l), idx(k, j), -1))
    labels = [f"E[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
    eye = np.eye(dim, dtype=np.int64)
    gens = {}
    for i in range(1, n):
        gens[f"e{i}"] = eye[idx(i, i + 1)]
        gens[f"f{i}"] = eye[idx(i + 1, i)]
        gens[f"h{i}"] = (eye[idx(i, i)] - eye[idx(i + 1, i + 1)]) % p
    return ModularSuperAlgebra(
        p=p, dim=dim, parity=np.zeros(dim, dtype=np.int64),
        constants=make_constants(entries, p), labels=labels, gens=gens,
    )


def sl(n: int, p: int) -> ModularSuperAlgebra:
    """sl_n over F_p: off-diagonal E_ij plus H_i = E_ii - E_{i+1,i+1}."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    dim = len(off) + n - 1
    check_modulus(p, dim)
    pos = {pair: k for k, pair in enumerate(off)}

    def as_matrix(b: int) -> np.ndarray:
        m = np.zeros((n, n), dtype=np.int64)
        if b < len(off):
            i, j = off[b]
            m[i - 1, j - 1] = 1
        else:
            i = b - len(off)
            m[i, i] = 1
            m[i + 1, i + 1] = -1
        return m

    def expand(m: np.ndarray) -> dict[int, int]:
        out = {}
        for i in range(n):
            for j in range(n):
                if i != j and m[i, j]:
                    out[pos[(i + 1, j + 1)]] = int(m[i, j])
        partial = 0
        for i in range(n - 1):
            partial += int(m[i, i])
            if partial:
                out[len(off) + i] = partial
        return out

    entries = []
    mats = [as_matrix(b) for b in range(dim)]
    for a in range(dim):
        for b in range(dim):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            for k, c in expand(comm).items():
                entries.append((a, b, k, c))
    labels = [f"E[{i},{j}]" for i, j in off] + [f"H[{i}]" for i in range(1, n)]
    eye = np.eye(dim, dtype=np.int64)
    gens = {}
    for i in range(1, n):
        gens[f"e{i}"] = eye[pos[(i, i + 1)]]
        gens[f"f{i}"] = eye[pos[(i + 1, i)]]
        gens[f"h{i}"] = eye[len(off) + i - 1]
    return ModularSuperAlgebra(
        p=p, dim=dim, parity=np.zeros(dim, dtype=np.int64),
        constants=make_constants(entries, p), labels=labels, gens=gens,
    )


def free_nilpotent_example(p: int = 3) -> tuple[ModularSuperAlgebra, np.ndarray]:
    """The free Lie algebra on x, y truncated above degree 3, with the
    square-zero-on-generators derivation d(x) = y, d(y) = 0.

    Basis {x, y, [x,y], [x,[x,y]], [y,[y,x]]}; returns (algebra, derivation matrix).
    """
    labels = ["x", "y", "[x,y]", "[x,[x,y]]", "[y,[y,x]]"]
    entries = [
        (0, 1, 2, 1), (1, 0, 2, -1),   # [x,y] = z
        (0, 2, 3, 1), (2, 0, 3, -1),   # [x,z] = [x,[x,y]]
        (1, 2, 4, -1), (2, 1, 4, 1),   # [y,z] = -[y,[y,x]]
    ]
    alg = ModularSuperAlgebra(
        p=p, dim=5, parity=np.zeros(5, dtype=np.int64),
        constants=make_constants(entries, p), labels=labels,
    )
    der = np.zeros((5, 5), dtype=np.int64)
    der[1, 0] = 1          # x -> y
    der[4, 3] = (-1) % p   # [x,[x,y]] -> -[y,[y,x]]
    return alg, der


def g2_scaled(p: int = 3) -> ModularSuperAlgebra:
    """Alternative integral form of the rank-2 exceptional algebra: the root
    vectors at beta+2alpha, beta+3alpha, 2beta+3alpha (and their negatives)
    are rescaled by the ad-string factorials 2, 6, 6.

    Over Z this spans a different lattice than the Chevalley basis; mod 3 the
    top two root pairs span a 4-dimensional ideal, and the semisimplification
    with respect to e_beta carries a (0|2) odd ideal with quotient of
    superdimension (3|2).  The Chevalley reduction itself has no such ideal.
    """
    from fractions import Fraction

    from .roots import Root

    base = integral_catalog("g2")
    factors = {Root((2, 1)): 2, Root((3, 1)): 6, Root((3, 2)): 6}
    scale = [1] * base.dim
    for root, factor in factors.items():
        scale[base.e_index(root)] = factor
        scale[base.f_index(root)] = factor
    entries = []
    for (i, j), comps in base.constants.items():
        for k, c in comps.items():
            val = Fraction(scale[i] * scale[j] * c, scale[k])
            if val.denominator != 1:
                raise JacobiViolation("rescaled constants are not integral")
            entries.append((i, j, k, int(val) % p))
    gens = {}
    eye = np.eye(base.dim, dtype=np.int64)
    for i in (1, 2):
        gens[f"e{i}"] = eye[base.generator_index("e", i)]
        gens[f"f{i}"] = eye[base.generator_index("f", i)]
        gens[f"h{i}"] = eye[base.generator_index("h", i)]
    return ModularSuperAlgebra(
        p=p, dim=base.dim, parity=np.zeros(base.dim, dtype=np.int64),
        constants=make_constants(entries, p), labels=list(base.labels),
        gens=gens, origin=base,
    )


@lru_cache(maxsize=None)
def integral_catalog(name: str) -> IntegralLieAlgebra:
    return chevalley_basis(catalog_gcm(name))


@lru_cache(maxsize=None)
def catalog_algebra(name: str, p: int) -> ModularSuperAlgebra:
    """Named catalog algebra reduced mod p; 'gl<n>' and 'sl<n>' are accepted too.

    The result is shared by every caller, so its structure constants,
    generator vectors and parity are read-only.
    """
    check_modulus(p)
    name = name.lower()
    if name.startswith("gl"):
        alg = gl(int(name[2:]), p)
    elif name.startswith("sl") and name[2:].isdigit():
        alg = sl(int(name[2:]), p)
    else:
        alg = reduce_mod_p(integral_catalog(name), p)
    for vec in [alg.parity, *alg.gens.values()]:
        vec.setflags(write=False)
    alg.constants = MappingProxyType({key: MappingProxyType(comps) for key, comps in alg.constants.items()})
    return alg
