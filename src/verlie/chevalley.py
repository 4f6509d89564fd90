"""Integral Chevalley structure constants and their reductions mod p.

Basis order for a rank-n algebra with N positive roots:
  [x_gamma for gamma positive, canonical order] +
  [x_{-gamma}, same order] + [h_1 .. h_n],
so dim = 2N + n.  Signs are fixed by the extraspecial-pair convention: for
each non-simple positive root gamma the special pair (alpha, beta) with
alpha minimal gets N_{alpha,beta} = +(p+1), p the length of the descending
alpha-string below beta; every other constant follows from the Jacobi
identity and the standard three-root proportionality, in exact integer
arithmetic over root indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import sparse
from .errors import BadSpec, JacobiViolation
from .fp import check_modulus
from .roots import GCM, Root, RootSystem, catalog_gcm, positive_roots
from .superalgebra import ModularSuperAlgebra, read_back


@dataclass(frozen=True, eq=False)
class IntegralLieAlgebra:
    """Frozen, with tuple labels and entries held by sparse.frozen: integral_catalog shares one per name."""

    gcm: GCM
    roots: RootSystem
    dim: int
    labels: tuple[str, ...]
    # (nnz, 4) int64 rows (i, j, k, C(i,j,k)) over Z, one per nonzero constant, each bracket followed by its mirror
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "entries", sparse.frozen(self.entries))

    @property
    def constants(self) -> Mapping[tuple[int, int], Mapping[int, int]]:
        """(i, j) -> {k: C(i,j,k)} in the order of `entries`: a read-only view built on each call."""
        out: dict[tuple[int, int], dict[int, int]] = {}
        for i, j, k, c in self.entries.tolist():
            out.setdefault((i, j), {})[k] = c
        return MappingProxyType({pair: MappingProxyType(comps) for pair, comps in out.items()})

    def tensor(self, p: int | None = None) -> sparse.Coo:
        """The sorted COO L[i, k*dim+j] = C(i,j,k), reduced mod p (exact over Z if p is None)."""
        i, j, k, c = self.entries.T
        return sparse.from_entries(i, k * self.dim + j, c, (self.dim, self.dim * self.dim), p)

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


def _exact_div(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer: JacobiViolation(what) otherwise."""
    quot, rem = divmod(num, den)
    if rem:
        g = gcd(num, den)
        raise JacobiViolation(f"{what} {num // g}/{den // g}")
    return quot


def chevalley_basis(gcm: GCM) -> IntegralLieAlgebra:
    """Integral Chevalley basis of the finite-type algebra with this Cartan matrix.

    Root r < npos is positive root r and npos + r its negative, so a root's
    index is also the basis index of x_r.  Each root is keyed by one int, its
    coordinates in balanced base 4m + 1 (m the largest coefficient), which
    keeps every sum or difference of two roots exact: the root a + b is
    ``at.get(key[a] + key[b], -1)``.
    """
    if not gcm.all_even:
        raise ValueError("Chevalley construction needs a purely even Cartan matrix")
    rs = positive_roots(gcm)
    pos = rs.positive
    npos = len(pos)
    n = gcm.n
    dim = 2 * npos + n
    base = 4 * max(max(g.coords) for g in pos) + 1
    key = [sum(c * base**i for i, c in enumerate(g.coords)) for g in pos]
    key += [-k for k in key]
    at = {k: r for r, k in enumerate(key)}
    height = [g.height for g in pos]
    d = rs.symmetrizer()
    norm = [sum(d[i] * gcm.entries[i][j] * g.coords[i] * g.coords[j] for i in range(n) for j in range(n)) for g in pos]
    norm += norm

    def neg(r: int) -> int:
        return r + npos if r < npos else r - npos

    def string_down(a: int, b: int) -> int:
        """Largest k with b - k*a a root (each key tried is a root minus a, so exact)."""
        k, cur = 0, key[b] - key[a]
        while cur in at:
            k, cur = k + 1, cur - key[a]
        return k

    # N_{a,b} for positive a < b with a + b a root: the extraspecial pair of
    # each gamma gets +(string length + 1), the other special pairs of gamma
    # follow from the Jacobi identity on (x_a1, x_b1, x_-alpha), whose terms
    # all lie in the beta root space
    t: dict[tuple[int, int], int] = {}

    def n_pos(a: int, b: int) -> int:
        return t[(a, b)] if a < b else -t[(b, a)]

    def n_any(a: int, b: int) -> int:
        """N_{a,b} for two roots, not both negative, with a + b a root."""
        if a < npos and b < npos:
            return n_pos(a, b)
        # N_{a,b}/(z,z) = N_{b,z}/(a,a) = N_{z,a}/(b,b) for a + b + z = 0, and (b, z) or
        # (z, a) has a common sign: its constant is read from t, negated when both are negative
        z = neg(at[key[a] + key[b]])
        if (a < npos) == (z >= npos):
            same = n_pos(b, z) if z < npos else -n_pos(b - npos, z - npos)
            return _exact_div(norm[z] * same, norm[a], "non-integral mixed constant")
        same = n_pos(z, a) if a < npos else -n_pos(z - npos, a - npos)
        return _exact_div(norm[z] * same, norm[b], "non-integral mixed constant")

    for gamma in range(npos):
        pairs = []
        for alpha in range(npos):
            if 2 * height[alpha] > height[gamma]:
                break
            beta = at.get(key[gamma] - key[alpha], -1)
            if alpha < beta < npos:
                pairs.append((alpha, beta))
        if not pairs:
            continue
        a1, b1 = pairs[0]
        t[(a1, b1)] = string_down(a1, b1) + 1
        for alpha, beta in pairs[1:]:
            acc = 0
            delta = at.get(key[b1] - key[alpha], -1)
            if delta >= 0:
                acc += n_any(b1, neg(alpha)) * n_any(delta, a1)
            eta = at.get(key[a1] - key[alpha], -1)
            if eta >= 0:
                acc += n_any(neg(alpha), a1) * n_any(eta, b1)
            t[(alpha, beta)] = _exact_div(
                acc * norm[gamma], t[(a1, b1)] * norm[beta], "non-integral structure constant"
            )
    for (alpha, beta), val in t.items():
        expect = string_down(alpha, beta) + 1
        if abs(val) != expect:
            raise JacobiViolation(f"|N| = {abs(val)} != {expect} for a special pair")

    labels = (
        [f"e@{list(g.coords)}" for g in pos]
        + [f"f@{list(g.coords)}" for g in pos]
        + [f"h@{i}" for i in range(1, n + 1)]
    )
    flat: list[int] = []

    def emit(i: int, j: int, k: int, c: int):
        # every (i, j, k) is emitted at most once and i != j, so no two rows share a position
        if c:
            flat.extend((i, j, k, c, j, i, k, -c))

    for gi, gamma in enumerate(pos):
        # [e_gamma, f_gamma] = h_gamma expanded over simple coroots
        for i, c in enumerate(gamma.coords):
            if c:
                emit(gi, npos + gi, 2 * npos + i, _exact_div(2 * c * d[i], norm[gi], "non-integral coroot expansion"))
        # Cartan action
        for i in range(1, n + 1):
            c = rs.pairing(gamma, i)
            emit(2 * npos + i - 1, gi, gi, c)
            emit(2 * npos + i - 1, npos + gi, npos + gi, -c)
        for di in range(npos):
            s = at.get(key[gi] + key[di], -1)
            if gi < di and s >= 0:
                emit(gi, di, s, t[(gi, di)])  # [e,e]
                emit(npos + gi, npos + di, npos + s, -t[(gi, di)])  # [f,f]
            diff = at.get(key[gi] - key[di], -1)
            if diff >= 0:
                emit(gi, npos + di, diff, n_any(gi, npos + di))

    entries = np.reshape(flat, (-1, 4))
    flat.clear()  # freed before the entries are copied into their frozen buffer
    return IntegralLieAlgebra(gcm=gcm, roots=rs, dim=dim, labels=labels, entries=entries)


def _generators(dim: int, p: int, terms: dict[str, dict[int, int]]) -> dict[str, np.ndarray]:
    """Generators named by their coordinates {index: coefficient}, as the
    read-only rows of one (generators, dim) array reduced mod p."""
    rows = np.zeros((len(terms), dim), dtype=np.int64)
    for row, coeffs in zip(rows, terms.values()):
        row[list(coeffs)] = list(coeffs.values())
    rows %= p
    rows.setflags(write=False)
    return dict(zip(terms, rows))


def reduce_mod_p(alg: IntegralLieAlgebra, p: int) -> ModularSuperAlgebra:
    """Reduce the integral constants mod an odd prime; all-even parity."""
    check_modulus(p, alg.dim)
    terms = {}
    for i in range(1, alg.rank + 1):  # e_i and f_i at the simple root alpha_i, h_i after both root blocks
        root = alg.roots.simple(i)
        terms |= {f"e{i}": {alg.e_index(root): 1}, f"f{i}": {alg.f_index(root): 1}, f"h{i}": {2 * alg.npos + i - 1: 1}}
    gens = _generators(alg.dim, p, terms)
    return ModularSuperAlgebra(p, alg.dim, np.zeros(alg.dim, dtype=np.int64), alg.tensor(p), list(alg.labels),
                               gens, origin=alg)


def gl(n: int, p: int) -> ModularSuperAlgebra:
    """gl_n over F_p on elementary matrices: [E_ij, E_kl] = d_jk E_il - d_li E_kj.

    Generators e_i = E_{i,i+1}, f_i = E_{i+1,i}, h_i = E_ii - E_{i+1,i+1}.
    """
    if n < 1:
        raise BadSpec("rank must be positive")
    dim = n * n
    check_modulus(p, dim)
    # for every x, y, z: [E_xy, E_yz] gains E_xz and [E_yz, E_xy] loses it (x = y = z cancels)
    x, y, z = np.indices((n, n, n)).reshape(3, -1)
    xy, yz, xz = x * n + y, y * n + z, x * n + z
    ones = np.ones(len(x), dtype=np.int64)
    labels = [f"E[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
    terms = {}
    for i in range(n - 1):
        terms |= {f"e{i + 1}": {i * n + i + 1: 1}, f"f{i + 1}": {(i + 1) * n + i: 1},
                  f"h{i + 1}": {i * (n + 1): 1, (i + 1) * (n + 1): -1}}
    return ModularSuperAlgebra.from_entries(p, np.zeros(dim, dtype=np.int64), np.concatenate([xy, yz]),
                                            np.concatenate([yz, xy]), np.concatenate([xz, xz]),
                                            np.concatenate([ones, -ones]), labels=labels,
                                            gens=_generators(dim, p, terms))


def sl(n: int, p: int) -> ModularSuperAlgebra:
    """sl_n over F_p, the subalgebra of gl_n on the off-diagonal E_ij, row-major,
    then H_i = E_ii - E_{i+1,i+1}."""
    if n < 2:
        raise BadSpec("rank must be at least 2")
    off = [i * n + j for i in range(n) for j in range(n) if i != j]  # E_ij in gl_n
    dim = len(off) + n - 1
    check_modulus(p, dim)
    h, diag = np.arange(len(off), dim), np.arange(n - 1) * (n + 1)  # H_m, and E_mm in gl_n for m < n
    rows = np.zeros((dim, n * n), dtype=np.int64)
    rows[np.arange(len(off)), off] = 1
    rows[h, diag] = 1
    rows[h, diag + n + 1] = p - 1
    # a left inverse of the rows: E_ij to its own index, E_mm to 1 at H_m ... H_{n-1}; the trace is dropped
    inverse = np.zeros((n * n, dim), dtype=np.int64)
    inverse[off, np.arange(len(off))] = 1
    for m in range(n - 1):
        inverse[m * (n + 1), len(off) + m:] = 1
    labels = [f"E[{k // n + 1},{k % n + 1}]" for k in off] + [f"H[{i}]" for i in range(1, n)]
    terms = {}
    for i in range(n - 1):  # E_{i,i+1} and E_{i+1,i} sit at i*n and i*n + n - 1 of the off-diagonal order
        terms |= {f"e{i + 1}": {i * n: 1}, f"f{i + 1}": {i * n + n - 1: 1}, f"h{i + 1}": {len(off) + i: 1}}
    return read_back(gl(n, p), rows, inverse, np.zeros(dim, dtype=np.int64), labels, _generators(dim, p, terms))


@lru_cache(maxsize=None)
def integral_catalog(name: str) -> IntegralLieAlgebra:
    return chevalley_basis(catalog_gcm(name))


@lru_cache(maxsize=None)
def catalog_algebra(name: str, p: int) -> ModularSuperAlgebra:
    """Named catalog algebra reduced mod p; 'gl<n>' and 'sl<n>' are accepted too.

    The result is shared by every caller: like every algebra, its fields
    cannot be rebound and its tensor arrays, parity and generator vectors
    are read-only.
    """
    check_modulus(p)
    name = name.lower()
    if name[:2] in ("gl", "sl") and name[2:].isascii() and name[2:].isdigit():  # the rank is a run of ASCII digits
        return (gl if name[:2] == "gl" else sl)(int(name[2:]), p)
    return reduce_mod_p(integral_catalog(name), p)
