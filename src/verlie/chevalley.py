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

import numpy as np

from .errors import JacobiViolation
from .fp import check_modulus
from .roots import GCM, Root, RootSystem, catalog_gcm, positive_roots
from .superalgebra import Constants, ModularSuperAlgebra, jacobi_witness, skew_witness, tensor_coo


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
    memo: dict[tuple[int, int], int] = {}

    def n_any(a: int, b: int) -> int:
        """N_{a,b} for any two roots with a + b a root."""
        if (a, b) in memo:
            return memo[(a, b)]
        if a < npos and b < npos:
            val = t[(a, b)] if a < b else -t[(b, a)]
        elif a >= npos and b >= npos:
            val = -n_any(a - npos, b - npos)
        else:
            # N_{a,b}/(z,z) = N_{b,z}/(a,a) = N_{z,a}/(b,b) for a + b + z = 0
            z = neg(at[key[a] + key[b]])
            if (a < npos) == (z >= npos):
                val = _exact_div(norm[z] * n_any(b, z), norm[a], "non-integral mixed constant")
            else:
                val = _exact_div(norm[z] * n_any(z, a), norm[b], "non-integral mixed constant")
        memo[(a, b)] = val
        return val

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
    constants: dict[tuple[int, int], dict[int, int]] = {}

    def emit(i: int, j: int, k: int, c: int):
        # every (i, j, k) is emitted at most once, so nothing accumulates
        if c:
            constants.setdefault((i, j), {})[k] = c
            constants.setdefault((j, i), {})[k] = -c

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

    # read-only: integral_catalog shares one basis per name with every caller
    frozen = MappingProxyType({pair: MappingProxyType(comps) for pair, comps in constants.items()})
    return IntegralLieAlgebra(gcm=gcm, roots=rs, dim=dim, labels=labels, constants=frozen)


def integral_jacobi_witness(alg: IntegralLieAlgebra):
    """First basis triple violating the Jacobi identity over Z, or None."""
    return jacobi_witness(tensor_coo(alg.constants, alg.dim, None), np.zeros(alg.dim, dtype=np.int64), None)


def integral_antisymmetry_ok(alg: IntegralLieAlgebra) -> bool:
    """C(i,j,k) = -C(j,i,k) over Z for every triple."""
    return skew_witness(tensor_coo(alg.constants, alg.dim, None), np.zeros(alg.dim, dtype=np.int64), None) is None


def reduce_mod_p(alg: IntegralLieAlgebra, p: int) -> ModularSuperAlgebra:
    """Reduce the integral constants mod an odd prime; all-even parity."""
    check_modulus(p, alg.dim)
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
        tensor=tensor_coo(alg.constants, alg.dim, p),
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
    return ModularSuperAlgebra.from_entries(p, np.zeros(dim, dtype=np.int64), *np.transpose(entries),
                                            labels=labels, gens=gens)


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
    return ModularSuperAlgebra.from_entries(p, np.zeros(dim, dtype=np.int64), *np.transpose(entries),
                                            labels=labels, gens=gens)


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
    alg = ModularSuperAlgebra.from_entries(p, np.zeros(5, dtype=np.int64), *np.transpose(entries), labels=labels)
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
    base = integral_catalog("g2")
    factors = {Root((2, 1)): 2, Root((3, 1)): 6, Root((3, 2)): 6}
    scale = [1] * base.dim
    for root, factor in factors.items():
        scale[base.e_index(root)] = factor
        scale[base.f_index(root)] = factor
    entries = []
    for (i, j), comps in base.constants.items():
        for k, c in comps.items():
            val = _exact_div(scale[i] * scale[j] * c, scale[k], "rescaled constants are not integral")
            entries.append((i, j, k, val % p))
    gens = {}
    eye = np.eye(base.dim, dtype=np.int64)
    for i in (1, 2):
        gens[f"e{i}"] = eye[base.generator_index("e", i)]
        gens[f"f{i}"] = eye[base.generator_index("f", i)]
        gens[f"h{i}"] = eye[base.generator_index("h", i)]
    return ModularSuperAlgebra.from_entries(p, np.zeros(base.dim, dtype=np.int64), *np.transpose(entries),
                                            labels=list(base.labels), gens=gens, origin=base)


@lru_cache(maxsize=None)
def integral_catalog(name: str) -> IntegralLieAlgebra:
    return chevalley_basis(catalog_gcm(name))


@lru_cache(maxsize=None)
def catalog_algebra(name: str, p: int) -> ModularSuperAlgebra:
    """Named catalog algebra reduced mod p; 'gl<n>' and 'sl<n>' are accepted too.

    The result is shared by every caller, so its tensor arrays, generator
    vectors and parity are read-only.
    """
    check_modulus(p)
    name = name.lower()
    if name.startswith("gl"):
        alg = gl(int(name[2:]), p)
    elif name.startswith("sl") and name[2:].isdigit():
        alg = sl(int(name[2:]), p)
    else:
        alg = reduce_mod_p(integral_catalog(name), p)
    t = alg.tensor
    for vec in [alg.parity, *alg.gens.values(), t.row, t.col, t.data]:
        vec.setflags(write=False)
    return alg
