"""Semisimplification of a chain-decomposed realization, projected onto the
supervector-space subcategory.

Length-1 chains survive as even basis vectors, length-(p-1) chains as odd
ones; everything else dies (length p has categorical dimension zero, the
intermediate lengths fall outside the subcategory).  Structure constants
follow the head-coefficient rules; the odd-odd component uses the
alternating splitting vector sum_{a=1}^{p-1} (-1)^a v_a (x) w_{p-a}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fp, sparse
from .errors import JacobiViolation, MissingTags
from .repalpha import ChainDecomposition, JordanChain, Realization
from .superalgebra import ModularSuperAlgebra, Report, check_super_jacobi, check_super_skew


def clebsch_gordan(m: int, n: int, p: int) -> tuple[int, ...]:
    """Simple factors of L_m (x) L_n: {|m-n| + 2i - 1 : 1 <= i <= min(m, n, p-m, p-n)}."""
    if not (1 <= m <= p - 1 and 1 <= n <= p - 1):
        raise ValueError("labels must lie in 1..p-1")
    top = min(m, n, p - m, p - n)
    return tuple(abs(m - n) + 2 * i - 1 for i in range(1, top + 1))


def pairing_vector(realization: Realization, ci: JordanChain, cj: JordanChain) -> np.ndarray:
    """sum_{a=1}^{p-1} (-1)^a [ci[a], cj[p-a]], computed in the realized algebra."""
    alg = realization.algebra
    p = alg.p
    if ci.length != p - 1 or cj.length != p - 1:
        raise ValueError("pairing needs two chains of length p-1")
    out = np.zeros(alg.dim, dtype=np.int64)
    for a in range(1, p):
        sign = -1 if a % 2 else 1
        out = (out + sign * alg.bracket(ci.vectors[a - 1], cj.vectors[p - a - 1])) % p
    return out


@dataclass
class SemisimplifiedAlgebra:
    """Output superalgebra with provenance back to the input chains.

    Basis order: one even vector per length-1 chain, then one odd vector per
    length-(p-1) chain, both in decomposition order.  `checks` holds the
    super skew and super Jacobi reports of `algebra`, by check name.
    """

    algebra: ModularSuperAlgebra
    realization: Realization
    decomposition: ChainDecomposition
    even_chains: tuple[int, ...]
    odd_chains: tuple[int, ...]
    coords: np.ndarray = field(repr=False)  # row k: the coordinate at the head of survivor k
    checks: dict[str, Report] = field(repr=False)

    @property
    def p(self) -> int:
        return self.algebra.p

    def superdim(self) -> tuple[int, int]:
        return len(self.even_chains), len(self.odd_chains)

    def image(self, v) -> np.ndarray:
        """Functorial image of a vector: expansion coefficients at the
        length-1 vectors and at the heads of length-(p-1) chains."""
        return (self.coords @ fp.normalize(v, self.p)) % self.p

    def basis_index_of_chain(self, chain_index: int) -> int:
        survivors = self.even_chains + self.odd_chains
        if chain_index not in survivors:
            raise KeyError(f"chain {chain_index} does not survive")
        return survivors.index(chain_index)

    def tagged_basis(self) -> dict[tuple[str, int], int]:
        """Map (generator kind, node) -> output basis index, from chain tags."""
        out = {}
        for ci, chain in enumerate(self.decomposition.chains):
            if chain.tag is not None and chain.length in (1, self.p - 1):
                out[chain.tag] = self.basis_index_of_chain(ci)
        if not out:
            raise MissingTags("decomposition carries no generator tags")
        return out

    def provenance(self) -> list[dict]:
        return [{"index": a, "parity": int(a >= len(self.even_chains)), "chain": c,
                 "vectors": self.decomposition.chains[c].vectors.tolist()}
                for a, c in enumerate(self.even_chains + self.odd_chains)]

    def to_json_dict(self) -> dict:
        data = self.algebra.to_json_dict()
        data["provenance"] = self.provenance()
        return data


def _chain_labels(decomp: ChainDecomposition, chain_index: int) -> str:
    chain = decomp.chains[chain_index]
    if chain.tag is not None:
        kind, node = chain.tag
        return f"{kind}{node}~"
    return f"chain{chain_index}"


def semisimplify(realization: Realization, decomp: ChainDecomposition) -> SemisimplifiedAlgebra:
    """Apply the semisimplification functor and project onto supervector spaces.

    Raises JacobiViolation if the projected bracket fails super skew or super
    Jacobi; that signals a broken decomposition, not a recoverable state.
    Both reports are kept on the result as `checks`.
    """
    alg = realization.algebra
    p = alg.p
    even = tuple(i for i, c in enumerate(decomp.chains) if c.length == 1)
    odd = tuple(i for i, c in enumerate(decomp.chains) if c.length == p - 1)
    offsets = decomp.chain_offsets()
    survivors = even + odd
    m = len(survivors)
    parity = np.array([0] * len(even) + [1] * len(odd), dtype=np.int64)
    # head coefficients: coords[k] @ v is the coordinate of v at the head of
    # survivor k, read off the block inverses that validating the chains found
    coords = decomp.coordinates(realization.powers[1], [offsets[c] for c in survivors])
    heads = np.array([decomp.chains[c].head for c in survivors], dtype=np.int64).reshape(m, alg.dim)
    coords_t = sparse.from_dense(coords.T)
    values = sparse.product(alg.brackets(heads, heads), coords_t, p)  # row a*m+b: [head_a, head_b], column k
    a, b = np.divmod(values.row, m)
    cols, data = values.col, values.data
    if odd:
        # odd-odd rows: the splitting vector sum_t (-1)^t [v_a^(t-1), v_b^(p-t-1)]
        layers = [np.array([decomp.chains[c].vectors[s] for c in odd], dtype=np.int64) for s in range(p - 1)]
        split = sparse.combine([((-1) ** t, alg.brackets(layers[t - 1], layers[p - t - 1])) for t in range(1, p)], p)
        split = sparse.product(split, coords_t, p)
        sa, sb = np.divmod(split.row, len(odd))
        keep = (parity[a] == 0) | (parity[b] == 0)
        a, b = np.concatenate([a[keep], sa + len(even)]), np.concatenate([b[keep], sb + len(even)])
        cols = np.concatenate([cols[keep], split.col])
        data = np.concatenate([data[keep], split.data])
    # keep the component whose parity is |a| + |b|
    keep = (parity[a] ^ parity[b]) == parity[cols]
    values = sparse.from_entries(a[keep] * m + b[keep], cols[keep], data[keep], (m * m, m))
    out = ModularSuperAlgebra.from_products(values, p, parity, [_chain_labels(decomp, c) for c in survivors])
    skew = check_super_skew(out)
    if not skew.ok:
        raise JacobiViolation(f"projected bracket is not super skew at {skew.witness}")
    jac = check_super_jacobi(out)
    if not jac.ok:
        raise JacobiViolation(f"projected bracket fails super Jacobi at {jac.witness}")
    return SemisimplifiedAlgebra(algebra=out, realization=realization, decomposition=decomp, even_chains=even,
                                 odd_chains=odd, coords=coords, checks={"super_skew": skew, "super_jacobi": jac})


def prop32_reference(realization: Realization, decomp: ChainDecomposition) -> ModularSuperAlgebra:
    """Literal three-case transcription of the characteristic-3 structure
    constants, kept as an independent oracle for semisimplify.

    Even y's come from the length-1 chains (their vectors x_i), odd y's from
    the length-2 chains (x_i the head, x_i' the tail); the coefficient of
    x_k means the expansion coordinate at that chain position over the full
    chain basis.
    """
    alg = realization.algebra
    p = alg.p
    if p != 3:
        raise ValueError("the reference formula is specific to characteristic 3")
    decomp.validate(realization.powers[1])
    even = [i for i, c in enumerate(decomp.chains) if c.length == 1]
    odd = [i for i, c in enumerate(decomp.chains) if c.length == 2]
    offsets = decomp.chain_offsets()
    n1, n2 = len(even), len(odd)
    order = even + odd
    # row k: the coefficient of x_k, which sits at its chain's head
    coords = fp.inverse(decomp.basis_matrix(), p)[[offsets[c] for c in order]]
    # columns: the heads x_b of all survivors, the tails x_b' of the odd ones
    xmat, xpmat = (np.array([decomp.chains[c].vectors[t] for c in chains], dtype=np.int64).reshape(-1, alg.dim).T
                   for t, chains in ((0, order), (1, odd)))
    entries = [np.zeros((4, 0), dtype=np.int64)]  # rows a, b, k, c; one block per left factor a

    def coefficients(images):
        """[b, k]: the coefficient of x_k in column b of images."""
        return sparse.from_dense(images.T % p).dot(coords.T) % p

    for a, ca in enumerate(order):
        ad_xa = sparse.from_dense(alg.ad(decomp.chains[ca].vectors[0]))
        plain = coefficients(ad_xa.dot(xmat))  # [b, k]: coefficient of x_k in [x_a, x_b]
        out = np.zeros((n1 + n2, n1 + n2), dtype=np.int64)  # [b, k]: coefficient of y_k in [y_a, y_b]
        if a < n1:
            out[:n1, :n1] = plain[:n1, :n1]  # both even: on the even targets
            out[n1:, n1:] = plain[n1:, n1:]  # mixed: on the odd targets
        else:
            out[:n1, n1:] = plain[:n1, n1:]  # mixed: on the odd targets
            # both odd: coefficient of x_k in -[x_a, x_b'] + [x_a', x_b], even targets
            ad_xpa = sparse.from_dense(alg.ad(decomp.chains[ca].vectors[1]))
            out[n1:, :n1] = coefficients(ad_xpa.dot(xmat[:, n1:]) - ad_xa.dot(xpmat))[:, :n1]
        b, k = np.nonzero(out)
        entries.append(np.array([np.full_like(b, a), b, k, out[b, k]]))
    parity = np.array([0] * n1 + [1] * n2, dtype=np.int64)
    return ModularSuperAlgebra.from_entries(p, parity, *np.hstack(entries),
                                            labels=[_chain_labels(decomp, c) for c in order])
