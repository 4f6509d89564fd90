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
from .errors import JacobiViolation
from .repalpha import ChainDecomposition, Realization
from .superalgebra import ModularSuperAlgebra, Report, check_odd_cubes, check_super_jacobi, check_super_skew


@dataclass
class SemisimplifiedAlgebra:
    """Output superalgebra with provenance back to the input chains.

    Basis order: one even vector per length-1 chain, then one odd vector per
    length-(p-1) chain, both in decomposition order.  `checks` holds the
    super skew, super Jacobi and odd-cube reports of `algebra`, by check name.
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

    def image(self, v) -> np.ndarray:
        """Functorial image of a vector: expansion coefficients at the
        length-1 vectors and at the heads of length-(p-1) chains."""
        return (self.coords @ fp.normalize(v, self.p)) % self.p

    def provenance(self) -> list[dict]:
        decomp, survivors = self.decomposition, list(self.even_chains + self.odd_chains)
        starts, lengths = decomp.chain_offsets()[survivors].tolist(), decomp.lengths[survivors].tolist()
        basis = decomp.basis
        return [{"index": a, "parity": int(a >= len(self.even_chains)), "chain": c,
                 "vectors": basis[start : start + length].tolist()}
                for a, (c, start, length) in enumerate(zip(survivors, starts, lengths))]

    def to_json_dict(self) -> dict:
        data = self.algebra.to_json_dict()
        data["provenance"] = self.provenance()
        return data


def _chain_labels(decomp: ChainDecomposition, chain_index: int) -> str:
    tag = decomp.tags[chain_index]
    if tag is not None:
        kind, node = tag
        return f"{kind}{node}~"
    return f"chain{chain_index}"


def _projected(realization: Realization, decomp: ChainDecomposition, even: tuple[int, ...],
               odd: tuple[int, ...]) -> tuple[ModularSuperAlgebra, np.ndarray]:
    """The projected bracket on the survivors, the chains even then odd, and
    the head coordinates: row k of coords @ v is the coordinate of v at the
    head of survivor k.  The heads, their brackets and the splitting
    products live only here, so they are freed before the output is checked."""
    alg = realization.algebra
    p = alg.p
    offsets = decomp.chain_offsets()
    survivors = np.array(even + odd, dtype=np.int64)
    m = len(survivors)
    parity = np.array([0] * len(even) + [1] * len(odd), dtype=np.int64)
    coords = decomp.coordinates(offsets[survivors])  # head coefficients
    coords_t = sparse.from_dense(coords.T)
    heads = decomp.entries.take_rows(offsets[survivors])
    values = sparse.product(alg.brackets(heads, heads), coords_t, p)  # row a*m+b: [head_a, head_b], column k
    a, b = np.divmod(values.row, m)
    cols, data = values.col, values.data
    if odd:
        # odd-odd rows: the splitting vector sum_t (-1)^t [v_a^(t-1), v_b^(p-t-1)]
        layers = [decomp.entries.take_rows(offsets[survivors[len(even) :]] + s) for s in range(p - 1)]
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
    out = ModularSuperAlgebra.from_products(values, p, parity, [_chain_labels(decomp, c) for c in even + odd])
    return out, coords


def semisimplify(realization: Realization, decomp: ChainDecomposition) -> SemisimplifiedAlgebra:
    """Apply the semisimplification functor and project onto supervector spaces.

    Raises JacobiViolation if the projected bracket fails super skew or super
    Jacobi; that signals a broken decomposition, not a recoverable state.
    Both reports are kept on the result as `checks`, with the odd-cube
    report, whose failure is a fact about the output rather than an error.
    """
    if decomp.der is not realization.der:  # checked against another D
        decomp.validate(realization.der)
    p = realization.algebra.p
    even = tuple(np.flatnonzero(decomp.lengths == 1).tolist())
    odd = tuple(np.flatnonzero(decomp.lengths == p - 1).tolist())
    out, coords = _projected(realization, decomp, even, odd)
    skew = check_super_skew(out)
    if not skew.ok:
        raise JacobiViolation(f"projected bracket is not super skew at {skew.witness}")
    jac = check_super_jacobi(out)
    if not jac.ok:
        raise JacobiViolation(f"projected bracket fails super Jacobi at {jac.witness}")
    checks = {"super_skew": skew, "super_jacobi": jac, "odd_cubes": check_odd_cubes(out)}
    return SemisimplifiedAlgebra(algebra=out, realization=realization, decomposition=decomp, even_chains=even,
                                 odd_chains=odd, coords=coords, checks=checks)

