"""The subspace closures against a naive fixpoint.

The oracle brackets the whole current span against everything it must be
closed under, through a dense structure tensor rather than `ad`, and stops
when the echelon form no longer grows."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlie as v
from verlie import fp
from verlie.errors import NotParityHomogeneous
from verlie.superalgebra import Subspace, generated_subalgebra, ideal_closure, subalgebra_on
from verlie.verify import odd_part_irreducible

ALGEBRAS = [("gl3", 3), ("gl3", 5), ("sl4", 3), ("sl4", 5), ("g2", 3), ("g2", 5), ("f4|4", 3)]


@lru_cache(maxsize=None)
def algebra(name: str, p: int):
    if name == "f4|4":  # the (21|14) semisimplification of f4 along e4
        alg = v.catalog_algebra("f4", p)
        realization = v.realize(alg, alg.gens["e4"])
        return v.semisimplify(realization, v.structured_decompose(realization, (4,))).algebra
    return v.catalog_algebra(name, p)


def tensor(alg) -> np.ndarray:
    t = np.zeros((alg.dim,) * 3, dtype=np.int64)
    for (i, j), comps in alg.constants.items():
        for k, c in comps.items():
            t[i, j, k] = c
    return t


def span(rows, alg) -> np.ndarray:
    r, piv = fp.rref(np.vstack(rows).reshape(-1, alg.dim), alg.p)
    return r[: len(piv)]


def naive_closure(alg, seeds, left=None, right=None) -> np.ndarray:
    """Echelon rows of the smallest span S containing the seeds with
    [left, S] and [S, right] inside S; a missing side means S itself."""
    t = tensor(alg)
    rows = span([np.atleast_2d(seeds)], alg)
    while True:
        a = rows if left is None else left
        b = rows if right is None else right
        parts = [rows, np.einsum("ai,bj,ijk->abk", a, rows, t, optimize=True).reshape(-1, alg.dim)]
        if right is not False:
            parts.append(np.einsum("ai,bj,ijk->abk", rows, b, t, optimize=True).reshape(-1, alg.dim))
        grown = span([x % alg.p for x in parts], alg)
        if len(grown) == len(rows):
            return rows
        rows = grown


def same_span(sub: Subspace, rows, alg) -> bool:
    return sub == Subspace.from_vectors(rows, alg.dim, alg.p)


def draw_seeds(data, alg, homogeneous=False) -> np.ndarray:
    count = data.draw(st.integers(1, 2))
    seeds = np.zeros((count, alg.dim), dtype=np.int64)
    for row in seeds:
        for idx in data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=1, max_size=3)):
            row[idx] = data.draw(st.integers(1, alg.p - 1))
        if homogeneous:
            row *= alg.parity == data.draw(st.integers(0, 1))
    return seeds


@pytest.mark.parametrize("name,p", ALGEBRAS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_generated_subalgebra_matches_naive_fixpoint(name, p, data):
    alg = algebra(name, p)
    seeds = draw_seeds(data, alg)
    assert same_span(generated_subalgebra(alg, seeds), naive_closure(alg, seeds), alg)


@pytest.mark.parametrize("name,p", ALGEBRAS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_ideal_closure_matches_naive_fixpoint(name, p, data):
    alg = algebra(name, p)
    seeds = draw_seeds(data, alg)
    eye = np.eye(alg.dim, dtype=np.int64)
    assert same_span(ideal_closure(alg, seeds), naive_closure(alg, seeds, left=eye, right=eye), alg)


def naive_odd_irreducible(alg) -> bool:
    odd = np.nonzero(alg.parity == 1)[0]
    even_basis = np.eye(alg.dim, dtype=np.int64)[alg.parity == 0]
    return all(
        len(naive_closure(alg, np.eye(alg.dim, dtype=np.int64)[start], left=even_basis, right=False)) == len(odd)
        for start in odd
    )


def test_odd_part_irreducible_matches_naive_closure():
    fn_alg, der = v.free_nilpotent_example(3)
    realization = v.realize_derivation(fn_alg, der)
    reducible = v.semisimplify(realization, v.jordan_decompose(realization)).algebra
    for alg in (algebra("f4|4", 3), reducible, algebra("g2", 3)):
        assert odd_part_irreducible(alg) == naive_odd_irreducible(alg)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_odd_part_irreducible_on_generated_subalgebras(data):
    alg = algebra("f4|4", 3)
    sub = generated_subalgebra(alg, draw_seeds(data, alg, homogeneous=True))
    try:
        restricted, _ = subalgebra_on(alg, sub)
    except NotParityHomogeneous:
        return
    assert odd_part_irreducible(restricted) == naive_odd_irreducible(restricted)
