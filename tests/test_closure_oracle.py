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
from verlie import fp, sparse
from verlie.errors import NotParityHomogeneous
from verlie.superalgebra import Subspace, closure, generated_subalgebra, ideal_closure, subalgebra_on
from verlie.table import row_pipeline
from verlie.verify import cartan_torus_images, odd_part_irreducible, weight_split

from .oracles import free_nilpotent_example
from .test_verify import sl2_module_algebra

ALGEBRAS = [("gl3", 3), ("gl3", 5), ("sl4", 3), ("sl4", 5), ("g2", 3), ("g2", 5), ("f4|4", 3)]


@lru_cache(maxsize=None)
def f4_along_e4(p: int):
    """The (21|14) semisimplification of f4 along e4."""
    alg = v.catalog_algebra("f4", p)
    realization = v.realize(alg, alg.gens["e4"])
    return v.semisimplify(realization, v.structured_decompose(realization, (4,)))


@lru_cache(maxsize=None)
def algebra(name: str, p: int):
    if name == "f4|4":
        return f4_along_e4(p).algebra
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
    """Both spans have one reduced echelon form: the same pivots and rows."""
    other = Subspace.from_vectors(rows, alg.dim, alg.p)
    return sub.pivots == other.pivots and np.array_equal(sub.rows, other.rows)


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


@pytest.mark.parametrize("name,p", ALGEBRAS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_closure_of_images_repeated_up_to_scale_matches_naive_fixpoint(name, p, data):
    """Each bracket [frontier, span] given at every nonzero multiple, beside
    [span, frontier]: the repeats collapse to one line each, and the closure
    is the naive fixpoint's."""
    alg = algebra(name, p)
    seeds = draw_seeds(data, alg)

    def images(frontier, span):
        once = alg.brackets(frontier, span.rows)
        return sparse.vstack([*(once.scale_rows(np.full(once.shape[0], c), p) for c in range(1, p)),
                              alg.brackets(span.rows, frontier)])

    assert same_span(closure(Subspace.from_vectors(seeds, alg.dim, alg.p), images), naive_closure(alg, seeds), alg)


def naive_odd_irreducible(alg) -> bool:
    """The closure of every odd basis vector is the whole odd part.  False
    means a proper submodule was found; True proves nothing, as a proper
    submodule need not contain a basis vector."""
    odd = np.nonzero(alg.parity == 1)[0]
    even_basis = np.eye(alg.dim, dtype=np.int64)[alg.parity == 0]
    return all(
        len(naive_closure(alg, np.eye(alg.dim, dtype=np.int64)[start], left=even_basis, right=False)) == len(odd)
        for start in odd
    )


def weight_vectors_generate(alg, split) -> bool:
    """The closure of every odd weight vector is the whole odd part: exact
    where each odd weight has multiplicity 1, since every submodule is then
    spanned by weight vectors."""
    even = np.eye(alg.dim, dtype=np.int64)[alg.parity == 0]

    def images(frontier, _):
        return alg.brackets(even, frontier)

    odd_dim = int(np.count_nonzero(alg.parity == 1))
    return all(closure(Subspace.from_vectors(rows, alg.dim, alg.p), images).dim == odd_dim
               for _, rows in split.spaces(1))


def no_torus(alg) -> np.ndarray:
    return np.zeros((0, alg.dim), dtype=np.int64)


def test_odd_part_irreducible_is_sound_against_naive_closure():
    # the verdict is never True where the naive closure finds a proper submodule
    fn_alg, der = free_nilpotent_example(3)
    realization = v.realize_derivation(fn_alg, der)
    reducible = v.semisimplify(realization, v.jordan_decompose(realization)).algebra
    assert not naive_odd_irreducible(reducible)
    g2, f44 = algebra("g2", 3), algebra("f4|4", 3)
    cases = [(f44, cartan_torus_images(f4_along_e4(3))), (f44, no_torus(f44)), (reducible, no_torus(reducible)),
             (g2, [g2.gens["h1"], g2.gens["h2"]])]
    for alg, torus in cases:
        verdict = odd_part_irreducible(alg, weight_split(alg, torus))
        assert naive_odd_irreducible(alg) or not verdict


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_odd_part_irreducible_on_generated_subalgebras(data):
    alg = algebra("f4|4", 3)
    sub = generated_subalgebra(alg, draw_seeds(data, alg, homogeneous=True))
    try:
        restricted, _ = subalgebra_on(alg, sub)
    except NotParityHomogeneous:
        return
    verdict = odd_part_irreducible(restricted, weight_split(restricted, no_torus(restricted)))
    assert naive_odd_irreducible(restricted) or not verdict


def test_odd_part_irreducible_exact_on_multiplicity_one():
    # the characteristic-5 output, the f4 output at p = 3 and V + a trivial
    # line for sl2 have odd weights of multiplicity 1 under their tori
    ss = row_pipeline("e8", 5, "e2+e3+e4")[2]
    line = sl2_module_algebra((2, 1), np.eye(3, dtype=np.int64))
    cases = [(ss.algebra, cartan_torus_images(ss)), (algebra("f4|4", 3), cartan_torus_images(f4_along_e4(3))),
             (line, [np.eye(line.dim, dtype=np.int64)[1]])]
    verdicts = []
    for alg, torus in cases:
        split = weight_split(alg, torus)
        assert all(len(rows) == 1 for rows, par in zip(split.vectors, split.parities) if par == 1)
        verdicts.append(bool(odd_part_irreducible(alg, split)))
        assert verdicts[-1] == weight_vectors_generate(alg, split)
    assert verdicts == [True, True, False]
