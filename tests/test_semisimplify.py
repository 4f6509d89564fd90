import itertools
import time
import tracemalloc

import numpy as np
import pytest

import verlie as v
from tests.oracles import (
    center,
    clebsch_gordan,
    derived_subalgebra,
    free_nilpotent_example,
    literal_reference,
    pairing_vector,
    sparse_ads,
)
from tests.pipelines import spec_pipeline
from tests.test_fp import largest_accepted_prime, rank
from verlie import fp
from verlie.errors import DegreeExceedsP
from verlie.repalpha import ChainDecomposition, JordanChain, block_counts, jordan_decompose, parse_element, realize
from verlie.semisimplify import semisimplify
from verlie.superalgebra import superdim
from verlie.table import TABLE, row_pipeline


def brute_clebsch_gordan(m, n, p):
    """Independent oracle: Jordan block counts of the shift action on
    J_m (x) J_n by the rank formula, with the length-p blocks deleted."""
    dim = m * n
    jm = np.diag(np.ones(m - 1, dtype=np.int64), k=-1) if m > 1 else np.zeros((1, 1), dtype=np.int64)
    jn = np.diag(np.ones(n - 1, dtype=np.int64), k=-1) if n > 1 else np.zeros((1, 1), dtype=np.int64)
    t = (np.kron(jm, np.eye(n, dtype=np.int64)) + np.kron(np.eye(m, dtype=np.int64), jn)) % p
    ranks = [dim]
    power = np.eye(dim, dtype=np.int64)
    for _ in range(p + 1):
        power = power @ t % p
        ranks.append(rank(power, p))
    out = []
    for length in range(1, p):
        count = ranks[length - 1] - 2 * ranks[length] + ranks[length + 1]
        out.extend([length] * count)
    return tuple(sorted(out))


def test_clebsch_gordan_top_pair_p3():
    assert clebsch_gordan(2, 2, 3) == (1,)


def test_clebsch_gordan_unit():
    for p in (3, 5, 7):
        for k in range(1, p):
            assert clebsch_gordan(1, k, p) == (k,)


def test_clebsch_gordan_2_3_mod5():
    assert clebsch_gordan(2, 3, 5) == (2, 4)
    assert brute_clebsch_gordan(2, 3, 5) == (2, 4)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_clebsch_gordan_brute_force(p):
    for m in range(1, p):
        for n in range(1, p):
            assert tuple(sorted(clebsch_gordan(m, n, p))) == brute_clebsch_gordan(m, n, p)


def paper_gl3_chains():
    def E(i, j):
        vec = np.zeros(9, dtype=np.int64)
        vec[(i - 1) * 3 + (j - 1)] = 1
        return vec

    return (
        JordanChain(np.array([E(1, 1)])),
        JordanChain(np.array([(E(1, 1) + E(2, 2) + E(3, 3)) % 3])),
        JordanChain(np.array([E(1, 2), (-E(1, 3)) % 3])),
        JordanChain(np.array([E(3, 1), E(2, 1)])),
        JordanChain(np.array([E(3, 2), (E(2, 2) - E(3, 3)) % 3, E(2, 3)])),
    )


@pytest.fixture(scope="module")
def gl3_setup():
    alg = v.gl(3, 3)
    _, vec = v.parse_element("e2", alg)  # the (2,3) elementary matrix
    realization = v.realize(alg, vec)
    decomp = ChainDecomposition.of_chains(paper_gl3_chains(), realization.der.toarray(), 3)  # a dense D too
    return realization, decomp


def test_pairing_vector_gl3(gl3_setup):
    realization, decomp = gl3_setup
    out = pairing_vector(realization.algebra, decomp.chains[2].vectors, decomp.chains[3].vectors)
    expected = np.zeros(9, dtype=np.int64)
    expected[0] = expected[4] = expected[8] = 1  # identity matrix
    assert np.array_equal(out, expected)


def test_pairing_vector_symmetric(gl3_setup):
    realization, decomp = gl3_setup
    a = pairing_vector(realization.algebra, decomp.chains[2].vectors, decomp.chains[3].vectors)
    b = pairing_vector(realization.algebra, decomp.chains[3].vectors, decomp.chains[2].vectors)
    assert np.array_equal(a, b)


def test_pairing_vector_against_central_chain():
    alg, der = free_nilpotent_example(3)
    realization = v.realize_derivation(alg, der)
    decomp = v.jordan_decompose(realization)
    chains = [c for c in decomp.chains if c.length == 2]
    central = [c for c in chains if not alg.ad(c.vectors[0]).any() and not alg.ad(c.vectors[1]).any()]
    assert central  # the chain through [x,[x,y]] is central
    for other in chains:
        assert not pairing_vector(alg, central[0].vectors, other.vectors).any()


def test_sparse_ads_are_the_ads_of_the_rows(gl3_setup):
    realization, decomp = gl3_setup
    alg = realization.algebra
    assert sparse_ads(alg, decomp.basis) == [alg.sparse_ad(row) for row in decomp.basis]


def test_gl3_exact_constants(gl3_setup):
    realization, decomp = gl3_setup
    ss = semisimplify(realization, decomp)
    assert superdim(ss.algebra) == (2, 2)
    c = ss.algebra.constants
    assert c.get((0, 1), {}) == {}  # [y1, y2] = 0
    assert c[(0, 2)] == {2: 1}  # [y1, y3] = y3
    assert c[(0, 3)] == {3: 2}  # [y1, y4] = -y4
    assert c[(2, 3)] == {1: 1}  # [y3, y4] = y2


def test_gl3_oracle_equality(gl3_setup):
    realization, decomp = gl3_setup
    ss = semisimplify(realization, decomp)
    ref = literal_reference(realization, decomp)
    assert ref.constants == ss.algebra.constants
    assert np.array_equal(ref.parity, ss.algebra.parity)


def test_gl3_generic_chain_invariants(gl3_setup):
    realization, _ = gl3_setup
    generic = v.jordan_decompose(realization)
    ss = semisimplify(realization, generic)
    assert superdim(ss.algebra) == (2, 2)
    assert center(ss.algebra).dim == 1
    assert derived_subalgebra(ss.algebra).dim == 3
    assert literal_reference(realization, generic).constants == ss.algebra.constants


def test_superdim_always_n1_np1():
    alg = v.catalog_algebra("g2", 3)
    _, vec = v.parse_element("e2", alg)
    realization = v.realize(alg, vec)
    decomp = v.jordan_decompose(realization)
    ss = semisimplify(realization, decomp)
    counts = v.block_counts(decomp)
    assert superdim(ss.algebra) == (counts[0], counts[1])
    assert superdim(ss.algebra) == (3, 4)


def test_image_projection():
    alg = v.catalog_algebra("g2", 3)
    _, vec = v.parse_element("e2", alg)
    realization = v.realize(alg, vec)
    decomp = v.jordan_decompose(realization)
    ss = semisimplify(realization, decomp)
    eye_out = np.eye(ss.algebra.dim, dtype=np.int64)
    for a, chain_index in enumerate(ss.even_chains + ss.odd_chains):
        head = decomp.chains[chain_index].vectors[0]
        assert np.array_equal(ss.image(head), eye_out[a])
    # tails of odd chains and every vector of a dead chain project to zero
    for chain_index in ss.odd_chains:
        assert not ss.image(decomp.chains[chain_index].vectors[-1]).any()
    for chain_index, chain in enumerate(decomp.chains):
        if chain.length == 3:
            for t in range(3):
                assert not ss.image(chain.vectors[t]).any()


def test_a_decomposition_of_another_realization_is_checked_again():
    """A decomposition checked against the D of one realization is checked
    again against the D of the realization it is semisimplified with: the
    chains of ad e1 are refused for ad e2, whose orbits they are not, and
    accepted for another realization of e1, whose D is equal."""
    alg = v.catalog_algebra("g2", 3)
    first, second, again = (v.realize(alg, v.parse_element(element, alg)[1]) for element in ("e1", "e2", "e1"))
    decomp = v.jordan_decompose(first)
    with pytest.raises(ValueError, match="D-orbit"):
        semisimplify(second, decomp)
    assert semisimplify(again, decomp).algebra == semisimplify(first, decomp).algebra


@pytest.mark.parametrize("name,p,element,sdim", [("g2", 3, "e2", (3, 4)), ("f4", 5, "e1+e3", (6, 2))])
def test_constants_in_row_major_order(name, p, element, sdim):
    """The constants dict lists the pairs (a, b), and each pair's targets k,
    in increasing order, odd-odd pairs included."""
    alg = v.catalog_algebra(name, p)
    realization = v.realize(alg, v.parse_element(element, alg)[1])
    out = semisimplify(realization, v.jordan_decompose(realization)).algebra
    assert superdim(out) == sdim
    assert any(out.parity[a] and out.parity[b] for a, b in out.constants)
    assert list(out.constants) == sorted(out.constants)
    assert all(list(comps) == sorted(comps) for comps in out.constants.values())


def test_functoriality_structured_vs_generic():
    from verlie.verify import certify, generator_images, tilde_target

    alg = v.catalog_algebra("f4", 3)
    _, vec = v.parse_element("e4", alg)
    realization = v.realize(alg, vec)
    a = semisimplify(realization, v.structured_decompose(realization, (4,)))
    b = semisimplify(realization, v.jordan_decompose(realization))
    assert superdim(a.algebra) == superdim(b.algebra)
    assert center(a.algebra).dim == center(b.algebra).dim
    da, db = derived_subalgebra(a.algebra), derived_subalgebra(b.algebra)
    assert da.dim == db.dim
    # certificate outcomes agree: the generator images certify the same
    # target through either decomposition
    for ss in (a, b):
        cert = certify(ss.algebra, generator_images(ss, (4,)), tilde_target("g(1,6)", ss, (4,)))
        assert cert.conclusion == "Verified"


def test_e8_mod5_superdim():
    alg = v.catalog_algebra("e8", 5)
    _, vec = v.parse_element("e2+e3+e4", alg)
    realization = v.realize(alg, vec)
    decomp = v.jordan_decompose(realization)
    ss = semisimplify(realization, decomp)
    assert superdim(ss.algebra) == (55, 32)


def literal_inputs():
    """el(5;5); every e_i and e_i + e_j of each small algebra at p = 3, 5
    and 7 (the inputs of the small benchmark); and the three (3|2) outputs at
    p = 7, whose odd-odd brackets no other pin reaches."""
    from tests.test_repalpha import SMALL_ALGEBRAS, simple_elements

    inputs = [("e8", 5, "e2+e3+e4")]
    for name, p in itertools.product(SMALL_ALGEBRAS, (3, 5, 7)):
        inputs += [(name, p, element) for element in simple_elements(v.catalog_algebra(name, p))]
    return inputs + [("b4", 7, "e1+e3+e4"), ("c4", 7, "e2+e3+e4"), ("f4", 7, "e1+e2+e4")]


def test_semisimplify_matches_the_literal_reference_at_every_odd_p():
    """semisimplify, which projects all head brackets and splitting products
    at once, gives the constants and parities of the literal reference in
    tests/oracles.py, which spells out the three parity cases one left
    factor at a time.  Scaling the odd-odd brackets by any c keeps skew,
    Jacobi and the odd cubes, so only a reference like this one sees such an
    error."""
    odd_parts = {3: 0, 5: 0, 7: 0}
    for name, p, element in literal_inputs():
        alg = v.catalog_algebra(name, p)
        try:
            realization = realize(alg, parse_element(element, alg)[1])
        except DegreeExceedsP:
            continue
        decomp = jordan_decompose(realization)
        out, reference = semisimplify(realization, decomp).algebra, literal_reference(realization, decomp)
        assert out.constants == reference.constants, (name, p, element)
        assert np.array_equal(out.parity, reference.parity)
        odd_parts[p] += any(out.parity)
    assert all(odd_parts.values()), odd_parts


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_the_splitting_vector_is_killed_by_the_tensor_derivation(p):
    """In chain coordinates, with J the length-(p-1) Jordan block sending
    v^(k) to v^(k+1), J (x) 1 + 1 (x) J kills sum_{t=1}^{p-1} (-1)^t
    v^(t-1) (x) v^(p-1-t) mod p: the odd-odd bracket lands on a D-invariant."""
    n = p - 1
    jordan = np.eye(n, k=-1, dtype=np.int64)  # column k is J v^(k)
    eye = np.eye(n, dtype=np.int64)
    tensor_jordan = np.kron(jordan, eye) + np.kron(eye, jordan)
    split = sum((-1) ** t * np.kron(eye[t - 1], eye[p - 1 - t]) for t in range(1, p)) % p
    assert split.any() and not (tensor_jordan @ split % p).any()
    unsigned = sum(np.kron(eye[t - 1], eye[p - 1 - t]) for t in range(1, p)) % p
    assert (tensor_jordan @ unsigned % p).any()  # the signs matter


def test_head_coordinates_match_the_dense_inverse():
    """The coordinates read off the block inverses of the chain basis are the
    rows of its dense inverse: on every table decomposition, structured and
    generic, and on one element of each small algebra at p = 3, 5 and 7."""
    from tests.test_repalpha import SMALL_ALGEBRAS, simple_elements

    boundary = [s for s in TABLE if s.subset]  # structured, and generic as the table decomposes them
    pipelines = [spec_pipeline(s) for s in TABLE] + [row_pipeline(s.algebra, s.p, s.elements[0]) for s in boundary]
    for alg in (v.catalog_algebra(name, p) for name in SMALL_ALGEBRAS for p in (3, 5, 7)):
        for element in simple_elements(alg):
            try:
                realization = v.realize(alg, v.parse_element(element, alg)[1])
            except DegreeExceedsP:
                continue
            decomp = v.jordan_decompose(realization)
            pipelines.append((realization, decomp, semisimplify(realization, decomp)))
            break
    assert len(pipelines) == len(TABLE) + len(boundary) + 3 * len(SMALL_ALGEBRAS)
    for realization, decomp, ss in pipelines:
        dense = fp.inverse(decomp.basis.T, decomp.p)
        assert np.array_equal(decomp.basis.T @ dense % decomp.p, np.eye(decomp.dim, dtype=np.int64))
        assert np.array_equal(decomp.coordinates(range(decomp.dim)), dense)
        offsets = decomp.chain_offsets()
        assert np.array_equal(ss.coords, dense[[offsets[c] for c in ss.even_chains + ss.odd_chains]])


# bounds at about twice what a shared 2-core machine measured: g2 0.74 s and
# 359 MB, f4 0.40 s and 186 MB (tracemalloc on)
@pytest.mark.parametrize("name,p,element,degree,seconds,megabytes", [
    ("g2", 8_967_799, "e1", 4, 2.0, 720),
    ("f4", 4_653_151, "e1+e2+e4", 6, 1.0, 380),
])
def test_largest_accepted_prime_is_answered_exactly(name, p, element, degree, seconds, megabytes):
    """At the largest prime that fp.check_modulus accepts for the algebra,
    where an int64 product of two residues reaches (p-1)^2 ~ 2^46, realize,
    jordan_decompose and semisimplify answer within a wall-time and a
    tracemalloc bound: their work is bounded by the degree of D, and only
    the count vectors have p entries.  The output constants are the brackets
    of the head vectors taken in Python integers, with the integral
    structure constants, projected onto the head coordinates, whose
    exactness is checked in Python integers too."""
    alg = v.catalog_algebra(name, p)
    assert p == largest_accepted_prime(alg.dim)
    vec = parse_element(element, alg)[1]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = realize(alg, vec)
        decomp = jordan_decompose(r)
        ss = semisimplify(r, decomp)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < seconds and peak < megabytes * 1_000_000, (elapsed, peak)
    counts = block_counts(decomp)
    assert r.degree == degree and len(counts) == p and counts[degree - 1] and not any(counts[degree:])
    assert not ss.odd_chains and all(report.ok for report in ss.checks.values())
    # the head coordinates: coords[a] . (basis column c) = [c is the head of survivor a]
    heads = decomp.chain_offsets()[list(ss.even_chains)]
    basis, coords = decomp.basis.tolist(), ss.coords.tolist()
    for a, row in enumerate(coords):
        assert [sum(x * y for x, y in zip(row, column)) % p for column in basis] == [
            int(c == heads[a]) for c in range(alg.dim)]
    constants = alg.origin.constants

    def bracket(u, w) -> list[int]:
        out = [0] * alg.dim
        for (i, j), comps in constants.items():
            if u[i] and w[j]:
                for k, c in comps.items():
                    out[k] += u[i] * w[j] * c
        return out

    expected = {}
    for a, b in itertools.product(range(len(heads)), repeat=2):
        value = bracket(basis[heads[a]], basis[heads[b]])
        comps = {k: sum(x * y for x, y in zip(row, value)) % p for k, row in enumerate(coords)}
        if any(comps.values()):
            expected[a, b] = {k: c for k, c in comps.items() if c}
    assert ss.algebra.constants == expected and expected
