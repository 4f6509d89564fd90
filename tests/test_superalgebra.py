import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlie as v
from tests.test_fp import largest_accepted_prime
from verlie import superalgebra
from verlie.errors import BadModulus, NotAnIdeal, NotParityHomogeneous
from verlie.superalgebra import (
    ModularSuperAlgebra,
    Subspace,
    center,
    check_odd_cubes,
    check_super_jacobi,
    check_super_skew,
    derived_subalgebra,
    gen_subquotient,
    generated_subalgebra,
    ideal_closure,
    jacobi_witness,
    make_constants,
    odd_cube_generators,
    odd_cube_values_literal,
    quotient,
    superdim,
)


@pytest.fixture(scope="module")
def gl33():
    return v.gl(3, 3)


@pytest.fixture(scope="module")
def f4mod3():
    return v.catalog_algebra("f4", 3)


@pytest.fixture(scope="module")
def free_nilpotent_ss():
    alg, der = v.free_nilpotent_example(3)
    realization = v.realize_derivation(alg, der)
    return v.semisimplify(realization, v.jordan_decompose(realization))


def corrupt(alg: ModularSuperAlgebra, i, j, k, delta=1) -> ModularSuperAlgebra:
    constants = copy.deepcopy(alg.constants)
    comps = constants.setdefault((i, j), {})
    comps[k] = (comps.get(k, 0) + delta) % alg.p
    if not comps[k]:
        del comps[k]
    return ModularSuperAlgebra(p=alg.p, dim=alg.dim, parity=alg.parity.copy(), constants=constants)


def test_super_skew_pass(gl33):
    assert check_super_skew(gl33).ok


def test_super_skew_detects_fault(gl33):
    bad = corrupt(gl33, 1, 5, 2)
    report = check_super_skew(bad)
    assert not report.ok and report.witness is not None


def test_super_jacobi_pass(f4mod3):
    assert check_super_jacobi(f4mod3).ok


def test_super_jacobi_detects_fault(gl33):
    bad = corrupt(gl33, 1, 3, 0)
    bad = corrupt(bad, 3, 1, 0, delta=-1)  # keep skew intact, break Jacobi
    assert check_super_skew(bad).ok
    report = check_super_jacobi(bad)
    assert not report.ok and report.witness is not None


def random_algebra(p, dim, density, seed) -> ModularSuperAlgebra:
    """Random constants (not a Lie superalgebra), the first 3/5 of the basis even."""
    rng = np.random.default_rng(seed)
    parity = (np.arange(dim) >= 3 * dim // 5).astype(np.int64)
    entries = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < density:
                    entries.append((i, j, k, int(rng.integers(1, p))))
    return ModularSuperAlgebra(p=p, dim=dim, parity=parity, constants=make_constants(entries, p))


def first_jacobi_violation(alg):
    """Direct cyclic scan: the first triple, in lexicographic order, at which
    the super Jacobi identity fails."""
    parity, p = alg.parity, alg.p
    eye = np.eye(alg.dim, dtype=np.int64)
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        s1 = (-1) ** (parity[i] * parity[k])
        s2 = (-1) ** (parity[j] * parity[i])
        s3 = (-1) ** (parity[k] * parity[j])
        total = (
            s1 * alg.bracket(alg.bracket(eye[i], eye[j]), eye[k])
            + s2 * alg.bracket(alg.bracket(eye[j], eye[k]), eye[i])
            + s3 * alg.bracket(alg.bracket(eye[k], eye[i]), eye[j])
        ) % p
        if total.any():
            return (i, j, k)
    return None


def test_jacobi_witness_matches_direct_scan():
    for dim in (5, 40):  # 40 spans several blocks of i values
        alg = random_algebra(3, dim, 0.2, seed=5)
        fast = jacobi_witness(alg.constants, alg.parity, dim, alg.p)
        direct = first_jacobi_violation(alg)
        assert (fast is None) == (direct is None)
        if fast is not None:
            assert fast[:3] == direct


@pytest.mark.parametrize("seed", range(6))
def test_jacobi_witness_independent_of_block_size(seed, monkeypatch):
    """The smallest bad quadruple over all blocks, whatever the block size."""
    alg = random_algebra(3, 20, 0.03, seed)

    def witnesses(block):
        monkeypatch.setattr(superalgebra, "_JACOBI_BLOCK", block)
        return [jacobi_witness(alg.constants, alg.parity, alg.dim, p) for p in (alg.p, None)]

    whole = witnesses(alg.dim)
    assert whole[0] is not None
    for block in (1, 3, 7):
        assert witnesses(block) == whole


def test_odd_cube_literal_set_matches_polarization_pieces(free_nilpotent_ss):
    alg = free_nilpotent_ss.algebra
    literal = Subspace.from_vectors(odd_cube_values_literal(alg), alg.dim, alg.p)
    pieces = Subspace.from_vectors([vec for vec, _ in odd_cube_generators(alg)], alg.dim, alg.p)
    assert literal == pieces and literal.dim == 1


def test_odd_cubes_fail_on_free_nilpotent(free_nilpotent_ss):
    report = check_odd_cubes(free_nilpotent_ss.algebra)
    assert not report.ok


def test_odd_cubes_vacuous_on_even(f4mod3):
    assert check_odd_cubes(f4mod3).ok


def test_center_dimensions(gl33, f4mod3):
    assert center(gl33).dim == 1  # scalar matrices
    assert center(f4mod3).dim == 0
    e6 = v.catalog_algebra("e6", 3)
    assert center(e6).dim == 1


def test_derived_subalgebra(gl33, f4mod3):
    assert derived_subalgebra(gl33).dim == 8  # sl_3
    assert derived_subalgebra(f4mod3).dim == 52
    abelian = ModularSuperAlgebra(p=3, dim=4, parity=np.zeros(4, dtype=np.int64), constants={})
    assert derived_subalgebra(abelian).dim == 0


def test_generated_subalgebra_basics(gl33):
    eye = np.eye(9, dtype=np.int64)
    assert generated_subalgebra(gl33, eye).dim == 9
    assert generated_subalgebra(gl33, [np.zeros(9, dtype=np.int64)]).dim == 0
    # monotone and idempotent
    small = generated_subalgebra(gl33, [gl33.gens["e1"]])
    bigger = generated_subalgebra(gl33, [gl33.gens["e1"], gl33.gens["f1"]])
    assert bigger.contains_subspace(small)
    again = generated_subalgebra(gl33, bigger.rows)
    assert again == bigger


def test_generated_subalgebra_sl2_inside_gl3(gl33):
    sub = generated_subalgebra(gl33, [gl33.gens["e1"], gl33.gens["f1"]])
    assert sub.dim == 3


def test_generated_subalgebra_inhomogeneous_seeds():
    """Inhomogeneous rows are not super skew against each other: with seeds
    e33 (odd) and e7 + e21 (even + odd) in the (21|14) semisimplification of
    f4, bracketing in one order only spans 6 dimensions, not 12."""
    from tests.test_closure_oracle import algebra, naive_closure, same_span

    alg = algebra("f4|4", 3)
    eye = np.eye(alg.dim, dtype=np.int64)
    seeds = np.array([eye[33], eye[7] + eye[21]])
    sub = generated_subalgebra(alg, seeds)
    assert sub.dim == 12 and same_span(sub, naive_closure(alg, seeds), alg)


def test_ideal_closure_center_is_fixed(gl33):
    z = center(gl33)
    assert ideal_closure(gl33, z.rows) == z


def test_ideal_closure_simple_algebra(f4mod3):
    eye = np.eye(52, dtype=np.int64)
    assert ideal_closure(f4mod3, [eye[0]]).dim == 52


def test_quotient_by_center_e6():
    e6 = v.catalog_algebra("e6", 3)
    q = quotient(e6, center(e6))
    assert q.quotient.dim == 77
    assert center(q.quotient).dim == 0
    assert check_super_jacobi(q.quotient).ok


def test_quotient_by_zero_ideal(gl33):
    q = quotient(gl33, Subspace.zero(9, 3))
    assert q.quotient.constants == gl33.constants


def test_quotient_rejects_non_ideal(gl33):
    sub = Subspace.from_vectors([gl33.gens["e1"]], 9, 3)
    with pytest.raises(NotAnIdeal):
        quotient(gl33, sub)


def test_quotient_rejects_mixed_parity(free_nilpotent_ss):
    alg = free_nilpotent_ss.algebra
    mixed = np.zeros(alg.dim, dtype=np.int64)
    even_i = int(np.nonzero(alg.parity == 0)[0][0])
    odd_i = int(np.nonzero(alg.parity == 1)[0][0])
    mixed[even_i] = 1
    mixed[odd_i] = 1
    with pytest.raises(NotParityHomogeneous):
        quotient(alg, Subspace.from_vectors([mixed], alg.dim, alg.p))


def test_subspace_canonical_equality():
    a = Subspace.from_vectors([[1, 2, 0], [0, 0, 1]], 3, 3)
    b = Subspace.from_vectors([[1, 2, 1], [0, 0, 2]], 3, 3)
    assert a == b
    assert a.contains([2, 1, 1])
    assert not a.contains([0, 1, 0])


def test_subspace_coefficients_roundtrip():
    sub = Subspace.from_vectors([[1, 0, 2], [0, 1, 1]], 3, 5)
    vec = (2 * sub.rows[0] + 3 * sub.rows[1]) % 5
    coeffs = sub.coefficients(vec)
    assert np.array_equal((coeffs @ sub.rows) % 5, vec)


def test_gen_subquotient_trivial_on_even(gl33):
    out = gen_subquotient(gl33, {"e1": gl33.gens["e1"], "f1": gl33.gens["f1"], "h1": gl33.gens["h1"]})
    assert superdim(out.algebra) == (3, 0)
    assert out.cube_ideal_dim == 0


def test_superdim(gl33):
    assert superdim(gl33) == (9, 0)


def test_report_serialization(gl33):
    data = check_super_skew(gl33).to_json_dict()
    assert data == {"check": "super_skew", "pass": True}


def test_semisimplified_serialization_keeps_odd_diagonal(free_nilpotent_ss):
    alg = free_nilpotent_ss.algebra
    data = free_nilpotent_ss.to_json_dict()
    back = ModularSuperAlgebra.from_json_dict(data)
    assert back.constants == alg.constants
    assert any(i == j for (i, j) in alg.constants)  # odd self-bracket present
    assert "provenance" in data and len(data["provenance"]) == alg.dim


@pytest.mark.parametrize("p", [2, 4, 9, 4294967311])
def test_from_json_dict_rejects_bad_modulus(p):
    data = {"p": p, "dim": 2, "parity": [0, 0], "labels": None, "constants": [[0, 1, 1, 1]]}
    with pytest.raises(BadModulus):
        ModularSuperAlgebra.from_json_dict(data)


def test_from_json_dict_drops_zero_coefficients():
    # (1|2) at p = 3: [b0, b1] = 3 b1 is zero, [b0, b2] = 4 b2 = b2, [b1, b1] = 2 b0, [b1, b2] = 5 b0 = 2 b0
    data = {"p": 3, "dim": 3, "parity": [0, 1, 1], "labels": None,
            "constants": [[0, 1, 1, 3], [0, 2, 2, 4], [1, 1, 0, 2], [1, 2, 0, 5]]}
    alg = ModularSuperAlgebra.from_json_dict(data)
    entries = [(0, 2, 2, 1), (2, 0, 2, -1), (1, 1, 0, 2), (1, 2, 0, 2), (2, 1, 0, 2)]
    assert alg.constants == make_constants(entries, 3)
    written = alg.to_json_dict()
    assert written["constants"] == [[0, 2, 2, 1], [1, 1, 0, 2], [1, 2, 0, 2]]
    assert ModularSuperAlgebra.from_json_dict(written).to_json_dict() == written


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    n=st.integers(1, 9),
    base_rows=st.integers(0, 6),
    new_rows=st.integers(0, 4),
    spanned_rows=st.integers(0, 3),
    density=st.floats(0.1, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_subspace_extended_matches_from_vectors(p, n, base_rows, new_rows, spanned_rows, density, seed):
    """Incremental growth against a full rref of the stacked rows; the base
    may be the zero subspace and the vectors may already lie in the span."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        return rng.integers(0, p, size=(rows, n)) * (rng.random((rows, n)) < density)

    sub = Subspace.from_vectors(draw(base_rows), n, p)
    spanned = draw(spanned_rows)[:, : sub.dim] @ sub.rows % p
    vectors = rng.permutation(np.vstack([draw(new_rows), spanned]))
    got = sub.extended(vectors)
    expected = Subspace.from_vectors(np.vstack([sub.rows, vectors]), n, p)
    assert got.pivots == expected.pivots and np.array_equal(got.rows, expected.rows)
    assert got.rows.dtype == np.int64
    if expected.dim == sub.dim:
        assert got is sub


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["gl3", "g2", "sl4"]),
    p=st.sampled_from([3, 5, 7, "largest"]),
    m=st.integers(0, 4),
    n=st.integers(0, 4),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_brackets_rows_match_single_brackets(name, p, m, n, density, seed):
    """Row a*len(v)+b of brackets(u, v) is bracket(u[a], v[b]); at the largest
    modulus gl3 accepts, the sums overflow unless reduced between products."""
    if p == "largest":
        name, p = "gl3", largest_accepted_prime(9)
    alg = v.catalog_algebra(name, p)
    rng = np.random.default_rng(seed)

    def rows(k):
        return rng.integers(0, p, size=(k, alg.dim)) * (rng.random((k, alg.dim)) < density)

    u, w = rows(m), rows(n)
    got = alg.brackets(u, w)
    assert got.shape == (m * n, alg.dim)
    expected = [alg.bracket(u[a], w[b]) for a in range(m) for b in range(n)]
    assert np.array_equal(got.toarray(), np.array(expected, dtype=np.int64).reshape(m * n, alg.dim))
