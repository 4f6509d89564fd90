from dataclasses import replace

import numpy as np
import pytest

import verlie as v
from verlie.chevalley import (
    catalog_algebra,
    chevalley_basis,
    free_nilpotent_example,
    g2_scaled,
    gl,
    integral_antisymmetry_ok,
    integral_catalog,
    integral_jacobi_witness,
    reduce_mod_p,
    sl,
)
from verlie.roots import Root, catalog_gcm
from verlie.superalgebra import check_super_jacobi, check_super_skew, jacobi_witness


def test_a1_is_sl2():
    alg = chevalley_basis(catalog_gcm("a1"))
    assert alg.dim == 3
    e, f, h = 0, 1, 2
    assert alg.constants[(h, e)] == {e: 2}
    assert alg.constants[(h, f)] == {f: -2}
    assert alg.constants[(e, f)] == {h: 1}


def test_g2_string_magnitudes():
    alg = integral_catalog("g2")
    alpha, beta = Root((1, 0)), Root((0, 1))

    def magnitude(x, y):
        comps = alg.constants[(alg.e_index(x), alg.e_index(y))]
        (value,) = comps.values()
        return abs(value)

    assert magnitude(alpha, beta) == 1
    assert magnitude(alpha, Root((1, 1))) == 2
    assert magnitude(alpha, Root((2, 1))) == 3


@pytest.mark.parametrize("name,dim", [("g2", 14), ("f4", 52), ("e6", 78), ("e7", 133), ("e8", 248)])
def test_catalog_dimensions(name, dim):
    assert integral_catalog(name).dim == dim


@pytest.mark.parametrize("name", ["g2", "f4", "e6"])
def test_integral_jacobi_full_small(name):
    alg = integral_catalog(name)
    assert integral_antisymmetry_ok(alg)
    assert integral_jacobi_witness(alg) is None


@pytest.mark.parametrize("name", ["e7", "e8"])
def test_integral_jacobi_large(name):
    # the exact scan over all basis triples, which implies the derivation
    # identity [ad a, ad b] = ad [a, b] on every pair of generators
    alg = integral_catalog(name)
    assert integral_antisymmetry_ok(alg)
    assert integral_jacobi_witness(alg) is None


def test_root_grading():
    alg = integral_catalog("f4")
    rs = alg.roots
    npos = alg.npos
    for (i, j), comps in alg.constants.items():
        if i < npos and j < npos:  # e-e bracket
            target = rs.positive[i] + rs.positive[j]
            for k in comps:
                assert k < npos and rs.positive[k] == target


def test_reduce_mod_p_f4():
    alg = catalog_algebra("f4", 3)
    assert alg.dim == 52
    assert not alg.parity.any()
    assert check_super_skew(alg).ok and check_super_jacobi(alg).ok


def test_reduce_mod_p_sl2():
    sl2 = reduce_mod_p(chevalley_basis(catalog_gcm("a1")), 3)
    assert sl2.constants[(2, 0)] == {0: 2}
    assert sl2.constants[(2, 1)] == {1: 1}  # -2 becomes 1
    assert sl2.constants[(0, 1)] == {2: 1}


def test_catalog_rejects_modulus_outside_odd_primes():
    from verlie.errors import BadModulus

    with pytest.raises(BadModulus):
        catalog_algebra("g2", 4)
    with pytest.raises(BadModulus):
        reduce_mod_p(chevalley_basis(catalog_gcm("a1")), 2)
    for make in (gl, sl):
        with pytest.raises(BadModulus):
            make(3, 9)


CATALOG = ["g2", "f4", "e6", "e7", "e8", "a4", "b3", "c3", "d4", "gl3", "sl4"]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_catalog_accepts_small_odd_primes(p):
    for name in CATALOG:
        assert catalog_algebra(name, p).p == p


def test_modulus_bound_uses_dimension():
    """A prime that a 1-dimensional accumulation allows but dim 9 does not."""
    from verlie.errors import BadModulus

    p = 33554393  # the largest prime below 2^25: (p-1)^2 < 2^50 <= 9 (p-1)^2
    v.fp.check_modulus(p)
    for make in (gl, sl):
        with pytest.raises(BadModulus, match="too large"):
            make(3, p)
    with pytest.raises(BadModulus, match="too large"):
        reduce_mod_p(integral_catalog("g2"), p)


@pytest.mark.parametrize("name", ["g2", "gl3"])
def test_catalog_constants_are_read_only(name):
    alg = catalog_algebra(name, 3)
    before = {key: dict(comps) for key, comps in alg.constants.items()}
    key, comps = next(iter(alg.constants.items()))
    with pytest.raises(TypeError):
        alg.constants[(0, 0)] = {0: 1}
    with pytest.raises(TypeError):
        alg.constants[key][next(iter(comps))] = 0
    with pytest.raises(TypeError):
        del alg.constants[key]
    assert catalog_algebra(name, 3).constants == before


def test_algebra_equality():
    assert gl(3, 3) == gl(3, 3)
    assert catalog_algebra("gl3", 3) == gl(3, 3)  # frozen constants compare equal to a dict
    assert gl(3, 3) != gl(3, 5)
    assert gl(3, 3) != sl(3, 3)
    alg = gl(3, 3)
    assert replace(alg, labels=None) != alg
    assert replace(alg, gens={**alg.gens, "e1": alg.gens["e2"]}) != alg
    assert replace(alg, parity=np.ones(alg.dim, dtype=np.int64)) != alg
    assert alg != "gl3"


@pytest.mark.parametrize("name", ["g2", "gl3"])
def test_catalog_algebra_is_read_only(name):
    alg = catalog_algebra(name, 3)
    before = {gen: vec.copy() for gen, vec in alg.gens.items()}
    with pytest.raises(ValueError):
        alg.gens["e1"][0] = 1
    with pytest.raises(ValueError):
        alg.gens["h1"] += 1
    with pytest.raises(ValueError):
        alg.parity[0] = 1
    again = catalog_algebra(name, 3)
    assert again.gens.keys() == before.keys()
    assert all(np.array_equal(again.gens[gen], vec) for gen, vec in before.items())
    assert not again.parity.any()


def test_gl3_basics():
    alg = gl(3, 3)
    assert alg.dim == 9
    e12, e23, e13 = 1, 5, 2  # (i-1)*3 + (j-1)
    assert alg.constants[(e12, e23)] == {e13: 1}
    assert check_super_skew(alg).ok and check_super_jacobi(alg).ok


def test_gl1_abelian():
    alg = gl(1, 5)
    assert alg.dim == 1 and not alg.constants


def test_sl3():
    alg = sl(3, 3)
    assert alg.dim == 8
    assert check_super_jacobi(alg).ok
    from verlie.superalgebra import derived_subalgebra

    assert derived_subalgebra(alg).dim == 8


def test_free_nilpotent_example():
    alg, der = free_nilpotent_example(3)
    assert alg.dim == 5
    # d(x) = y, d([x,[x,y]]) = -[y,[y,x]], d^2(x) = 0
    x, y, u, w = (np.eye(5, dtype=np.int64)[i] for i in (0, 1, 3, 4))
    assert np.array_equal(der @ x % 3, y)
    assert np.array_equal(der @ u % 3, (-w) % 3)
    assert not (der @ (der @ x) % 3).any()
    realization = v.realize_derivation(alg, der)
    assert realization.degree == 2


def test_g2_scaled_has_four_dimensional_ideal():
    alg = g2_scaled(3)
    assert check_super_jacobi(alg).ok
    base = alg.origin
    eye = np.eye(alg.dim, dtype=np.int64)
    seeds = [
        eye[base.e_index(Root((3, 1)))], eye[base.f_index(Root((3, 1)))],
        eye[base.e_index(Root((3, 2)))], eye[base.f_index(Root((3, 2)))],
    ]
    from verlie.superalgebra import ideal_closure

    assert ideal_closure(alg, seeds).dim == 4
    # in the Chevalley reduction the same seeds sweep out everything
    chev = catalog_algebra("g2", 3)
    seeds_c = [eye[chev.origin.e_index(Root((3, 1)))]]
    assert ideal_closure(chev, seeds_c).dim == 14


def test_generator_maps():
    alg = catalog_algebra("e6", 3)
    assert set(alg.gens) == {f"{k}{i}" for k in "efh" for i in range(1, 7)}
    # [e_i, f_i] = h_i for the generator vectors
    for i in (1, 4):
        got = alg.bracket(alg.gens[f"e{i}"], alg.gens[f"f{i}"])
        assert np.array_equal(got, alg.gens[f"h{i}"])


def test_labels_style():
    alg = integral_catalog("g2")
    assert alg.labels[0].startswith("e@")
    assert alg.labels[-1] == "h@2"


def test_serialization_roundtrip():
    from verlie.superalgebra import ModularSuperAlgebra

    alg = gl(3, 3)
    data = alg.to_json_dict()
    back = ModularSuperAlgebra.from_json_dict(data)
    assert back.constants == alg.constants
    assert np.array_equal(back.parity, alg.parity)
