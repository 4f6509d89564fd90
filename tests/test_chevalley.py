import gc
import hashlib
import json
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import verlie as v
from tests.oracles import derived_subalgebra, free_nilpotent_example, g2_scaled
from tests.test_fp import largest_accepted_prime, next_prime
from verlie import chevalley, table
from verlie.chevalley import (
    _exact_div,
    catalog_algebra,
    chevalley_basis,
    gl,
    integral_catalog,
    reduce_mod_p,
    sl,
)
from verlie.errors import JacobiViolation
from verlie.roots import Root, RootSystem, catalog_gcm, positive_roots
from verlie.superalgebra import ModularSuperAlgebra, check_super_jacobi, check_super_skew, jacobi_witness, skew_witness


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


CLASSICAL = [f"a{n}" for n in range(1, 7)] + [f"b{n}" for n in range(2, 6)] + [
    f"c{n}" for n in range(2, 6)] + [f"d{n}" for n in range(4, 7)]

# SHA-256 of the labels and the (i, j, k, c) quads of each integral basis, in
# the constants' iteration order: any change to a sign, a magnitude or the
# order in which the bootstrap emits the brackets moves a digest.
PINNED_BASES = {
    "a1": "fddb1e7c19c896eeafdece458b90642ab61548e4942e47311a2e65d62acd88e0",
    "a2": "e37366f2ee076776447cfb8a65a5a579e7f36cb349745cebb5b41c4b5570b655",
    "a3": "52896653b13f25fb5f9ad07ea6a2a826da0c1d8e34bc8aa4fd0ca2839cf46cd3",
    "a4": "b45abdb7ea1d7162a9d62bbfad8f1d648bcd9af7750b480eefdc5b0c06173f70",
    "a5": "3faa63523996baf8431fb01c556e87213f6a29835b389334e0807f632b331496",
    "a6": "387f6fee9754733fefbec527e19f332c90affdf66dff550df265d90d8783bed8",
    "b2": "4e30c4391c32db63161163b94f69a91c22f54723674534346e6f512cdeb6ae09",
    "b3": "66abd41a3b01f2c38853e06a062913245127b359d13d265ee2bfd3aceb70a19e",
    "b4": "2a56c7289dbd9799464b493df14cfa4f0d0300271b408acc3bc27fa9f25953d9",
    "b5": "275ffc613defcf4008a679bdbd15f0e643050cb1453dc15f377867da17a4cd2d",
    "c2": "045fb2148c1f8f0b587aa391c79d5fff977dd51bcb0efcd383f8bf6d9ff9b71e",
    "c3": "a052d6f75ff061a945342e1b3e00dd71abc4c85cc869a5c4233ada7ea6e7d34d",
    "c4": "d5b71faeadba663dfa8adf18bbad973f042968ea60494276e2428a0528bed691",
    "c5": "91848fc639d524e8668df875dcada68e30a74c18fefc9cdd50a9a26f43cb4e84",
    "d4": "d335b4417cd2eb255f30626bec21eb642cc92dad297b77bfe48520f8def8cf3a",
    "d5": "93c6e525e8b3779567b8266ace349359843c984dacac9d9d40d5b08fd357688a",
    "d6": "c81ec1fc8c6a6989dba9f9edefe66bb5963ddda375f2aadc1dbf38822936fa81",
    "g2": "4f89ac4a8a9662a714cb65a647e6222676098a81e33c71bd3274d0d9b9861e25",
    "f4": "0f2d9b555460c22cd55024ccb66a4dc434741b9300c3a154526627e4316e58ae",
    "e6": "b85ab407c76f6fbd223dc8349cc4ef23e202ed1aeeb6a6fac37d2cc727505e1c",
    "e7": "7b1ad3309b4524fdfd7853c9685482191bef1c937ab68f76d07653f24cfad6d8",
    "e8": "e795235172b8e8e8ef06b7516aea9680004de64830cd1820748eab1c311b594e",
}


def _basis_digest(alg) -> str:
    h = hashlib.sha256("\n".join(alg.labels).encode())
    for (i, j), comps in alg.constants.items():
        for k, c in comps.items():
            h.update(f"\n{i} {j} {k} {c}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_chevalley_basis_pinned(name):
    assert _basis_digest(chevalley_basis(catalog_gcm(name))) == PINNED_BASES[name]


# SHA-256 of the sorted tensor, labels, generator rows and parity of gl_n and sl_n at p = 3, 5 and 7
PINNED_MATRIX_ALGEBRAS = {
    "gl1": "5b419b65ac791e69ff57f4221cd1ba22e4010df82f5eaa4beab3ff53fc44b486",
    "gl2": "b01d32ce664571b3868e9c928cd8ba84e3300f41d6801e13fd0b66ffeec33178",
    "gl3": "b01007d2caa01c585460111fa06bb1278705c9aa57aeaa84728352123d3d1c59",
    "gl4": "1ddef86002bdfa17f357c2b2ebd7fde622d2ecb4f4606f9b59c6b36245f9c981",
    "gl5": "7a6a973bd210cba3016fcc3afc5fb9d7a8a0fc9a4df3ec48522dcaf160495df5",
    "gl6": "9f1e643539fcafbbe14e73f8c3b7b5da5005746cc3af54938a10a167e896fa3f",
    "sl2": "61ee458d5eaf5d79e331187b40279fee01ded2d45bdac01e830154d791c0b218",
    "sl3": "8dabcd578f13257a726cde242caea6ca48e914093ecf76d2409404e8de95ae61",
    "sl4": "1deb93df4e34fcb3ae79170fc34c95fc4263f2d01eff80bcdf9059ec35369a8c",
    "sl5": "bfae8761e16f824c7eda82fd45a938d1c2592048f310dc3dfe3cc1cf48015a21",
    "sl6": "e49e4e16130e00d2f70de0ef429dcaae821d256799f65f631e7ad48be536bb01",
}


@pytest.mark.parametrize("name", sorted(PINNED_MATRIX_ALGEBRAS))
def test_matrix_algebras_pinned(name):
    make = gl if name.startswith("gl") else sl
    payload = []
    for p in (3, 5, 7):
        alg = make(int(name[2:]), p)
        t = alg.tensor
        payload.append({"p": p, "shape": list(t.shape), "row": t.row.tolist(), "col": t.col.tolist(),
                        "data": t.data.tolist(), "labels": list(alg.labels),
                        "gens": {gen: vec.tolist() for gen, vec in alg.gens.items()}, "parity": alg.parity.tolist()})
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == PINNED_MATRIX_ALGEBRAS[name]


def test_exact_div_returns_the_quotient():
    assert _exact_div(12, 4, "non-integral structure constant") == 3
    assert _exact_div(-12, 4, "non-integral structure constant") == -3
    assert _exact_div(0, 7, "non-integral mixed constant") == 0


@pytest.mark.parametrize("num,den,shown", [(6, 4, "3/2"), (-3, 9, "-1/3"), (1, 2, "1/2")])
def test_exact_div_rejects_a_remainder(num, den, shown):
    with pytest.raises(JacobiViolation, match=f"^non-integral structure constant {shown}$"):
        _exact_div(num, den, "non-integral structure constant")


@pytest.mark.parametrize("name,dropped,message", [
    ("g2", (1, 1), "non-integral mixed constant -1/3"),
    ("b3", (1, 1, 0), "non-integral mixed constant 1/2"),
    ("f4", (0, 0, 1, 1), r"\|N\| = 2 != 1 for a special pair"),
    ("c3", (0, 2, 1), r"\|N\| = 4 != 2 for a special pair"),
])
def test_bootstrap_rejects_a_root_system_missing_a_root(monkeypatch, name, dropped, message):
    gcm = catalog_gcm(name)
    kept = tuple(r for r in positive_roots(gcm).positive if r.coords != dropped)
    monkeypatch.setattr(chevalley, "positive_roots", lambda g: RootSystem(g, kept))
    with pytest.raises(JacobiViolation, match=message):
        chevalley_basis(gcm)


@pytest.mark.parametrize("name", ["g2", "f4", "e6", *CLASSICAL])
def test_integral_jacobi_full_small(name):
    alg = integral_catalog(name)
    assert skew_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None
    assert jacobi_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None


def test_e8_build_is_one_small_entry_array():
    """The E8 basis is built straight into its entry array, each bracket
    followed by its mirror, without a dict per pair of basis vectors."""
    gcm = catalog_gcm("e8")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        alg = chevalley_basis(gcm)
        peak = tracemalloc.get_traced_memory()[1]
        del alg
        # with the collector off, nothing of the build outlives what it returns
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 1_600_000
    assert left < 300_000
    entries = chevalley_basis(gcm).entries
    assert entries.dtype == np.int64 and entries.shape == (16694, 4)
    with pytest.raises(ValueError):
        entries[0, 3] = 0
    bracket, mirror = entries[0::2], entries[1::2]
    assert np.array_equal(mirror, bracket[:, [1, 0, 2, 3]] * [1, 1, 1, -1])


def test_builds_leave_no_reference_cycles():
    """Every catalog build, its reduction and one E8 table row free all they
    made when they return, without waiting for the cyclic collector."""
    spec = next(s for s in table.TABLE if s.algebra == "e8" and s.elements[0] == "e1")
    gc.collect()
    gc.disable()
    try:
        for name in PINNED_BASES:
            reduce_mod_p(chevalley_basis(catalog_gcm(name)), 3)
        assert table.run_row.__wrapped__(spec).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("change", [2, -1, 0])
def test_integral_antisymmetry_detects_one_changed_constant(change):
    """Doubling, negating or dropping one constant of g2 breaks
    C(i,j,k) = -C(j,i,k) over Z."""
    alg = integral_catalog("g2")
    entries = alg.entries.copy()
    entries[0, 3] *= change
    if not entries[0, 3]:
        entries = entries[1:]
    changed = replace(alg, entries=entries)
    assert skew_witness(changed.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is not None


@pytest.mark.parametrize("name", ["e7", "e8"])
def test_integral_jacobi_large(name):
    # the exact scan over all basis triples, which implies the derivation
    # identity [ad a, ad b] = ad [a, b] on every pair of generators
    alg = integral_catalog(name)
    assert skew_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None
    assert jacobi_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None


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


@pytest.mark.parametrize("name,p", [("g2", 3), ("f4", 5), ("e6", 7)])
def test_reduce_mod_p_keeps_the_integral_order(name, p):
    """The reduction's tensor is the one from_entries sums from the integral
    constants, entry by entry."""
    alg = integral_catalog(name)
    quads = [(i, j, k, c) for (i, j), comps in alg.constants.items() for k, c in comps.items()]
    expected = ModularSuperAlgebra.from_entries(p, np.zeros(alg.dim, dtype=np.int64), *np.transpose(quads))
    assert reduce_mod_p(alg, p).tensor == expected.tensor


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


def test_sl_accepts_the_primes_of_its_ambient_gl():
    """sl_n is read back from the brackets of gl_n, so its modulus bound is
    that of dimension n^2: the largest prime gl_2 accepts builds sl_2, and the
    next prime is refused naming dimension 4, although sl_2 has dimension 3."""
    from verlie.errors import BadModulus

    p = largest_accepted_prime(4)
    assert sl(2, p).dim == 3
    with pytest.raises(BadModulus, match="too large for dimension 4"):
        sl(2, next_prime(p))


def test_sl12_builds_in_well_under_a_second():
    """One batch of brackets of the basis rows in gl_12, read back through
    the left inverse, instead of a dense commutator per pair of basis vectors."""
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        alg = sl(12, 3)
        elapsed.append(time.perf_counter() - start)
    assert alg.dim == 143 and min(elapsed) < 0.05


@pytest.mark.parametrize("name", ["g2", "gl3"])
def test_catalog_constants_are_read_only(name):
    """Writes through `constants` land in a copy, and the tensor arrays
    refuse them, so the shared catalog algebra keeps its constants."""
    alg = catalog_algebra(name, 3)
    before = alg.constants
    key, comps = next(iter(alg.constants.items()))
    alg.constants[(0, 0)] = {0: 1}
    alg.constants[key][next(iter(comps))] = 0
    del alg.constants[key]
    for arr in (alg.tensor.row, alg.tensor.col, alg.tensor.data):
        with pytest.raises(ValueError):
            arr[0] = 2
    assert catalog_algebra(name, 3).constants == before


def test_integral_catalog_is_read_only():
    alg = integral_catalog("g2")
    key, comps = next(iter(alg.constants.items()))
    with pytest.raises(TypeError):
        alg.constants[(0, 6)] = {0: 1}
    with pytest.raises(TypeError):
        alg.constants[key][next(iter(comps))] = 0
    assert skew_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None
    assert jacobi_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None
    assert check_super_jacobi(reduce_mod_p(integral_catalog("g2"), 5)).ok


def test_shared_integral_basis_cannot_change():
    """integral_catalog shares one basis per name, so none of it can be
    changed: its fields and its root system's are frozen, its labels are a
    tuple and its entries a bytes buffer on which WRITEABLE cannot be set."""
    alg = integral_catalog("g2")
    for owner, name in ((alg, "dim"), (alg, "labels"), (alg, "entries"), (alg.roots, "positive")):
        with pytest.raises(FrozenInstanceError):
            setattr(owner, name, getattr(owner, name))
    with pytest.raises(TypeError):
        alg.labels[0] = "zzz"
    with pytest.raises(ValueError):
        alg.entries.flags.writeable = True
    reduced = catalog_algebra("g2", 7)
    assert reduced.origin is alg and reduced.labels == alg.labels and reduced.labels[0] != "zzz"
    assert reduced.dim == alg.dim == 14


@pytest.mark.parametrize("name", ["g2", "f4", "e6", "e7", "e8", "a4", "b3", "c3", "d4", "gl3", "sl4"])
def test_catalog_generators_are_rows_of_one_small_array(name):
    """The generators are read-only rows of one (3·rank, dim) array, so an
    algebra keeps no dim x dim identity alive for them."""
    alg = catalog_algebra(name, 3)
    rank = alg.origin.rank if alg.origin is not None else int(name[2:]) - 1
    base = alg.gens["e1"].base
    assert base.shape == (3 * rank, alg.dim) and not base.flags.writeable
    assert all(vec.base is base and not vec.flags.writeable for vec in alg.gens.values())


def test_algebra_equality():
    assert gl(3, 3) == gl(3, 3)
    assert catalog_algebra("gl3", 3) == gl(3, 3)  # frozen tensor arrays compare equal to writable ones
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
    with pytest.raises(FrozenInstanceError):
        alg.dim = 9
    with pytest.raises(TypeError):
        alg.gens["e1"] = alg.gens["f1"]
    with pytest.raises(TypeError):
        alg.labels[0] = "x"
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
