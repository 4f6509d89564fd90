"""Acceptance suite: one test per criterion, each printing a PASS line with
the values it pinned.  Run with `pytest tests/test_acceptance.py -v -s`."""

import numpy as np
import pytest

import verlie as v
from tests.oracles import (
    center,
    clebsch_gordan,
    derived_subalgebra,
    free_nilpotent_example,
    g2_scaled,
    literal_reference,
)
from tests.pipelines import row_key, spec_pipeline
from verlie.chevalley import integral_catalog
from verlie.repalpha import block_counts, jordan_decompose, parse_element, rank_count_vector, realize
from verlie.roots import Coloring, admissible_subsets, catalog_gcm, derive_tilde, swap_orbit
from verlie.semisimplify import semisimplify
from verlie.superalgebra import (
    check_odd_cubes,
    check_super_jacobi,
    check_super_skew,
    ideal_closure,
    jacobi_witness,
    quotient,
    skew_witness,
    superdim,
)
from verlie.table import TABLE, row_pipeline, run_table
from verlie.verify import (
    cartan_torus_images,
    certify,
    generator_images,
    odd_part_irreducible,
    recognize_even_type,
    tilde_target,
    weight_split,
)

BLOCK_COUNTS = {
    ("f4", "e4"): (21, 14, 1),
    ("e6", "e2"): (35, 20, 1),
    ("e6", "e1+e2"): (22, 16, 8),
    ("e6", "e1+e2+e6"): (11, 14, 13),
    ("e7", "e1"): (66, 32, 1),
    ("e7", "e1+e7"): (39, 32, 10),
    ("e7", "e1+e2+e7"): (24, 26, 19),
    ("e8", "e1"): (133, 56, 1),
    ("e8", "e1+e2"): (78, 64, 14),
    ("e8", "e1+e2+e8"): (55, 50, 31),
    ("e8", "e1+e2+e6+e8"): (36, 40, 44),
    ("g2", "e2"): (3, 4, 1),
}

EXPECTED_TARGETS = {
    "g(1,6)": (21, 14), "g(2,3)": (11, 14), "g(3,3)": (22, 16), "g(2,6)": (35, 20),
    "g(4,3)": (24, 26), "g(4,6)": (66, 32), "el(5;3)": (39, 32), "g(8,3)": (55, 50),
    "g(6,6)": (78, 64), "g(8,6)": (133, 56), "g(3,6)": (36, 40),
}


@pytest.fixture(scope="module")
def table_rows():
    return run_table()


def test_criterion_1_block_counts():
    for (name, expr), expected in BLOCK_COUNTS.items():
        alg = v.catalog_algebra(name, 3)
        _, vec = parse_element(expr, alg)
        got = block_counts(jordan_decompose(realize(alg, vec)))
        assert got == expected, f"{name} @ {expr}: {got} != {expected}"
    print(f"CRITERION 1 PASS: {len(BLOCK_COUNTS)} characteristic-3 block-count rows exact")


def test_criterion_1_other_class_elements_by_chains():
    """The table counts a row's other class elements by the rank formula;
    their Jordan chains give the same counts."""
    others = [(spec, element) for spec in TABLE for element in spec.elements[1:]]
    assert len(others) == 12
    for spec, element in others:
        alg = v.catalog_algebra(spec.algebra, spec.p)
        realization = realize(alg, parse_element(element, alg)[1])
        assert block_counts(jordan_decompose(realization)) == spec.counts, f"{row_key(spec)}: {element}"
        assert rank_count_vector(realization) == spec.counts, f"{row_key(spec)}: {element}"


def test_criterion_2_certificate_table(table_rows):
    verified = {}
    for row in table_rows:
        assert row.ok, f"{row_key(row.spec)}: {row.mismatches}"
        if row.spec.route in ("maint", "custom-g36"):
            assert row.conclusion == "Verified"
            verified[row.spec.target] = row.sdim
    assert verified == EXPECTED_TARGETS
    print(f"CRITERION 2 PASS: all {len(verified)} named targets Verified with exact superdims")


def test_criterion_3_characteristic_five():
    realization, decomp, ss = row_pipeline("e8", 5, "e2+e3+e4")
    assert block_counts(decomp) == (55, 0, 0, 32, 13)
    assert superdim(ss.algebra) == (55, 32)
    assert check_super_jacobi(ss.algebra).ok
    split = weight_split(ss.algebra, cartan_torus_images(ss))
    label, rank, dim = recognize_even_type(ss.algebra, split)
    assert (label, dim) == ("B5", 55)
    assert odd_part_irreducible(ss.algebra, split)
    print("CRITERION 3 PASS: (55,0,0,32,13), superdim (55|32), even type B5, odd part irreducible")


def test_criterion_4_micro_examples():
    # gl_3 with the elementary-matrix element: superdim (2|2) and the exact
    # constants in the documented normalization
    from verlie.repalpha import ChainDecomposition, JordanChain

    gl3 = v.gl(3, 3)
    _, e23 = parse_element("e2", gl3)
    realization = realize(gl3, e23)

    def E(i, j):
        vec = np.zeros(9, dtype=np.int64)
        vec[(i - 1) * 3 + (j - 1)] = 1
        return vec

    chains = (
        JordanChain(np.array([E(1, 1)])),
        JordanChain(np.array([(E(1, 1) + E(2, 2) + E(3, 3)) % 3])),
        JordanChain(np.array([E(1, 2), (-E(1, 3)) % 3])),
        JordanChain(np.array([E(3, 1), E(2, 1)])),
        JordanChain(np.array([E(3, 2), (E(2, 2) - E(3, 3)) % 3, E(2, 3)])),
    )
    decomp = ChainDecomposition.of_chains(chains, realization.der, 3)
    ss = semisimplify(realization, decomp)
    assert superdim(ss.algebra) == (2, 2)
    c = ss.algebra.constants
    assert c[(0, 2)] == {2: 1} and c[(0, 3)] == {3: 2} and c[(2, 3)] == {1: 1}

    # the rank-2 exceptional algebra in the degree-scaled form: its
    # semisimplification has a (0|2) ideal with quotient of superdim (3|2)
    scaled = g2_scaled(3)
    _, ebeta = parse_element("e2", scaled)
    r2 = realize(scaled, ebeta)
    d2 = jordan_decompose(r2)
    assert block_counts(d2) == (3, 4, 1)
    ss2 = semisimplify(r2, d2)
    assert superdim(ss2.algebra) == (3, 4)
    base = scaled.origin
    eye = np.eye(scaled.dim, dtype=np.int64)
    from verlie.roots import Root

    seeds = [ss2.image(eye[base.e_index(Root((3, 1)))]),
             ss2.image(eye[base.f_index(Root((3, 2)))])]
    ideal = ideal_closure(ss2.algebra, seeds)
    par = ss2.algebra.parity
    assert ideal.dim == 2 and all(not row[par == 0].any() for row in ideal.rows)
    quot = quotient(ss2.algebra, ideal)
    assert superdim(quot.quotient) == (3, 2)
    assert check_super_jacobi(quot.quotient).ok and check_odd_cubes(quot.quotient).ok
    # perfect and centerless, with the odd part generating everything: the
    # defining behavior of the (3|2) orthosymplectic algebra
    from verlie.superalgebra import generated_subalgebra

    assert derived_subalgebra(quot.quotient).dim == 5
    assert center(quot.quotient).dim == 0
    odd_rows = np.eye(5, dtype=np.int64)[quot.quotient.parity == 1]
    assert generated_subalgebra(quot.quotient, odd_rows).dim == 5

    # the truncated free Lie algebra fails the odd-cube axiom
    fn, der = free_nilpotent_example(3)
    rn = v.realize_derivation(fn, der)
    ssn = semisimplify(rn, jordan_decompose(rn))
    assert superdim(ssn.algebra) == (1, 2)
    assert not check_odd_cubes(ssn.algebra).ok
    print("CRITERION 4 PASS: gl(1|1) constants exact; scaled-form (0|2) ideal quotient (3|2); "
          "free-nilpotent example fails odd cubes")


def test_criterion_5_star_row():
    from verlie.verify import TargetSpec, subquotient_certificate

    realization, decomp, ss = row_pipeline("f4", 3, "e1")
    assert superdim(ss.algebra) == (15, 8)
    gens = generator_images(ss, (1,))
    target = TargetSpec(name="sl(3|1)", p=3, superdim=(9, 6),
                        gcm=derive_tilde(catalog_gcm("f4"), (1,)))
    cert, sq = subquotient_certificate(ss, gens, target)
    assert superdim(sq.algebra) == (9, 6)
    assert cert.relations.ok and cert.conclusion == "Verified"
    print("CRITERION 5 PASS: full semisimplification (15|8); generator subquotient (9|6) "
          "satisfies the sl(3|1) relations")


def test_criterion_6_even_row():
    realization, decomp, ss = row_pipeline("e7", 3, "e2+e5+e7")
    assert superdim(ss.algebra) == (52, 0)
    label, rank, dim = recognize_even_type(ss.algebra, weight_split(ss.algebra, cartan_torus_images(ss)))
    assert (label, rank, dim) == ("F4", 4, 52)
    print("CRITERION 6 PASS: purely even output of dim 52 recognized as type F4")


def test_criterion_7_oracle_equivalence():
    checked = 0
    for spec in TABLE:
        realization, decomp, ss = spec_pipeline(spec)
        reference = literal_reference(realization, decomp)
        assert reference.constants == ss.algebra.constants, row_key(spec)
        assert np.array_equal(reference.parity, ss.algebra.parity)
        checked += 1
    print(f"CRITERION 7 PASS: semisimplify == literal three-case reference on all {checked} "
          "table rows, constant for constant")


def test_criterion_8_property_suites(table_rows):
    # super skew + super Jacobi on every constructed algebra and superalgebra
    constructed = [v.catalog_algebra(name, 3) for name in ("g2", "f4", "e6", "e7", "e8")]
    constructed += [v.catalog_algebra("e8", 5), v.gl(3, 3), v.sl(3, 3), g2_scaled(3)]
    for alg in constructed:
        assert check_super_skew(alg).ok and check_super_jacobi(alg).ok
    row_algebras = 0
    for spec in TABLE:
        _, _, ss = spec_pipeline(spec)
        assert check_super_skew(ss.algebra).ok and check_super_jacobi(ss.algebra).ok
        row_algebras += 1
    # integral skew and Jacobi on every Chevalley output (full scans; the Jacobi sum needs skew)
    for name in ("g2", "f4", "e6", "e7", "e8"):
        alg = integral_catalog(name)
        assert skew_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None
        assert jacobi_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None) is None
    # truncated tensor rule vs brute-force Jordan decomposition
    from tests.test_semisimplify import brute_clebsch_gordan

    cg_pairs = 0
    for p in (3, 5, 7):
        for m in range(1, p):
            for n in range(1, p):
                assert tuple(sorted(clebsch_gordan(m, n, p))) == brute_clebsch_gordan(m, n, p)
                cg_pairs += 1
    print(f"CRITERION 8 PASS: axiom checks on {len(constructed)} base algebras and "
          f"{row_algebras} outputs; full integral Jacobi on 5 Chevalley bases; "
          f"tensor rule matches brute force on {cg_pairs} pairs")


def test_criterion_9_swap_orbit_invariance():
    rows_by_subset = {(spec.algebra, spec.subset): spec for spec in TABLE if spec.subset}
    orbits_checked = certs_checked = 0
    for name in ("g2", "f4", "e6", "e7", "e8"):
        gcm = catalog_gcm(name)
        alg = v.catalog_algebra(name, 3)
        admissible = admissible_subsets(gcm)
        for subset in admissible:
            if not subset:
                continue
            orbit = swap_orbit(Coloring(gcm, frozenset(subset)))
            counts = []
            for coloring in orbit:
                nodes = coloring.sorted_black()
                _, vec = parse_element("+".join(f"e{i}" for i in nodes), alg)
                counts.append(block_counts(jordan_decompose(realize(alg, vec))))
            assert len(set(counts)) == 1, f"{name} {subset}: counts differ across orbit"
            orbits_checked += 1
            # certificates agree for the admissible members of the orbit
            spec = rows_by_subset.get((name, subset))
            if spec is None or spec.route != "maint":
                continue
            conclusions = set()
            for coloring in orbit:
                nodes = coloring.sorted_black()
                if nodes not in admissible:
                    continue
                _, _, ss = row_pipeline(name, 3, "+".join(f"e{i}" for i in nodes))
                gens = generator_images(ss, nodes)
                cert = certify(ss.algebra, gens, tilde_target(spec.target, ss, nodes))
                conclusions.add(cert.conclusion)
                certs_checked += 1
            assert conclusions == {"Verified"}, f"{name} {subset}: {conclusions}"
    print(f"CRITERION 9 PASS: identical block counts across {orbits_checked} swap orbits; "
          f"{certs_checked} orbit certificates all Verified")
