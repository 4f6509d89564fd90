import itertools

import numpy as np
import pytest

import verlie as v
from verlie.errors import NotDiagonalizable, UnrecognizedType
from verlie.roots import catalog_gcm, derive_tilde
from verlie.superalgebra import (
    ModularSuperAlgebra,
    Subspace,
    check_odd_cubes,
    check_super_jacobi,
    check_super_skew,
    closure,
    superdim,
)
from verlie.table import row_pipeline
from verlie.verify import (
    Certificate,
    GeneratorImages,
    TargetSpec,
    cartan_torus_images,
    certify,
    certify_even_route,
    check_generation,
    check_relations,
    custom_plan_g36,
    generator_images,
    odd_part_irreducible,
    recognize_even_type,
    subquotient_certificate,
    target_by_name,
    target_catalog,
    tilde_target,
    weight_split,
)


def pipeline(name, p, expr, subset=None):
    alg = v.catalog_algebra(name, p)
    _, vec = v.parse_element(expr, alg)
    realization = v.realize(alg, vec)
    if subset is not None:
        decomp = v.structured_decompose(realization, subset)
    else:
        decomp = v.jordan_decompose(realization)
    return realization, decomp, v.semisimplify(realization, decomp)


def test_target_catalog_contents():
    catalog = target_catalog()
    assert len(catalog) == 12
    sdims = {t.name: t.superdim for t in catalog}
    assert sdims == {
        "g(1,6)": (21, 14), "g(2,3)": (11, 14), "g(3,3)": (22, 16), "g(2,6)": (35, 20),
        "g(4,3)": (24, 26), "g(4,6)": (66, 32), "el(5;3)": (39, 32), "g(8,3)": (55, 50),
        "g(6,6)": (78, 64), "g(8,6)": (133, 56), "g(3,6)": (36, 40), "el(5;5)": (55, 32),
    }
    g16 = target_by_name("g(1,6)")
    assert g16.gcm.entries == ((2, -1, 0), (-1, 2, -2), (0, -1, 0))
    assert g16.gcm.parity == (0, 0, 1)
    g36 = target_by_name("g(3,6)")
    assert g36.gcm.parity == (1, 1, 1, 0)
    el55 = target_by_name("el(5;5)")
    assert el55.gcm is None and el55.even_type == "B5" and el55.odd_dim == 32 and el55.p == 5


def test_anchor_tilde_matrices_equal_catalog():
    # for every certificate row, deleting the subset nodes reproduces the
    # catalogued target matrix verbatim, parity included
    from verlie.table import TABLE

    for spec in TABLE:
        if spec.route != "maint":
            continue
        tilde = derive_tilde(catalog_gcm(spec.algebra), spec.subset)
        cat = target_by_name(spec.target)
        assert tilde.entries == cat.gcm.entries, spec.key
        assert tilde.parity == cat.gcm.parity, spec.key


def test_generator_images_e6_pair():
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    gens = generator_images(ss, (1, 2))
    assert gens.nodes == [3, 4, 5, 6]
    assert gens.parity == [1, 1, 0, 0]
    alg = ss.algebra
    for i in range(4):
        assert np.array_equal(alg.bracket(gens.e[i], gens.f[i]), gens.h[i])


def test_generator_images_empty_subset_match_source_relations():
    _, _, ss = pipeline("f4", 3, "e1-e1", subset=())
    gens = generator_images(ss, ())
    assert gens.parity == [0, 0, 0, 0]
    target = TargetSpec(name="f4-self", p=3, superdim=(52, 0), gcm=catalog_gcm("f4"))
    report = check_relations(ss.algebra, gens, target)
    assert report.ok
    cert = certify(ss, gens, target)
    assert cert.conclusion == "Verified"


def test_check_relations_wrong_rank():
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    gens = generator_images(ss, (1, 2))
    report = check_relations(ss.algebra, gens, target_by_name("g(2,3)"))
    assert not report.ok and report.failures[0]["relation"] == "rank"


def pairwise_relation_failures(alg, gens, gcm):
    """The relation failures check_relations lists, one bracket per pair."""
    out = []
    zero = np.zeros(alg.dim, dtype=np.int64)
    for i in range(gens.rank):
        for j in range(gens.rank):
            a = gcm.a(i + 1, j + 1)
            for kind, actual, wanted in (("ef", alg.bracket(gens.e[i], gens.f[j]), gens.h[i] if i == j else zero),
                                         ("he", alg.bracket(gens.h[i], gens.e[j]), a * gens.e[j]),
                                         ("hf", alg.bracket(gens.h[i], gens.f[j]), -a * gens.f[j]),
                                         ("hh", alg.bracket(gens.h[i], gens.h[j]), zero)):
                if ((actual - wanted) % alg.p).any():
                    out.append({"relation": kind, "i": i + 1, "j": j + 1})
    return out


def test_check_relations_same_rank_wrong_target():
    """Against the rank-4 even Cartan matrix of f4, the images of the e6
    pair fail both parity and bracket relations; the batched check lists the
    parity failures first, then the same bracket failures, in the same
    order, as a loop over single brackets."""
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    gens = generator_images(ss, (1, 2))
    right = derive_tilde(catalog_gcm("e6"), (1, 2))
    assert check_relations(ss.algebra, gens, TargetSpec("right", 3, ss.superdim(), right)).ok
    assert pairwise_relation_failures(ss.algebra, gens, right) == []
    wrong = catalog_gcm("f4")
    report = check_relations(ss.algebra, gens, TargetSpec("wrong", 3, ss.superdim(), wrong))
    parity = [f for f in report.failures if f["relation"] == "parity"]
    expected = pairwise_relation_failures(ss.algebra, gens, wrong)
    assert parity and expected and not report.ok
    assert report.failures == parity + expected


def test_certify_refuted_on_superdim():
    # purely even output vs a genuinely super target
    _, _, ss = pipeline("e7", 3, "e2+e5+e7")
    target = target_by_name("g(4,6)")
    cert = certify(ss, GeneratorImages(e=[np.zeros(ss.algebra.dim, dtype=np.int64)] * 6,
                                       f=[np.zeros(ss.algebra.dim, dtype=np.int64)] * 6,
                                       h=[np.zeros(ss.algebra.dim, dtype=np.int64)] * 6,
                                       parity=[0] * 6), target)
    assert cert.conclusion == "Refuted"
    assert cert.actual_superdim == (52, 0)


def test_certificate_verdict_follows_its_facts():
    for match, relations, generation, cubes in itertools.product((True, False), repeat=4):
        cert = Certificate("t", 3, (2, 2), (2, 2) if match else (3, 1), relations, generation, cubes)
        assert cert.superdim_match == match
        if not match:
            assert cert.conclusion == "Refuted"
        elif relations and generation and cubes:
            assert cert.conclusion == "Verified"
        else:
            assert cert.conclusion == "Inconclusive"
        assert cert.to_json_dict()["conclusion"] == cert.conclusion
    cert = Certificate("t", 3, (2, 2), (2, 2), True, True, True)
    assert cert.conclusion == "Verified"
    cert.generation_pass = False
    assert cert.conclusion == cert.to_json_dict()["conclusion"] == "Inconclusive"
    cert.expected_superdim = (3, 1)
    assert cert.conclusion == cert.to_json_dict()["conclusion"] == "Refuted"
    assert cert.to_json_dict()["superdim_match"] is False


def test_certify_checks_characteristic():
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    gens = generator_images(ss, (1, 2))
    with pytest.raises(ValueError):
        certify(ss, gens, target_by_name("el(5;5)"))


def test_custom_plan_g36_properties():
    _, _, ss = pipeline("e8", 3, "e1+e2+e6+e8")
    gens = custom_plan_g36(ss)
    alg = ss.algebra
    assert gens.parity == [1, 1, 1, 0]
    assert alg.vector_parity(gens.e[3]) == 0  # the singleton generator is even
    for i in range(4):
        for j in range(4):
            assert not alg.bracket(gens.h[i], gens.h[j]).any()
    assert check_generation(alg, gens)
    cert = certify(ss, gens, target_by_name("g(3,6)"))
    assert cert.conclusion == "Verified"


def test_custom_plan_rejects_wrong_element():
    _, _, ss = pipeline("e8", 3, "e1")
    with pytest.raises(ValueError):
        custom_plan_g36(ss)


def test_subquotient_certificate_star():
    _, _, ss = pipeline("f4", 3, "e1", subset=(1,))
    gens = generator_images(ss, (1,))
    assert superdim(ss.algebra) == (15, 8)
    assert not check_generation(ss.algebra, gens)
    target = TargetSpec(name="sl(3|1)", p=3, superdim=(9, 6),
                        gcm=derive_tilde(catalog_gcm("f4"), (1,)))
    cert, sq = subquotient_certificate(ss, gens, target)
    assert cert.conclusion == "Verified"
    assert superdim(sq.algebra) == (9, 6)
    assert cert.details["full_superdim"] == [15, 8]


def test_recognize_f4_self():
    alg = v.catalog_algebra("f4", 3)
    torus = [alg.gens[f"h{i}"] for i in (1, 2, 3, 4)]
    assert recognize_even_type(alg, weight_split(alg, torus)) == ("F4", 4, 52)


def test_recognize_b5_self():
    alg = v.reduce_mod_p(v.chevalley_basis(catalog_gcm("b5")), 5)
    torus = [alg.gens[f"h{i}"] for i in range(1, 6)]
    assert recognize_even_type(alg, weight_split(alg, torus)) == ("B5", 5, 55)


def test_recognize_a2():
    alg = v.sl(3, 5)
    torus = [alg.gens["h1"], alg.gens["h2"]]
    assert recognize_even_type(alg, weight_split(alg, torus)) == ("A2", 2, 8)


def test_recognize_catalog_types():
    def recognize(name):
        gcm = catalog_gcm(name)
        alg = v.reduce_mod_p(v.chevalley_basis(gcm), 5)
        return recognize_even_type(alg, weight_split(alg, [alg.gens[f"h{i}"] for i in range(1, gcm.n + 1)]))

    dims = {"a1": 3, "a2": 8, "a3": 15, "a4": 24, "b2": 10, "b3": 21, "b4": 36,
            "c3": 21, "c4": 36, "d4": 28, "d5": 45, "f4": 52, "e6": 78}
    for name, dim in dims.items():
        assert recognize(name) == (name.upper(), catalog_gcm(name).n, dim)
    # the triple edge has root strings of length 4, past _resolve_pairing
    with pytest.raises(UnrecognizedType):
        recognize("g2")


def test_recognize_rejects_nilpotent_torus():
    alg = v.sl(2, 3)
    with pytest.raises(NotDiagonalizable):
        recognize_even_type(alg, weight_split(alg, [alg.gens["e1"]]))


def test_recognize_rejects_noncommuting_torus():
    alg = v.sl(3, 5)
    with pytest.raises(ValueError):
        recognize_even_type(alg, weight_split(alg, [alg.gens["h1"], alg.gens["e1"]]))


def test_even_route_el55():
    _, _, ss = pipeline("e8", 5, "e2+e3+e4")
    cert = certify_even_route(ss, target_by_name("el(5;5)"))
    assert cert.conclusion == "Verified"
    assert cert.details["even_type"] == "B5"
    torus = cartan_torus_images(ss)
    assert len(torus) == 5


def test_so16_module_split_inside_rank8_mod5():
    # the 120-dim orthogonal subalgebra generated by e_2..e_8 and the deep
    # root vector splits off 55 J_1 + 13 J_5 under the derivation, leaving
    # the 128-dim spinor complement as exactly 32 J_4
    from verlie import fp

    alg = v.catalog_algebra("e8", 5)
    deep = "[[[[e1,e3],[e4,e5]],[[e2,e4],[e5,e6]]],[[[e1,e3],[e2,e4]],[[e6,e7],[e5,[e3,e4]]]]]"
    _, e100 = v.parse_element(deep, alg)
    _, f100 = v.parse_element(deep.replace("e", "f"), alg)
    seeds = [alg.gens[f"{k}{i}"] for k in "ef" for i in range(2, 9)] + [e100, f100]
    sub = v.generated_subalgebra(alg, seeds)
    assert sub.dim == 120
    _, x = v.parse_element("e2+e3+e4", alg)
    der = alg.ad(x)
    acted = (der @ sub.rows.T).T % 5
    coeffs = acted[:, list(sub.pivots)]
    assert not ((acted - coeffs @ sub.rows) % 5).any()  # D-invariant
    ranks = [sub.dim]
    power = np.eye(sub.dim, dtype=np.int64)
    for _ in range(6):
        power = power @ (coeffs.T % 5) % 5
        ranks.append(fp.rank(power, 5))
    counts = tuple(ranks[l - 1] - 2 * ranks[l] + ranks[l + 1] for l in range(1, 6))
    assert counts == (55, 0, 0, 0, 13)
    total = (55, 0, 0, 32, 13)
    assert tuple(t - c for t, c in zip(total, counts)) == (0, 0, 0, 32, 0)


def test_odd_part_irreducible_negative_case():
    alg, der = v.free_nilpotent_example(3)
    realization = v.realize_derivation(alg, der)
    ss = v.semisimplify(realization, v.jordan_decompose(realization))
    assert not odd_part_irreducible(ss.algebra, weight_split(ss.algebra, []))


SL2 = tuple(np.array(m) for m in ([[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]))  # e, h, f


def sl2_module_algebra(blocks, odd_basis, p=5) -> ModularSuperAlgebra:
    """sl2 ⋉ M over F_p with [M, M] = 0.  The even part has the basis e, h, f.
    M is a direct sum of natural (block 2) and trivial (block 1) modules, and
    its basis is `odd_basis`, given in the coordinates of that sum."""
    basis = np.array(odd_basis, dtype=np.int64).T
    to_basis = v.fp.inverse(basis, p)
    m = len(basis)
    entries = []
    for i, x in enumerate(SL2):
        for j, y in enumerate(SL2):
            comm = x @ y - y @ x
            entries += [(i, j, k, c) for k, c in enumerate((comm[0, 1], comm[0, 0], comm[1, 0])) if c]
        act = np.zeros((m, m), dtype=np.int64)
        start = 0
        for size in blocks:
            if size == 2:
                act[start : start + 2, start : start + 2] = x
            start += size
        act = to_basis @ act @ basis % p  # column b: [x, w_b] over the odd basis
        for a, b in zip(*np.nonzero(act)):
            entries += [(i, 3 + b, 3 + a, act[a, b]), (3 + b, i, 3 + a, -act[a, b])]
    return ModularSuperAlgebra.from_entries(p, [0, 0, 0] + [1] * m, *np.transpose(entries))


def test_odd_part_irreducible_sees_a_submodule_without_basis_vectors():
    # V + V for the natural module V of sl2, on a basis no vector of which
    # lies in a proper submodule; the diagonal {(v, v)} is one all the same
    odd_basis = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1), (1, 1, 1, 0)]
    alg = sl2_module_algebra((2, 2), odd_basis)
    assert check_super_skew(alg).ok and check_super_jacobi(alg).ok and check_odd_cubes(alg).ok
    even = np.eye(alg.dim, dtype=np.int64)[:3]

    def images(frontier, _):
        return alg.brackets(even, frontier)

    for w in np.eye(alg.dim, dtype=np.int64)[3:]:
        assert closure(Subspace.from_vectors([w], alg.dim, 5), images).dim == 4
    diagonal = np.zeros((2, alg.dim), dtype=np.int64)
    diagonal[:, 3:] = (v.fp.inverse(np.array(odd_basis).T, 5) @ [[1, 0], [0, 1], [1, 0], [0, 1]]).T % 5
    assert closure(Subspace.from_vectors(diagonal, alg.dim, 5), images).dim == 2
    # h has the weights 1 and -1 on the odd part, each twice
    verdict = odd_part_irreducible(alg, weight_split(alg, [even[1]]))
    assert not verdict
    assert verdict.witness == {"weight": (1,), "multiplicity": 2}


def test_odd_part_irreducible_names_a_closed_weight_set():
    # V + a trivial line: odd weights 0, 1, -1 of multiplicity 1, the line closed
    alg = sl2_module_algebra((2, 1), np.eye(3, dtype=np.int64))
    h = np.eye(alg.dim, dtype=np.int64)[1]
    verdict = odd_part_irreducible(alg, weight_split(alg, [h]))
    assert not verdict
    assert verdict.witness == {"closed_weights": [(0,)]}
    natural = sl2_module_algebra((2,), np.eye(2, dtype=np.int64))
    assert odd_part_irreducible(natural, weight_split(natural, [h[:5]]))


def test_even_route_brackets_in_batches(monkeypatch):
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4", None)
    torus = cartan_torus_images(ss)
    real_ad = ModularSuperAlgebra.ad
    calls = []

    def counted(self, vec):
        calls.append(1)
        return real_ad(self, vec)

    monkeypatch.setattr(ModularSuperAlgebra, "ad", counted)
    cert = certify_even_route(ss, target_by_name("el(5;5)"))
    assert cert.conclusion == "Verified"
    assert len(calls) <= len(torus)


def test_even_route_certificate_keeps_its_witness_off_the_json():
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4", None)
    cert = certify_even_route(ss, target_by_name("el(5;5)"))
    assert cert.witness is None
    cert.witness = {"weight": (1,), "multiplicity": 2}
    assert "witness" not in cert.to_json_dict()


def test_relation_report_h_span_abelian():
    # passing relations imply the h images span an abelian subalgebra of the
    # target rank
    _, _, ss = pipeline("e7", 3, "e1+e7", subset=(1, 7))
    gens = generator_images(ss, (1, 7))
    cert = certify(ss, gens, tilde_target("el(5;3)", ss, (1, 7)))
    assert cert.conclusion == "Verified"
    from verlie.superalgebra import Subspace

    span = Subspace.from_vectors(gens.h, ss.algebra.dim, 3)
    assert span.dim == 5
    for a in gens.h:
        for b in gens.h:
            assert not ss.algebra.bracket(a, b).any()


@pytest.mark.parametrize(
    "expr,subset,center_dim",
    [("e2", (2,), 1), ("e1+e2", (1, 2), 1), ("e1+e2+e6", (1, 2, 6), 1)],
)
def test_simple_modulo_center_outputs(expr, subset, center_dim):
    # the rank-6 source and all three of its outputs have one-dimensional
    # centers, and quotienting by the center leaves a centerless algebra
    from verlie.superalgebra import center, quotient

    _, _, ss = pipeline("e6", 3, expr, subset=subset)
    z = center(ss.algebra)
    assert z.dim == center_dim
    q = quotient(ss.algebra, z)
    assert center(q.quotient).dim == 0
    e6 = v.catalog_algebra("e6", 3)
    assert center(e6).dim == 1
    assert center(quotient(e6, center(e6)).quotient).dim == 0


def test_ideal_closure_is_bracket_stable():
    from verlie.superalgebra import ideal_closure

    _, _, ss = pipeline("e6", 3, "e1+e2+e6", subset=(1, 2, 6))
    alg = ss.algebra
    eye = np.eye(alg.dim, dtype=np.int64)
    from verlie.superalgebra import center

    ideal = ideal_closure(alg, center(alg).rows)
    odd_seed = eye[int(np.nonzero(alg.parity == 1)[0][0])]
    bigger = ideal_closure(alg, [odd_seed])
    for sub in (ideal, bigger):
        for row in sub.rows:
            for j in range(alg.dim):
                assert sub.contains(alg.bracket(eye[j], row))
                assert sub.contains(alg.bracket(row, eye[j]))


def test_swap_orbit_certificates_agree_e6():
    target = target_by_name("g(2,6)")
    for subset in ((1,), (2,), (6,)):
        _, _, ss = pipeline("e6", 3, f"e{subset[0]}", subset=subset)
        gens = generator_images(ss, subset)
        cert = certify(ss, gens, tilde_target("g(2,6)", ss, subset))
        assert cert.conclusion == "Verified"
        assert cert.expected_superdim == target.superdim
