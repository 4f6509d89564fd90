import dataclasses
import itertools
import time

import numpy as np
import pytest

import verlie as v
from tests.test_fp import rank
from verlie.errors import BadSpec, NotDiagonalizable, PreconditionViolated, UnrecognizedType
from verlie.roots import catalog_gcm, derive_tilde, validate_gcm
from verlie import superalgebra, table, verify
from verlie.superalgebra import (
    ModularSuperAlgebra,
    Report,
    Subspace,
    check_odd_cubes,
    check_super_jacobi,
    check_super_skew,
    closure,
    superdim,
)
from tests.oracles import center, free_nilpotent_example
from tests.pipelines import row_key, spec_pipeline
from tests.test_superalgebra import corrupt
from verlie.table import CERTIFY, TABLE, RowSpec, row_pipeline, run_row
from verlie.verify import (
    Certificate,
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
    assert el55.gcm is None and el55.even_type == "B5" and el55.p == 5


def test_anchor_tilde_matrices_equal_catalog():
    # for every certificate row, deleting the subset nodes reproduces the
    # catalogued target matrix verbatim, parity included
    for spec in TABLE:
        if spec.route != "maint":
            continue
        tilde = derive_tilde(catalog_gcm(spec.algebra), spec.subset)
        cat = target_by_name(spec.target)
        assert tilde.entries == cat.gcm.entries, row_key(spec)
        assert tilde.parity == cat.gcm.parity, row_key(spec)


def parities(alg, vectors):
    return alg.parities(np.asarray(vectors) % alg.p).tolist()


def test_generator_images_e6_pair():
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    alg = ss.algebra
    e, f, h = generator_images(ss, (1, 2))
    assert len(e) == 4  # nodes 3, 4, 5, 6
    assert parities(alg, e) == parities(alg, f) == [1, 1, 0, 0]
    for i in range(4):
        assert np.array_equal(alg.bracket(e[i], f[i]), h[i])


def test_generator_images_empty_subset_match_source_relations():
    _, _, ss = pipeline("f4", 3, "e1-e1", subset=())
    gens = generator_images(ss, ())
    assert parities(ss.algebra, gens[0]) == [0, 0, 0, 0]
    target = TargetSpec(name="f4-self", p=3, superdim=(52, 0), gcm=catalog_gcm("f4"))
    report = check_relations(ss.algebra, gens, target)
    assert report.ok
    cert = certify(ss.algebra, gens, target)
    assert cert.conclusion == "Verified"


def test_check_relations_wrong_rank():
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    gens = generator_images(ss, (1, 2))
    report = check_relations(ss.algebra, gens, target_by_name("g(2,3)"))
    assert not report.ok and report.witness["failures"][0]["relation"] == "rank"


def pairwise_relation_failures(alg, gens, gcm):
    """The relation failures check_relations lists, one bracket per pair."""
    out = []
    zero = np.zeros(alg.dim, dtype=np.int64)
    e, f, h = gens
    for i in range(len(e)):
        for j in range(len(e)):
            a = gcm.a(i + 1, j + 1)
            for kind, actual, wanted in (("ef", alg.bracket(e[i], f[j]), h[i] if i == j else zero),
                                         ("he", alg.bracket(h[i], e[j]), a * e[j]),
                                         ("hf", alg.bracket(h[i], f[j]), -a * f[j]),
                                         ("hh", alg.bracket(h[i], h[j]), zero)):
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
    assert check_relations(ss.algebra, gens, TargetSpec("right", 3, superdim(ss.algebra), right)).ok
    assert pairwise_relation_failures(ss.algebra, gens, right) == []
    wrong = catalog_gcm("f4")
    report = check_relations(ss.algebra, gens, TargetSpec("wrong", 3, superdim(ss.algebra), wrong))
    parity = [f for f in report.witness["failures"] if f["relation"] == "parity"]
    expected = pairwise_relation_failures(ss.algebra, gens, wrong)
    assert parity and expected and not report.ok
    assert report.witness["failures"] == parity + expected


def test_certify_refuted_on_superdim():
    # purely even output vs a genuinely super target
    _, _, ss = pipeline("e7", 3, "e2+e5+e7")
    target = target_by_name("g(4,6)")
    cert = certify(ss.algebra, np.zeros((3, 6, ss.algebra.dim), dtype=np.int64), target)
    assert cert.conclusion == "Refuted"
    assert cert.actual_superdim == (52, 0)


def fact(check, ok):
    """A report of one certificate fact, with a witness when it fails."""
    return Report(check, ok, None if ok else {"check": check})


def test_certificate_verdict_follows_its_facts():
    for match, relations, generation, cubes in itertools.product((True, False), repeat=4):
        reports = fact("relations", relations), fact("generation", generation), fact("odd_cubes", cubes)
        cert = Certificate("t", 3, (2, 2), (2, 2) if match else (3, 1), *reports)
        assert cert.superdim_match == match
        if not match:
            assert cert.conclusion == "Refuted"
        elif relations and generation and cubes:
            assert cert.conclusion == "Verified"
        else:
            assert cert.conclusion == "Inconclusive"
        payload = cert.to_json_dict()
        assert payload["conclusion"] == cert.conclusion
        assert (payload["relations"], payload["generation"], payload["odd_cubes"]) == (relations, generation, cubes)
        assert cert.witness == next((r.witness for r in reports if not r.ok), None)
    passing = (fact(check, True) for check in ("relations", "generation", "odd_cubes"))
    cert = Certificate("t", 3, (2, 2), (2, 2), *passing)
    assert cert.conclusion == "Verified"
    cert.generation = fact("generation", False)
    assert cert.conclusion == cert.to_json_dict()["conclusion"] == "Inconclusive"
    cert.expected_superdim = (3, 1)
    assert cert.conclusion == cert.to_json_dict()["conclusion"] == "Refuted"
    assert cert.to_json_dict()["superdim_match"] is False


def test_certify_checks_characteristic():
    _, _, ss = pipeline("e6", 3, "e1+e2", subset=(1, 2))
    gens = generator_images(ss, (1, 2))
    with pytest.raises(PreconditionViolated, match="characteristic"):
        certify(ss.algebra, gens, target_by_name("el(5;5)"))


def test_even_route_checks_characteristic():
    _, _, ss = row_pipeline("f4", 3, "e1")
    with pytest.raises(PreconditionViolated, match="characteristic"):
        certify_even_route(ss, target_by_name("el(5;5)"))


def test_custom_plan_g36_properties():
    _, _, ss = pipeline("e8", 3, "e1+e2+e6+e8")
    gens = custom_plan_g36(ss)
    alg = ss.algebra
    assert parities(alg, gens[0]) == parities(alg, gens[1]) == [1, 1, 1, 0]  # the singleton generator is even
    for i in range(4):
        for j in range(4):
            assert not alg.bracket(gens[2][i], gens[2][j]).any()
    assert check_generation(alg, gens)
    cert = certify(ss.algebra, gens, target_by_name("g(3,6)"))
    assert cert.conclusion == "Verified"


def test_custom_plan_g36_matches_the_hand_built_vectors():
    """The plan's images equal the bracket arithmetic the plan replaced."""
    _, _, ss = row_pipeline("e8", 3, "e1+e2+e6+e8")
    alg = ss.realization.algebra
    g, br, p = alg.gens, alg.bracket, alg.p
    e14, e15 = br(g["e6"], g["e7"]), -br(g["e8"], g["e7"]) % p
    f14, f15 = br(g["f6"], g["f7"]), -br(g["f8"], g["f7"]) % p
    hand = [[g["e3"], g["e4"], g["e5"], e14 + e15],
            [br(g["f1"], g["f3"]), br(g["f2"], g["f4"]), -br(g["f5"], g["f6"]), -(f14 + f15)],
            [g["h3"], g["h4"], g["h5"], g["h6"] - g["h7"] + g["h8"]]]
    expected = np.array([[ss.image(vec % p) for vec in row] for row in hand])
    assert np.array_equal(custom_plan_g36(ss), expected)


def test_custom_plan_rejects_wrong_element():
    _, _, ss = pipeline("e8", 3, "e1")
    with pytest.raises(PreconditionViolated, match=r"element e1 \+ e2 \+ e6 \+ e8"):
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


def test_recognize_e8_self_within_a_second():
    """e8 under its own torus at p = 5: the catalog match backtracks over
    nodes whose entries agree instead of trying 8! permutations per name."""
    alg = v.catalog_algebra("e8", 5)
    split = weight_split(alg, [alg.gens[f"h{i}"] for i in range(1, 9)])
    start = time.perf_counter()
    assert recognize_even_type(alg, split) == ("E8", 8, 248)
    assert time.perf_counter() - start < 1.0


def test_recognize_a2():
    alg = v.sl(3, 5)
    torus = [alg.gens["h1"], alg.gens["h2"]]
    assert recognize_even_type(alg, weight_split(alg, torus)) == ("A2", 2, 8)


def test_recognize_catalog_types():
    def recognize(gcm, mix=None):
        """Recognize under the torus mix @ (h_1, ..., h_n) mod 5."""
        alg = v.reduce_mod_p(v.chevalley_basis(gcm), 5)
        cartan = np.array([alg.gens[f"h{i}"] for i in range(1, gcm.n + 1)])
        torus = cartan if mix is None else np.asarray(mix) @ cartan % 5
        return recognize_even_type(alg, weight_split(alg, torus))

    dims = {"a1": 3, "a2": 8, "a3": 15, "a4": 24, "b2": 10, "b3": 21, "b4": 36,
            "c3": 21, "c4": 36, "d4": 28, "d5": 45, "f4": 52, "e6": 78}
    for name, dim in dims.items():
        assert recognize(catalog_gcm(name)) == (name.upper(), catalog_gcm(name).n, dim)
    # a reversed or recombined torus orders the roots differently and so
    # picks another positive system; B and C must still come out the right way round
    for name in ("b3", "c3", "d4", "f4"):
        n = catalog_gcm(name).n
        reversed_torus = np.eye(n, dtype=np.int64)[::-1]
        lower, upper = (np.eye(n, dtype=np.int64) + np.eye(n, k=k, dtype=np.int64) for k in (-1, 1))
        unimodular = lower @ upper  # determinant 1
        for mix in (reversed_torus, unimodular):
            assert recognize(catalog_gcm(name), mix) == (name.upper(), n, dims[name])
    # the triple edge has root strings of length 4, past _resolve_pairing
    with pytest.raises(UnrecognizedType):
        recognize(catalog_gcm("g2"))
    with pytest.raises(UnrecognizedType, match=r"no catalog match for Cartan matrix \[\[2, 0\], \[0, 2\]\]"):
        recognize(validate_gcm([[2, 0], [0, 2]]))


def old_match_type(cartan: np.ndarray, rank: int, permutations=itertools.permutations) -> str:
    """The label search as it stood with a hand-built candidate list, the
    oracle for `verify._match_type`; `permutations` is its source of index
    permutations."""
    candidates = []
    if rank == 2:
        candidates += ["a2", "b2", "c2", "g2"]
    if rank >= 1:
        candidates.append(f"a{rank}")
    if rank >= 2:
        candidates += [f"b{rank}", f"c{rank}"]
    if rank >= 3:
        candidates.append(f"d{rank}")
    if rank == 4:
        candidates.append("f4")
    if rank in (6, 7, 8):
        candidates.append(f"e{rank}")
    for name in candidates:
        try:
            ref = catalog_gcm(name).matrix()
        except BadSpec:
            continue
        if ref.shape != cartan.shape:
            continue
        for perm in permutations(range(rank)):
            if np.array_equal(cartan[np.ix_(perm, perm)], ref):
                return name.upper()
    raise UnrecognizedType(f"no catalog match for Cartan matrix {cartan.tolist()}")


def matching_permutation(cartan: np.ndarray, ref: np.ndarray):
    """A permutation perm with cartan[perm, perm] == ref, by backtracking, or None."""
    def extend(perm):
        k = len(perm)
        if k == len(ref):
            return tuple(perm)
        for c in set(range(len(ref))) - set(perm):
            if cartan[c, c] == ref[k, k] and all(cartan[c, perm[a]] == ref[k, a] and cartan[perm[a], c] == ref[a, k]
                                                 for a in range(k)):
                found = extend(perm + [c])
                if found:
                    return found
        return None

    return extend([])


CATALOG_NAMES = ([f"a{n}" for n in range(1, 9)] + [f"{kind}{n}" for kind in "bc" for n in range(2, 9)]
                 + [f"d{n}" for n in range(3, 9)] + ["e6", "e7", "e8", "f4", "g2"])


def test_match_type_keeps_its_labels():
    """Every catalog Cartan matrix, under a seeded random simultaneous
    permutation, gets the label the hand-built candidate list gave: C2
    reads B2 and D3 reads A3, as before.  From rank 7 on, the oracle sees
    only the permutations under which the matrix equals some catalog matrix
    of its rank: a candidate matches under one of them exactly when it
    matches at all, and 8! permutations per candidate would take seconds."""
    rng = np.random.default_rng(20)
    labels = {}
    for name in CATALOG_NAMES:
        ref = catalog_gcm(name).matrix()
        rank = len(ref)
        perm = rng.permutation(rank)
        cartan = ref[np.ix_(perm, perm)]
        perms = itertools.permutations
        if rank >= 7:
            refs = [catalog_gcm(other).matrix() for other in CATALOG_NAMES if other[1:] == str(rank)]
            found = [match for other in refs if (match := matching_permutation(cartan, other))]

            def perms(_, found=found):
                return iter(found)

        labels[name] = verify._match_type(cartan, rank)
        assert labels[name] == old_match_type(cartan, rank, perms), name
    assert labels["c2"] == "B2" and labels["d3"] == "A3" and labels["e8"] == "E8" and labels["g2"] == "G2"
    with pytest.raises(UnrecognizedType):
        verify._match_type(np.array([[2, 0], [0, 2]]), 2)  # A1+A1


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
        ranks.append(rank(power, 5))
    counts = tuple(ranks[l - 1] - 2 * ranks[l] + ranks[l + 1] for l in range(1, 6))
    assert counts == (55, 0, 0, 0, 13)
    total = (55, 0, 0, 32, 13)
    assert tuple(t - c for t, c in zip(total, counts)) == (0, 0, 0, 32, 0)


def test_odd_part_irreducible_negative_case():
    alg, der = free_nilpotent_example(3)
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
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4")
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


def test_even_row_fails_only_on_recognition_errors(monkeypatch):
    """The even route turns a failed recognition into a failed row, and lets
    every other exception through."""
    spec = next(spec for spec in TABLE if spec.route == "even")

    def fails(error):
        def recognize(alg, split):
            raise error
        return recognize

    monkeypatch.setattr(table, "recognize_even_type", fails(UnrecognizedType("no match")))
    row = run_row.__wrapped__(spec)
    assert row.conclusion == "EvenType:failed(no match)" and not row.ok
    monkeypatch.setattr(table, "recognize_even_type", fails(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        run_row.__wrapped__(spec)


def output_and_images(algebra: str, element: str, subset):
    """A p = 3 table output and the generator images of `subset` in it."""
    ss = row_pipeline(algebra, 3, element)[2]
    return ss.algebra, generator_images(ss, subset)


def free_nilpotent_output() -> ModularSuperAlgebra:
    realization = v.realize_derivation(*free_nilpotent_example(3))
    return v.semisimplify(realization, v.jordan_decompose(realization)).algebra


def sl2_irreducibility(blocks):
    """The irreducibility report of sl2 ⋉ M, M the sum of `blocks`, under h."""
    alg = sl2_module_algebra(blocks, np.eye(sum(blocks), dtype=np.int64))
    return odd_part_irreducible(alg, weight_split(alg, np.eye(alg.dim, dtype=np.int64)[[1]]))


# each check with one passing and one failing input
REPORTS = [
    ("super_skew", True, lambda: check_super_skew(v.gl(3, 3))),
    ("super_skew", False, lambda: check_super_skew(corrupt(v.gl(3, 3), 1, 5, 2))),
    ("super_jacobi", True, lambda: check_super_jacobi(v.gl(3, 3))),
    ("super_jacobi", False, lambda: check_super_jacobi(corrupt(corrupt(v.gl(3, 3), 1, 3, 0), 3, 1, 0, delta=-1))),
    ("odd_cubes", True, lambda: check_odd_cubes(output_and_images("f4", "e4", (4,))[0])),
    ("odd_cubes", False, lambda: check_odd_cubes(free_nilpotent_output())),
    ("relations", True, lambda: check_relations(*output_and_images("f4", "e4", (4,)), target_by_name("g(1,6)"))),
    ("relations", False, lambda: check_relations(*output_and_images("e6", "e1+e2", (1, 2)), target_by_name("g(2,3)"))),
    ("generation", True, lambda: check_generation(*output_and_images("f4", "e4", (4,)))),
    ("generation", False, lambda: check_generation(*output_and_images("f4", "e1", (1,)))),
    ("irreducibility", True, lambda: sl2_irreducibility((2,))),
    ("irreducibility", False, lambda: sl2_irreducibility((2, 1))),
]


@pytest.mark.parametrize("check, ok, run", REPORTS, ids=[f"{c}-{'pass' if ok else 'fail'}" for c, ok, _ in REPORTS])
def test_every_check_returns_a_report_true_exactly_when_ok(check, ok, run):
    report = run()
    assert isinstance(report, Report) and report.check == check
    assert report.ok is ok and bool(report) is ok
    assert (report.witness is None) is ok  # a failure says where


def test_generation_witness_counts_the_generated_dimension():
    assert check_generation(*output_and_images("f4", "e1", (1,))).witness == {"dim": 15, "expected": 23}


def test_failing_certificate_keeps_the_first_failing_witness():
    _, _, ss = row_pipeline("f4", 3, "e1")
    gens = generator_images(ss, (1,))
    # the full output on the maint route: only generation fails
    cert = CERTIFY["maint"](ss, RowSpec("f4", 3, ("e1",), "maint", subset=(1,), target="sl(3|1)", star_sdim=(15, 8)))
    assert cert.conclusion == "Inconclusive" and cert.witness == {"dim": 15, "expected": 23}
    # a wrong target: relations and generation both fail, and relations come first
    target = target_by_name("g(2,3)")
    reports = check_relations(ss.algebra, gens, target), check_generation(ss.algebra, gens)
    assert not any(reports)
    cert = certify(ss.algebra, gens, target)
    assert cert.witness == reports[0].witness and cert.details["relation_failures"] == reports[0].witness["failures"]


def test_odd_cubes_run_once_per_algebra(monkeypatch):
    """semisimplify keeps the odd-cube report, and certify reads it."""
    calls = []
    generators = superalgebra.odd_cube_generators
    monkeypatch.setattr(superalgebra, "odd_cube_generators", lambda alg: calls.append(alg) or generators(alg))
    spec = next(spec for spec in TABLE if spec.route == "maint")
    _, _, ss = pipeline(spec.algebra, spec.p, spec.elements[0])  # built anew, so no report is kept yet
    cert = CERTIFY[spec.route](ss, spec)
    assert cert.conclusion == "Verified" and ss.checks["odd_cubes"].ok
    assert len(calls) == 1 and calls[0] is ss.algebra


def test_even_route_certificate_keeps_its_witness_off_the_json():
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4")
    cert = certify_even_route(ss, target_by_name("el(5;5)"))
    assert cert.witness is None
    witness = {"weight": (1,), "multiplicity": 2}
    cert = Certificate(cert.target, cert.p, cert.actual_superdim, cert.expected_superdim, cert.relations,
                       Report("irreducibility", False, witness), cert.odd_cubes, cert.details)
    assert cert.witness == witness and "witness" not in cert.to_json_dict()


def test_even_route_witness_names_the_failed_fact():
    """A wrong even type fails the certificate with the recognized type as
    its witness, though the odd part is irreducible."""
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4")
    el55 = target_by_name("el(5;5)")
    target = TargetSpec(el55.name, el55.p, el55.superdim, el55.gcm, even_type="F4")
    cert = certify_even_route(ss, target)
    assert cert.generation.ok and cert.odd_cubes.ok
    assert cert.witness == {"even_type": "B5", "expected": "F4"}
    assert cert.conclusion == "Inconclusive" and cert.to_json_dict()["relations"] is False


def test_relation_report_h_span_abelian():
    # passing relations imply the h images span an abelian subalgebra of the
    # target rank
    _, _, ss = pipeline("e7", 3, "e1+e7", subset=(1, 7))
    gens = generator_images(ss, (1, 7))
    cert = certify(ss.algebra, gens, tilde_target("el(5;3)", ss, (1, 7)))
    assert cert.conclusion == "Verified"
    from verlie.superalgebra import Subspace

    span = Subspace.from_vectors(gens[2], ss.algebra.dim, 3)
    assert span.dim == 5
    for a in gens[2]:
        for b in gens[2]:
            assert not ss.algebra.bracket(a, b).any()


@pytest.mark.parametrize(
    "expr,subset,center_dim",
    [("e2", (2,), 1), ("e1+e2", (1, 2), 1), ("e1+e2+e6", (1, 2, 6), 1)],
)
def test_simple_modulo_center_outputs(expr, subset, center_dim):
    # the rank-6 source and all three of its outputs have one-dimensional
    # centers, and quotienting by the center leaves a centerless algebra
    from verlie.superalgebra import quotient

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

    ideal = ideal_closure(alg, center(alg).rows)
    odd_seed = eye[int(np.nonzero(alg.parity == 1)[0][0])]
    bigger = ideal_closure(alg, [odd_seed])
    for sub in (ideal, bigger):
        for row in sub.rows:
            for j in range(alg.dim):
                assert not sub.reduce_rows([alg.bracket(eye[j], row), alg.bracket(row, eye[j])]).any()


def test_swap_orbit_certificates_agree_e6():
    target = target_by_name("g(2,6)")
    for subset in ((1,), (2,), (6,)):
        _, _, ss = pipeline("e6", 3, f"e{subset[0]}", subset=subset)
        gens = generator_images(ss, subset)
        cert = certify(ss.algebra, gens, tilde_target("g(2,6)", ss, subset))
        assert cert.conclusion == "Verified"
        assert cert.expected_superdim == target.superdim


BOUNDARY_ROWS = [spec for spec in TABLE if spec.route in ("maint", "star")]


def tagged_images(ss, nodes):
    """Generator images read off a structured decomposition's tags: the unit
    vectors at the surviving chains tagged e_k, f_k and h_k."""
    survivors = ss.even_chains + ss.odd_chains
    index = {ss.decomposition.chains[c].tag: a for a, c in enumerate(survivors)}
    eye = np.eye(ss.algebra.dim, dtype=np.int64)
    return np.array([[eye[index[(kind, k)]] for k in nodes] for kind in "efh"])


def test_plan_images_are_the_tagged_chains_on_structured_decompositions():
    for spec in BOUNDARY_ROWS:
        _, _, ss = spec_pipeline(spec)
        nodes = [k for k in range(1, catalog_gcm(spec.algebra).n + 1) if k not in spec.subset]
        assert np.array_equal(generator_images(ss, spec.subset), tagged_images(ss, nodes)), row_key(spec)


def test_structured_and_generic_decompositions_certify_alike():
    """The table certifies its boundary rows on the generic decomposition;
    the structured one gives the same certificate, byte for byte."""
    for spec in BOUNDARY_ROWS:
        cert = CERTIFY[spec.route](spec_pipeline(spec)[2], spec)
        assert cert.to_json_dict() == run_row(spec).certificate, row_key(spec)


def own_generators(alg) -> np.ndarray:
    """The (3, rank, dim) array of an algebra's own e, f and h generators."""
    rank = sum(name.startswith("e") for name in alg.gens)
    return np.array([[alg.gens[f"{kind}{i}"] for i in range(1, rank + 1)] for kind in "efh"])


def test_relations_witness_lists_noncommuting_h_images():
    """sl3 against A2 passes with its own generators; with h2 replaced by
    e1, [h1, h2] = 2 e1 != 0 and the witness lists the hh relation."""
    alg = v.catalog_algebra("a2", 3)
    gens = own_generators(alg)
    target = TargetSpec("A2", 3, (8, 0), catalog_gcm("a2"))
    assert check_relations(alg, gens, target).ok
    gens[2, 1] = alg.gens["e1"]
    failures = check_relations(alg, gens, target).witness["failures"]
    assert {"relation": "hh", "i": 1, "j": 2} in failures and {"relation": "hh", "i": 2, "j": 1} in failures


def test_relations_witness_lists_an_odd_h_image():
    """An odd vector in place of h1 fails the parity relation of h1."""
    alg, gens = output_and_images("f4", "e4", (4,))
    target = target_by_name("g(1,6)")
    assert check_relations(alg, gens, target).ok
    gens = gens.copy()
    gens[2, 0] = np.eye(alg.dim, dtype=np.int64)[np.flatnonzero(alg.parity)[0]]
    assert {"relation": "parity", "generator": "h1"} in check_relations(alg, gens, target).witness["failures"]


def test_relations_report_an_h_image_that_mixes_parities():
    """h1's image with one odd entry added mixes parities: the report fails
    the parity relation of h1 rather than raising."""
    alg, gens = output_and_images("f4", "e4", (4,))
    target = target_by_name("g(1,6)")
    gens = gens.copy()
    gens[2, 0, np.flatnonzero(alg.parity)[0]] += 1
    h1 = gens[2, 0] % alg.p
    assert h1[alg.parity == 0].any() and h1[alg.parity == 1].any()
    report = check_relations(alg, gens, target)
    assert not report.ok and {"relation": "parity", "generator": "h1"} in report.witness["failures"]


def test_relations_refuse_an_odd_node_image_that_mixes_parities():
    """e3, the image of g(1,6)'s odd node, with one even entry added mixes
    parities: a failing parity relation of e3, not an odd image."""
    alg, gens = output_and_images("f4", "e4", (4,))
    target = target_by_name("g(1,6)")
    assert target.gcm.parity[2] == 1 and check_relations(alg, gens, target).ok
    gens = gens.copy()
    gens[0, 2, np.flatnonzero(alg.parity == 0)[0]] += 1
    assert alg.parities(gens[0] % alg.p).tolist() == [0, 0, -1]
    assert {"relation": "parity", "generator": "e3"} in check_relations(alg, gens, target).witness["failures"]


@pytest.mark.parametrize("p", [3, 5])
def test_sl3_generators_generate_a_hyperplane_of_gl3(p):
    """The sl3 generators inside gl3 generate 8 of its 9 dimensions."""
    alg = v.gl(3, p)
    report = check_generation(alg, own_generators(alg))
    assert not report.ok and report.witness == {"dim": 8, "expected": 9}


def test_even_route_checks_the_even_dimension():
    """The right even type with the wrong even dimension fails the even-type
    fact, not only the superdimension."""
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4")
    el55 = target_by_name("el(5;5)")
    target = TargetSpec(el55.name, el55.p, (el55.superdim[0] + 1, el55.superdim[1]), el55.gcm, el55.even_type)
    cert = certify_even_route(ss, target)
    assert not cert.relations.ok and cert.witness == {"even_type": "B5", "expected": "B5"}
    assert cert.conclusion != "Verified"


def test_even_route_reads_the_axiom_reports():
    """An output whose odd-cube report fails is not Verified by the even
    route, which keeps that report as its third fact."""
    _, _, ss = row_pipeline("e8", 5, "e2+e3+e4")
    failed = Report("odd_cubes", False, {"cube": 0})
    broken = dataclasses.replace(ss, checks={**ss.checks, "odd_cubes": failed})
    cert = certify_even_route(broken, target_by_name("el(5;5)"))
    assert cert.relations.ok and cert.generation.ok and cert.odd_cubes is failed
    assert cert.conclusion == "Inconclusive" and cert.witness == {"cube": 0}
