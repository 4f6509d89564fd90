import pytest

from verlie import roots
from verlie.errors import AxiomViolation, BadSpec, IllegalSwap, NotFiniteType
from verlie.roots import (
    Coloring,
    Root,
    RootSystem,
    admissible_subsets,
    boundary_nodes,
    catalog_gcm,
    derive_tilde,
    diagram_json,
    legal_swap,
    positive_roots,
    swap_orbit,
    validate_gcm,
)

F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
G16 = [[2, -1, 0], [-1, 2, -2], [0, -1, 0]]


@pytest.mark.parametrize("name,expected", [
    ("a3", (1, 1, 1)), ("b3", (2, 2, 1)), ("c3", (1, 1, 2)), ("g2", (1, 3)), ("f4", (1, 1, 2, 2)),
])
def test_symmetrizer_is_the_smallest_integer_one(name, expected):
    gcm = catalog_gcm(name)
    d = positive_roots(gcm).symmetrizer()
    assert d == expected and all(type(x) is int for x in d)
    assert all(d[i] * gcm.entries[i][j] == d[j] * gcm.entries[j][i] for i in range(gcm.n) for j in range(gcm.n))


def test_symmetrizer_scales_each_component_on_its_own():
    # b2 (short root second) beside g2: the b2 part needs rescaling mid-walk
    gcm = validate_gcm([[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -1, 2]])
    assert RootSystem(gcm, ()).symmetrizer() == (2, 1, 1, 3)


def test_validate_f4_all_even():
    gcm = validate_gcm(F4)
    assert gcm.parity == (0, 0, 0, 0)


def test_validate_g16_with_parity():
    gcm = validate_gcm(G16, (0, 0, 1))
    assert gcm.parity == (0, 0, 1)
    # parity deducible from the diagonal
    assert validate_gcm(G16).parity == (0, 0, 1)


def test_axiom_violations():
    with pytest.raises(AxiomViolation) as exc:
        validate_gcm([[2, -1], [0, 2]])
    assert exc.value.axiom == 4
    with pytest.raises(AxiomViolation) as exc:
        validate_gcm([[1, -1], [-1, 2]], (0, 0))
    assert exc.value.axiom == 1
    with pytest.raises(AxiomViolation) as exc:
        validate_gcm([[2, 1], [1, 2]])
    assert exc.value.axiom == 3
    with pytest.raises(AxiomViolation) as exc:
        validate_gcm([[3, 0], [0, 2]])
    assert exc.value.axiom == 1


def test_parity_with_one_bad_entry_is_rejected():
    """The parity has the right length and one entry that is neither 0 nor 1."""
    with pytest.raises(BadSpec, match="0/1"):
        validate_gcm([[2, -1], [-1, 2]], [0, 5])


@pytest.mark.parametrize("entries,parity,field", [
    ([[2, -1.5], [-1, 2]], None, r"cartan\[0\]\[1\]"),
    ([[2, -1], [-1.0, 2]], None, r"cartan\[1\]\[0\]"),
    ([[2, True], [-1, 2]], None, r"cartan\[0\]\[1\]"),
    ([[2, "-1"], [-1, 2]], None, r"cartan\[0\]\[1\]"),
    ([[2, -1], 2], None, r"cartan\[1\]"),
    (2, None, "cartan"),
    ([[2, -1], [-1, 2]], [0, 0.0], r"parity\[1\]"),
    ([[2, -1], [-1, 2]], [False, 0], r"parity\[0\]"),
    ([[2, -1], [-1, 2]], ["0", 0], r"parity\[0\]"),
    ([[2, -1], [-1, 2]], 0, "parity"),
    ([], None, "cartan must have at least one row"),
], ids=["float", "float-below", "bool", "string", "row", "matrix", "parity-float", "parity-bool", "parity-string",
        "parity-list", "empty"])
def test_entries_are_read_exactly(entries, parity, field):
    """A float, a bool or a string is refused, naming the field, rather than
    rounded or parsed: -1.5 must not read as -1."""
    with pytest.raises(BadSpec, match=field):
        validate_gcm(entries, parity)


def test_positive_roots_a2():
    rs = positive_roots(catalog_gcm("a2"))
    assert len(rs.positive) == 3


def test_positive_roots_g2_exact():
    rs = positive_roots(catalog_gcm("g2"))
    got = {r.coords for r in rs.positive}
    # alpha = node 1, beta = node 2
    assert got == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert max(r.height for r in rs.positive) == 5


@pytest.mark.parametrize("name,count", [("f4", 24), ("e6", 36), ("e7", 63), ("e8", 120)])
def test_positive_root_counts(name, count):
    assert len(positive_roots(catalog_gcm(name)).positive) == count


def test_positive_roots_orders_by_height_then_lex():
    rs = positive_roots(catalog_gcm("f4"))
    keys = [(r.height, r.coords) for r in rs.positive]
    assert keys == sorted(keys)


def test_affine_matrix_is_not_finite_type():
    gcm = validate_gcm([[2, -2], [-2, 2]])
    with pytest.raises(NotFiniteType):
        positive_roots(gcm)


def test_boundary_nodes():
    assert boundary_nodes(catalog_gcm("e7")) == (1, 2, 7)
    assert boundary_nodes(catalog_gcm("f4")) == (1, 4)
    assert boundary_nodes(catalog_gcm("a1")) == ()
    assert boundary_nodes(catalog_gcm("g2")) == ()  # triple edge


def test_admissible_subsets_e6():
    subs = admissible_subsets(catalog_gcm("e6"))
    assert len(subs) == 8
    assert set(subs) == {(), (1,), (2,), (6,), (1, 2), (1, 6), (2, 6), (1, 2, 6)}


def test_admissible_subsets_f4():
    assert set(admissible_subsets(catalog_gcm("f4"))) == {(), (1,), (4,), (1, 4)}


def test_admissible_subsets_a2_excludes_adjacent_pair():
    assert set(admissible_subsets(catalog_gcm("a2"))) == {(), (1,), (2,)}


def test_derive_tilde_f4_gives_g16():
    tilde = derive_tilde(catalog_gcm("f4"), (4,))
    assert tilde.entries == tuple(tuple(row) for row in G16)
    assert tilde.parity == (0, 0, 1)


def test_derive_tilde_e6_pair_gives_g33():
    tilde = derive_tilde(catalog_gcm("e6"), (1, 2))
    assert tilde.entries == ((0, -1, 0, 0), (-1, 0, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    assert tilde.parity == (1, 1, 0, 0)


def test_derive_tilde_empty_subset_identity():
    gcm = catalog_gcm("e7")
    tilde = derive_tilde(gcm, ())
    assert tilde.entries == gcm.entries
    assert tilde.parity == gcm.parity


@pytest.mark.parametrize("name", ["f4", "e6", "e7", "e8"])
def test_derive_tilde_always_validates(name):
    gcm = catalog_gcm(name)
    for subset in admissible_subsets(gcm):
        tilde = derive_tilde(gcm, subset)
        validate_gcm(tilde.entries, tilde.parity)  # no exception
        assert sum(tilde.parity) == len(subset)


def test_legal_swap_examples():
    e7 = catalog_gcm("e7")
    c = Coloring(e7, frozenset({2, 7}))
    assert legal_swap(c, 7, 6).sorted_black() == (2, 6)
    f4 = catalog_gcm("f4")
    assert legal_swap(Coloring(f4, frozenset({4})), 4, 3).sorted_black() == (3,)
    with pytest.raises(IllegalSwap):
        legal_swap(Coloring(f4, frozenset({3})), 3, 2)  # double edge


def test_legal_swap_blocked_by_black_neighbor():
    e7 = catalog_gcm("e7")
    with pytest.raises(IllegalSwap):
        legal_swap(Coloring(e7, frozenset({4, 6})), 4, 5)  # 5 is adjacent to black 6


def test_legal_swap_reversible():
    e7 = catalog_gcm("e7")
    start = Coloring(e7, frozenset({2, 7}))
    moved = legal_swap(start, 7, 6)
    assert legal_swap(moved, 6, 7).sorted_black() == start.sorted_black()


def test_swap_orbit_e7_chain():
    e7 = catalog_gcm("e7")
    orbit = {c.sorted_black() for c in swap_orbit(Coloring(e7, frozenset({2, 7})))}
    assert (2, 6) in orbit and (4, 6) in orbit


def test_swap_orbit_singleton_diagram():
    a1 = catalog_gcm("a1")
    orbit = swap_orbit(Coloring(a1, frozenset({1})))
    assert [c.sorted_black() for c in orbit] == [(1,)]


def test_swap_orbit_e6_singletons():
    e6 = catalog_gcm("e6")
    orbit = {c.sorted_black() for c in swap_orbit(Coloring(e6, frozenset({1})))}
    assert {(2,), (6,)} <= orbit


def test_swap_orbit_constant_on_members():
    e6 = catalog_gcm("e6")
    orbit = swap_orbit(Coloring(e6, frozenset({1, 2})))
    reference = {c.sorted_black() for c in orbit}
    for member in orbit:
        assert {c.sorted_black() for c in swap_orbit(member)} == reference


def test_coloring_rejects_adjacent_black():
    with pytest.raises(IllegalSwap, match="black nodes 1, 2 are adjacent"):
        Coloring(catalog_gcm("a2"), frozenset({1, 2}))


def test_diagram_json_shape():
    data = diagram_json(catalog_gcm("f4"), black=(4,))
    assert [n["index"] for n in data["nodes"]] == [1, 2, 3, 4]
    assert data["black"] == [4]
    double = [e for e in data["edges"] if e["nodes"] == [2, 3]][0]
    assert {double["a_ij"], double["a_ji"]} == {-2, -1}


def test_root_arithmetic():
    r = Root((1, 2))
    assert (-r).coords == (-1, -2)
    assert (r + Root((0, 1))).height == 4


def test_catalog_bn_cn_dn():
    assert len(positive_roots(catalog_gcm("b5")).positive) == 25
    assert len(positive_roots(catalog_gcm("c3")).positive) == 9
    assert len(positive_roots(catalog_gcm("d4")).positive) == 12
