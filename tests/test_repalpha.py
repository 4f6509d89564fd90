import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import verlie as v
from tests.oracles import chain_orbits, dense_chain_check, free_nilpotent_example, literal_reference, padded_heads
from tests.test_fp import largest_accepted_prime, rank, realize_in_abelian
from verlie import fp, repalpha, roots, sparse
from verlie.errors import (BadSpec, DegreeExceedsP, InternalError, NotNilpotent, ParseError, PreconditionViolated,
                           UnknownGenerator)
from verlie.repalpha import (
    ChainDecomposition,
    JordanChain,
    _heads,
    _rank_counts,
    block_counts,
    boundary_subset,
    jordan_decompose,
    parse_element,
    rank_count_vector,
    realize,
    realize_derivation,
    structured_decompose,
)
from verlie.superalgebra import ModularSuperAlgebra, Subspace


@pytest.fixture(scope="module")
def e6mod3():
    return v.catalog_algebra("e6", 3)


@pytest.fixture(scope="module")
def f4mod3():
    return v.catalog_algebra("f4", 3)


def test_parse_sum(e6mod3):
    _, vec = parse_element("e1 + e2 + e6", e6mod3)
    expected = (e6mod3.gens["e1"] + e6mod3.gens["e2"] + e6mod3.gens["e6"]) % 3
    assert np.array_equal(vec, expected)


def test_parse_nested_bracket():
    e8 = v.catalog_algebra("e8", 3)
    _, vec = parse_element("[e8, [e6, e7]]", e8)
    manual = e8.bracket(e8.gens["e8"], e8.bracket(e8.gens["e6"], e8.gens["e7"]))
    assert vec.any() and np.array_equal(vec, manual)


def test_parse_repeated_generator(e6mod3):
    _, vec = parse_element("e1 + e1", e6mod3)
    assert np.array_equal(vec, (2 * e6mod3.gens["e1"]) % 3)


def test_parse_underscore_and_scaling(e6mod3):
    _, vec = parse_element("2*e_1 - e1", e6mod3)
    assert np.array_equal(vec, e6mod3.gens["e1"])


def test_parse_parentheses(e6mod3):
    _, vec = parse_element("(e1 + e2) - e2", e6mod3)
    assert np.array_equal(vec, e6mod3.gens["e1"])


def test_parse_error_position(e6mod3):
    with pytest.raises(ParseError) as exc:
        parse_element("e1 + *", e6mod3)
    assert exc.value.position == 5


def test_parse_trailing_garbage(e6mod3):
    with pytest.raises(ParseError):
        parse_element("e1 e2", e6mod3)


def test_unknown_generator(e6mod3):
    with pytest.raises(UnknownGenerator):
        parse_element("e9", e6mod3)


def test_parse_returns_the_text_as_given(e6mod3):
    assert parse_element(" 2*e_1 ", e6mod3)[0] == " 2*e_1 "


@pytest.mark.parametrize("src,error,message", [
    ("e99 + *", ParseError, "expected a generator, bracket, or parenthesis (at position 6)"),
    ("[e1, e9", ParseError, "expected ']' (at position 7)"),
    ("e99 + e1", UnknownGenerator, "algebra has no generator e99"),
    ("[e98, e99]", UnknownGenerator, "algebra has no generator e98"),
])
def test_a_syntax_error_wins_over_an_unknown_generator(src, error, message):
    """The whole text is read before an unknown generator is reported, and
    of several the first in reading order is named."""
    with pytest.raises(error) as exc:
        parse_element(src, v.catalog_algebra("g2", 3))
    assert type(exc.value) is error and str(exc.value) == message


def test_parse_reduces_every_scaled_term(e6mod3):
    """A scaled sum is reduced mod p, and so is a coefficient past int64."""
    e1 = e6mod3.gens["e1"]
    assert np.array_equal(parse_element("2*(e1 + e1)", e6mod3)[1], e1)
    assert np.array_equal(parse_element(f"{2**62}*(e1 + e1)", e6mod3)[1], 2 * e1)  # 2^63 = 2 mod 3
    assert np.array_equal(parse_element(f"{10**30}*e1", e6mod3)[1], e1)


def _sum_of_terms(terms, p):
    """The text and value of expr := term (('+'|'-') term)*, from
    (sign, coeff or None, atom) triples; an atom is a (text, value) pair."""
    text, value = "", np.zeros_like(terms[0][2][1])
    for i, (sign, coeff, (atom_text, atom_value)) in enumerate(terms):
        sign = 1 if i == 0 else sign
        term_text = atom_text if coeff is None else f"{coeff}*{atom_text}"
        text += ("" if i == 0 else " + " if sign > 0 else " - ") + term_text
        scaled = atom_value if coeff is None else (atom_value.astype(object) * coeff % p).astype(np.int64)
        value = (value + sign * scaled) % p
    return text, value


@st.composite
def _expressions(draw):
    """An algebra and a random expression over its generators, with the
    vector it denotes built from alg.gens, sums and alg.bracket."""
    alg = v.catalog_algebra(draw(st.sampled_from(["g2", "f4", "sl4"])), draw(st.sampled_from([3, 5, 7])))
    p = alg.p
    names = sorted(alg.gens)
    gen = st.builds(lambda name, underscore: (f"{name[0]}_{name[1:]}" if underscore else name, alg.gens[name]),
                    st.sampled_from(names), st.booleans())
    coeff = st.none() | st.integers(0, 3 * p) | st.integers(0, 10**20)

    def exprs(atoms):
        return st.lists(st.tuples(st.sampled_from([1, -1]), coeff, atoms), min_size=1, max_size=3).map(
            lambda terms: _sum_of_terms(terms, p))

    def compound(atoms):
        return (st.tuples(exprs(atoms), exprs(atoms)).map(
                    lambda lr: (f"[{lr[0][0]}, {lr[1][0]}]", alg.bracket(lr[0][1], lr[1][1])))
                | exprs(atoms).map(lambda e: (f"({e[0]})", e[1])))

    return alg, draw(exprs(st.recursive(gen, compound, max_leaves=8)))


def test_parse_brackets_in_order(e6mod3):
    e1, e3 = e6mod3.gens["e1"], e6mod3.gens["e3"]
    assert e6mod3.bracket(e1, e3).any()
    assert np.array_equal(parse_element("[e1, e3]", e6mod3)[1], e6mod3.bracket(e1, e3))


@settings(max_examples=60, deadline=None)
@given(_expressions(), st.integers(0, 20))
def test_parse_matches_the_expression_it_was_built_from(case, k):
    alg, (text, expected) = case
    assert np.array_equal(parse_element(text, alg)[1], expected)
    assert np.array_equal(parse_element(f"{k}*({text})", alg)[1], k * expected % alg.p)


def test_realize_degree(f4mod3):
    _, vec = parse_element("e4", f4mod3)
    assert realize(f4mod3, vec).degree == 3


def test_realize_zero_element(f4mod3):
    r = realize(f4mod3, np.zeros(52, dtype=np.int64))
    assert r.degree == 1
    assert block_counts(jordan_decompose(r)) == (52, 0, 0)


def test_realize_adjacent_nodes_stays_in_degree_p(e6mod3):
    # over F_3 the adjacent-node sum is harmless: ad(x)^3 = ad of the
    # restricted cube, and the regular rank-2 nilpotent cubes to zero
    _, vec = parse_element("e1 + e3", e6mod3)
    der = e6mod3.ad(vec)
    third = np.linalg.matrix_power(der, 3) % 3
    assert (np.linalg.matrix_power(der, 2) % 3).any() and not third.any()
    assert realize(e6mod3, vec).degree == 3


def test_realize_exceeds_p():
    # a nilpotent whose restricted cube survives: E12 + E23 + E34 in gl_4
    alg = v.gl(4, 3)
    _, vec = parse_element("e1 + e2 + e3", alg)
    der = alg.ad(vec)
    # independent oracle by direct powering
    powers = [np.eye(16, dtype=np.int64)]
    for _ in range(8):
        powers.append(powers[-1] @ der % 3)
    assert powers[3].any() and not powers[7].any()
    with pytest.raises(DegreeExceedsP):
        realize(alg, vec)


def test_realize_rejects_non_nilpotent():
    alg = v.catalog_algebra("g2", 3)
    _, vec = parse_element("h1", alg)
    with pytest.raises(NotNilpotent):
        realize(alg, vec)


def test_realize_derivation_rejects_non_derivation():
    alg, _ = free_nilpotent_example(3)
    bad = np.zeros((5, 5), dtype=np.int64)
    bad[0, 1] = 1  # y -> x is not a derivation of this algebra
    with pytest.raises(ValueError):
        v.realize_derivation(alg, bad)


def test_jordan_decompose_gl3():
    alg = v.gl(3, 3)
    _, vec = parse_element("e2", alg)  # the (2,3) elementary matrix
    decomp = jordan_decompose(realize(alg, vec))
    assert block_counts(decomp) == (2, 2, 1)


def test_chain_property_and_rank_formula(f4mod3):
    _, vec = parse_element("e4", f4mod3)
    r = realize(f4mod3, vec)
    decomp = jordan_decompose(r)
    decomp.validate(r.der)
    assert block_counts(decomp) == rank_count_vector(r)
    for chain in decomp.chains:
        for t in range(chain.length - 1):
            assert np.array_equal(r.der.dot(chain.vectors[t]) % 3, chain.vectors[t + 1])
        assert not (r.der.dot(chain.vectors[-1]) % 3).any()


def test_jordan_decompose_deterministic(f4mod3):
    _, vec = parse_element("e1+e4", f4mod3)
    r = realize(f4mod3, vec)
    d1 = jordan_decompose(r)
    d2 = jordan_decompose(r)
    assert all(np.array_equal(a.vectors, b.vectors) for a, b in zip(d1.chains, d2.chains))


def test_structured_f4_node4_chains(f4mod3):
    _, vec = parse_element("e4", f4mod3)
    r = realize(f4mod3, vec)
    decomp = structured_decompose(r, (4,))
    tags = {chain.tag: chain for chain in decomp.chains if chain.tag}
    eye = np.eye(52, dtype=np.int64)
    e3 = f4mod3.gens["e3"]
    # e_3 -> [e_4, e_3]
    chain = tags[("e", 3)]
    assert np.array_equal(chain.vectors[0], e3)
    assert np.array_equal(chain.vectors[1], f4mod3.bracket(vec, e3))
    # [f_4, f_3] -> f_3
    chain = tags[("f", 3)]
    assert np.array_equal(chain.vectors[1], f4mod3.gens["f3"])
    # h_3 - h_4 singleton
    chain = tags[("h", 3)]
    assert np.array_equal(chain.vectors[0], (f4mod3.gens["h3"] - f4mod3.gens["h4"]) % 3)
    # J_3 through f_4: (f_4, h_4, -2 e_4)
    j3 = [c for c in decomp.chains if c.length == 3]
    assert len(j3) == 1
    assert np.array_equal(j3[0].vectors[0], f4mod3.gens["f4"])
    assert np.array_equal(j3[0].vectors[1], f4mod3.gens["h4"])
    assert np.array_equal(j3[0].vectors[2], (-2 * f4mod3.gens["e4"]) % 3)


def test_structured_e6_pair_chains(e6mod3):
    _, vec = parse_element("e1+e2", e6mod3)
    r = realize(e6mod3, vec)
    decomp = structured_decompose(r, (1, 2))
    tags = {chain.tag for chain in decomp.chains if chain.tag}
    assert {("e", 3), ("e", 4), ("f", 3), ("f", 4), ("h", 3), ("h", 4)} <= tags
    assert {("e", 5), ("e", 6), ("h", 5), ("h", 6)} <= tags
    by_tag = {chain.tag: chain for chain in decomp.chains if chain.tag}
    assert np.array_equal(
        by_tag[("e", 3)].vectors[1],
        e6mod3.bracket(e6mod3.gens["e1"], e6mod3.gens["e3"]),
    )
    assert np.array_equal(
        by_tag[("h", 3)].vectors[0],
        (e6mod3.gens["h3"] - e6mod3.gens["h1"]) % 3,
    )


@pytest.mark.parametrize("name", ["f4", "e6"])
def test_structured_counts_match_generic(name):
    alg = v.catalog_algebra(name, 3)
    from verlie.roots import admissible_subsets, catalog_gcm

    for subset in admissible_subsets(catalog_gcm(name)):
        expr = "+".join(f"e{i}" for i in subset) if subset else None
        vec = np.zeros(alg.dim, dtype=np.int64)
        if expr:
            _, vec = parse_element(expr, alg)
        r = realize(alg, vec)
        assert block_counts(structured_decompose(r, subset)) == block_counts(jordan_decompose(r))


def test_structured_empty_subset(f4mod3):
    r = realize(f4mod3, np.zeros(52, dtype=np.int64))
    decomp = structured_decompose(r, ())
    assert block_counts(decomp) == (52, 0, 0)


def test_structured_complement_must_be_d_stable(f4mod3):
    """The complement check reads the entries of the sparse D: one entry
    sending a complement root vector to the Cartan part fails it."""
    r = realize(f4mod3, parse_element("e4", f4mod3)[1])
    integral = f4mod3.origin
    gamma = integral.roots.simple(1) + integral.roots.simple(2)  # in the complement of subset (4,)
    der = r.der.toarray()
    der[np.flatnonzero(f4mod3.gens["h1"])[0], integral.roots.positive.index(gamma)] = 1
    broken = repalpha.Realization(f4mod3, v.sparse.from_dense(der), r.element)
    assert broken.degree == 3
    with pytest.raises(InternalError, match="complement is not D-stable"):
        structured_decompose(broken, (4,))


@pytest.mark.parametrize("name,subset", [("a2", (1,)), ("a2", (2,)), ("a1", ())])
def test_structured_empty_complement(name, subset):
    """Every positive root is simple or touched, so the generically
    decomposed complement is empty."""
    from verlie.semisimplify import semisimplify

    alg = v.catalog_algebra(name, 3)
    vec = np.zeros(alg.dim, dtype=np.int64)
    if subset:
        _, vec = parse_element("+".join(f"e{i}" for i in subset), alg)
    r = realize(alg, vec)
    decomp = structured_decompose(r, subset)
    decomp.validate(r.der)
    assert block_counts(decomp) == block_counts(jordan_decompose(r))
    ss = semisimplify(r, decomp)
    assert ss.algebra.constants == literal_reference(r, decomp).constants


@pytest.mark.parametrize("node", [4.0, True, "4"], ids=["float", "bool", "string"])
def test_boundary_subset_reads_nodes_exactly(f4mod3, node):
    """A subset node that is not an int is refused by name, not rounded or
    parsed into node 4 (or node 1)."""
    r = realize(f4mod3, parse_element("e4", f4mod3)[1])
    assert boundary_subset(r, (4,)) == (4,)
    with pytest.raises(BadSpec, match="subset must be an integer"):
        boundary_subset(r, (node,))


def test_structured_preconditions(f4mod3, e6mod3):
    _, vec = parse_element("e4", f4mod3)
    r = realize(f4mod3, vec)
    with pytest.raises(PreconditionViolated):
        structured_decompose(r, (3,))  # not a boundary node
    with pytest.raises(PreconditionViolated):
        structured_decompose(r, (1,))  # element does not match subset
    alg5 = v.catalog_algebra("f4", 5)
    _, vec5 = parse_element("e4", alg5)
    with pytest.raises(PreconditionViolated):
        structured_decompose(realize(alg5, vec5), (4,))  # wrong characteristic
    gl = v.gl(3, 3)
    _, w = parse_element("e2", gl)
    with pytest.raises(PreconditionViolated):
        structured_decompose(realize(gl, w), (2,))  # no Chevalley origin


def test_chain_decomposition_validate_rejects_broken():
    alg = v.gl(3, 3)
    _, vec = parse_element("e2", alg)
    r = realize(alg, vec)
    decomp = jordan_decompose(r)
    chains = list(decomp.chains)
    bad_vectors = chains[0].vectors.copy()
    bad_vectors[0] = (bad_vectors[0] + 1) % 3
    chains[0] = JordanChain(bad_vectors)
    with pytest.raises(ValueError):
        ChainDecomposition.of_chains(chains, r.der, 3)


def greedy_chains(der, p: int, dim: int) -> list[JordanChain]:
    """Reference head pick: walk the kernel vectors of D^l in order and accept
    each one that is independent of the blocked subspace and of the vectors
    accepted so far, re-eliminating the whole span after every acceptance."""
    powers = [np.eye(dim, dtype=np.int64)]
    for _ in range(p):
        powers.append(powers[-1] @ der % p)
    kernels = [fp.kernel_basis(power, p) for power in powers]
    image_rows = fp.rref(der.T % p, p)[0]
    image_rows = image_rows[np.any(image_rows, axis=1)]
    chains = []
    for length in range(p, 0, -1):
        blocked = Subspace.from_vectors(np.vstack([kernels[length - 1], image_rows]), dim, p)
        for candidate in kernels[length]:
            if blocked.reduce(candidate).any():
                blocked = Subspace.from_vectors(np.vstack([blocked.rows, candidate]), dim, p)
                vectors = [candidate % p]
                for _ in range(length - 1):
                    vectors.append(der @ vectors[-1] % p)
                chains.append(np.array(vectors, dtype=np.int64))
    return chains


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    blocks=st.lists(st.integers(1, 8), min_size=1, max_size=8),
    split=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_head_pick_matches_greedy_loop(p, blocks, split, seed):
    """Random nilpotent matrices: Jordan blocks (some longer than p) in a
    random basis.  The basis is either dense, P = L·U with unit-triangular L
    and U (one D-stable block), or split: one L·U per group of consecutive
    Jordan blocks with the coordinates shuffled, so D has D-stable blocks of
    unequal sizes (size 1 included), some holding several chains, whose
    coordinates interleave."""
    dim = sum(blocks)
    jordan = np.zeros((dim, dim), dtype=np.int64)
    start = 0
    for size in blocks:
        for i in range(start, start + size - 1):
            jordan[i + 1, i] = 1
        start += size
    rng = np.random.default_rng(seed)

    def unit_lu(n):
        lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        return lower @ upper % p

    if split:
        basis = np.zeros((dim, dim), dtype=np.int64)
        ends = np.cumsum(blocks)
        cuts = [0, *ends[:-1][rng.random(len(blocks) - 1) < 0.5], dim]
        for lo, hi in zip(cuts, cuts[1:]):
            basis[lo:hi, lo:hi] = unit_lu(hi - lo)
        basis = basis[rng.permutation(dim)]
    else:
        basis = unit_lu(dim)
    der = basis @ jordan @ fp.inverse(basis, p) % p
    entries, lengths, ranks = _heads(sparse.from_dense(der), p, p)
    expected = greedy_chains(der, p, dim)
    assert np.array_equal(lengths, [len(vectors) for vectors in expected])
    assert np.array_equal(entries.toarray(), np.vstack([np.zeros((0, dim), dtype=np.int64), *expected]))
    if max(blocks) <= p:
        got = ChainDecomposition(entries, lengths, der, p)  # checked against D when it is made
        r = realize_in_abelian(der, p)
        assert r.degree == max(blocks)
        assert block_counts(got) == rank_count_vector(r) == _rank_counts(ranks)
        # bounded by the degree, the head pick picks the same chains and ranks
        bounded, bounded_lengths, bounded_ranks = _heads(r.der, r.degree, p)
        assert bounded == entries and np.array_equal(bounded_lengths, lengths)
        assert bounded_ranks == ranks[: r.degree + 2] and not any(ranks[r.degree + 2 :])


def power_list(der: sparse.Coo, p: int) -> list[sparse.Coo]:
    """[I, D, ..., D^p] as sparse matrices, the power list the padded oracles read."""
    powers = [sparse.from_dense(np.eye(der.shape[0], dtype=np.int64))]
    for _ in range(p):
        powers.append(sparse.product(powers[-1], der, p))
    return powers


def repeated_block_derivation(p: int, kinds, rng) -> np.ndarray:
    """A nilpotent D made of a few block types, each a nilpotent matrix (Jordan
    blocks of the given lengths, cut at p, in a random unit L·U basis)
    repeated a given number of times, with the blocks' coordinates
    interleaved at random but kept in order, so the copies of a type stay
    equal blocks."""
    types = []
    for lengths, repeats in kinds:
        lengths = [min(length, p) for length in lengths]
        size = sum(lengths)
        jordan = np.zeros((size, size), dtype=np.int64)
        ends = np.cumsum(lengths)
        for i in range(size - 1):
            if i + 1 not in ends:
                jordan[i + 1, i] = 1
        lower = np.tril(rng.integers(0, p, (size, size)), -1) + np.eye(size, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, (size, size)), 1) + np.eye(size, dtype=np.int64)
        basis = lower @ upper % p
        types += [basis @ jordan @ fp.inverse(basis, p) % p] * repeats
    sizes = [len(block) for block in types]
    dim = sum(sizes)
    # the k-th coordinate of copy c goes to the k-th place that a shuffle of the copies' labels gives c
    where = np.argsort(rng.permutation(np.repeat(np.arange(len(types)), sizes)), kind="stable")
    der = np.zeros((dim, dim), dtype=np.int64)
    for block, start in zip(types, np.cumsum(sizes) - sizes):
        at = where[start : start + len(block)]
        der[np.ix_(at, at)] = block
    return der


BLOCK_KINDS = st.lists(st.tuples(st.lists(st.integers(1, 7), min_size=1, max_size=3), st.integers(1, 4)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    kinds=BLOCK_KINDS,
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, kinds=[], seed=0)  # dim 0
@example(p=5, kinds=[([1], 1), ([2, 3], 1), ([5, 1, 4], 1)], seed=1)  # no block repeats
@example(p=7, kinds=[([1], 9), ([3, 3], 3), ([7], 2)], seed=2)
def test_repeated_blocks_give_the_padded_head_pick(p, kinds, seed):
    """D is built from a few block types repeated a drawn number of times
    (repeated_block_derivation); it is a derivation of the abelian algebra
    of its dimension.  Each repeat drops out of the elimination; the chains
    equal those of the head pick that pads and eliminates every block, and
    the rank formula equals the one on the ranks of the whole powers."""
    der = repeated_block_derivation(p, kinds, np.random.default_rng(seed))
    dim = len(der)
    _, kind, stack = repalpha._power_blocks(sparse.from_dense(der), p, p)[:3]
    assert len(stack) // p <= len(kind) - sum(repeats - 1 for _, repeats in kinds)
    r = realize_derivation(ModularSuperAlgebra.from_entries(p, np.zeros(dim, dtype=np.int64), [], [], [], []), der)
    powers = power_list(r.der, p)
    heads, lengths, ranks = padded_heads(powers, p)
    decomp = jordan_decompose(r)
    assert np.array_equal(decomp.lengths, lengths)
    assert np.array_equal(decomp.basis, chain_orbits(r.der, heads, lengths, p))
    assert _heads(r.der, r.degree, p)[2] == ranks[: r.degree + 2] and not any(ranks[r.degree + 2 :])
    power_ranks = [rank(power.toarray(), p) for power in powers] + [0]
    assert rank_count_vector(r) == _rank_counts(power_ranks) == block_counts(decomp)


def level_derivation(p: int, kind: str, sizes, n: int, rng) -> np.ndarray:
    """A nilpotent D whose entries follow a level function of the given kind,
    with random values and its coordinates shuffled.  "exact": levels 0, 1,
    ... of the given sizes, every entry from a level into the next; "cyclic":
    levels mod n drawn for the coordinates taken in order, every entry from
    an earlier coordinate at level j to a later one at level j + 1 mod n;
    "none": every entry from an earlier coordinate to a later one, so that
    most blocks hold cycles of coprime defects and are one level."""
    dim = sum(sizes)
    level = np.repeat(np.arange(len(sizes)), sizes) if kind == "exact" else rng.integers(0, n, dim)
    later = np.arange(dim)[:, None] > np.arange(dim)[None, :]  # [row, col]: row after col
    allowed = {"exact": level[:, None] == level[None, :] + 1,
               "cyclic": later & ((level[:, None] - level[None, :] - 1) % n == 0), "none": later}[kind]
    der = np.where(allowed & (rng.random((dim, dim)) < 0.6), rng.integers(1, p, (dim, dim)), 0)
    order = rng.permutation(dim)
    return der[np.ix_(order, order)]


def assert_matches_the_padded_head_pick(der: sparse.Coo, p: int, degree: int | None):
    """_heads, and for a realization also jordan_decompose and
    rank_count_vector, against the head pick that eliminates every block
    whole and padded: the chains _heads builds from its heads are the orbits
    of the padded pick's heads."""
    heads, lengths, ranks = padded_heads(power_list(der, p), p)
    chains = chain_orbits(der, heads, lengths, p)
    got = _heads(der, p, p)
    assert np.array_equal(got[0].toarray(), chains) and np.array_equal(got[1], lengths) and got[2] == ranks
    if degree is not None:
        r = repalpha.Realization(ModularSuperAlgebra.from_entries(p, np.zeros(der.shape[0], dtype=np.int64), [], [], [], []), der)
        assert r.degree == degree
        bounded = _heads(der, degree, p)
        assert np.array_equal(bounded[0].toarray(), chains) and bounded[2] == ranks[: degree + 2]
        assert not any(ranks[degree + 2 :])
        decomp = jordan_decompose(r)
        assert np.array_equal(decomp.lengths, lengths) and np.array_equal(decomp.basis, chains)
        assert rank_count_vector(r) == _rank_counts(ranks) == block_counts(decomp)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    kind=st.sampled_from(["exact", "cyclic", "none"]),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=5, kind="exact", sizes=[2, 3, 3, 1], n=2, seed=0)
@example(p=7, kind="cyclic", sizes=[4, 4], n=2, seed=1)  # one block, levels mod 2
@example(p=7, kind="cyclic", sizes=[5, 5], n=3, seed=2)  # one block, levels mod 3
@example(p=7, kind="none", sizes=[3, 3], n=2, seed=2)
def test_level_parts_give_the_padded_head_pick(p, kind, sizes, n, seed):
    """Nilpotent matrices with an exact level function, with levels only mod
    n >= 2, and with none: the head pick on the distinct level parts picks
    the heads, chains, ranks and counts of the one that eliminates every
    block whole, and so do jordan_decompose and rank_count_vector wherever
    the degree is at most p."""
    der = sparse.from_dense(level_derivation(p, kind, sizes, n, np.random.default_rng(seed)))
    top, degree = der, 1  # D^degree
    while top.nnz and degree <= p:
        top, degree = sparse.product(top, der, p), degree + 1
    assert_matches_the_padded_head_pick(der, p, degree if degree <= p else None)


def test_a_cycle_of_defect_two_gives_levels_mod_two():
    """Entries 0 -> 1 -> 2 -> 3 and 0 -> 3: the cycle has defect 2, so the
    block has no exact level function, and its levels mod 2 are {0, 2} and
    {1, 3}; D maps each into the other: 1 -> 2 into the first, the other
    three entries into the second."""
    der = sparse.from_entries([1, 2, 3, 3], [0, 1, 2, 0], [1, 2, 1, 1], (4, 4))
    coords, kind, stack, lower, below, above = repalpha._power_blocks(der, 3, 5)
    assert coords.tolist() == [[0, 2], [1, 3]] and len(set(kind.tolist())) == 2 and above.tolist() == [1, 0]
    assert np.array_equal(below[kind[0]], [[0, 0], [2, 0]]) and np.array_equal(below[kind[1]], [[1, 0], [1, 1]])
    assert_matches_the_padded_head_pick(der, 5, 4)


@pytest.mark.parametrize("name,p", [("a3", 3), ("a3", 5), ("g2", 7), ("f4", 3), ("f4", 7)])
def test_dependent_roots_give_one_level_per_block(name, p):
    """e1 + e2 + [e1, e2] has terms of linearly dependent roots: no block of
    ad e has a level function, so each block is one part, and the head pick
    is the one that eliminates every block whole."""
    alg = v.catalog_algebra(name, p)
    r = realize(alg, parse_element("e1+e2+[e1,e2]", alg)[1])
    coords = repalpha._power_blocks(r.der, r.degree, p)[0]
    assert len(coords) == fp.components(r.der).max() + 1
    assert_matches_the_padded_head_pick(r.der, p, r.degree)


def test_block_sizes_tell_apart_equally_padded_blocks():
    """A stored zero joins coordinates 0 and 1 into one D-stable block whose
    matrix of D is zero, padded just like the lone coordinate 2: only the
    sizes keep the two blocks apart."""
    der = sparse.Coo(np.array([0, 3]), np.array([1, 4]), np.array([0, 1]), (5, 5))
    expected, got = padded_heads(power_list(der, 3), 3), _heads(der, 3, 3)
    assert np.array_equal(got[0].toarray(), chain_orbits(der, *expected[:2], 3))
    assert np.array_equal(got[1], expected[1]) and got[2] == expected[2]
    r = repalpha.Realization(ModularSuperAlgebra.from_entries(3, np.zeros(5, dtype=np.int64), [], [], [], []), der)
    assert rank_count_vector(r) == (3, 1, 0)


def test_heads_eliminate_each_distinct_block_once():
    """e8@e2+e3+e4 at p = 5 has 86 D-stable blocks, the largest of size 17,
    which split into 228 level parts of at most 5 coordinates, 31 of them
    distinct: the head pick eliminates only the distinct parts, so its traced
    peak stays below 1 MB (2.5 MB when each distinct block was eliminated
    whole, 6.5 MB when every block is padded and eliminated)."""
    alg = v.catalog_algebra("e8", 5)
    r = realize(alg, parse_element("e2+e3+e4", alg)[1])
    assert r.degree == 5
    assert fp.components(r.der).max() + 1 == 86
    coords, kind, stack = repalpha._power_blocks(r.der, 6, 5)[:3]
    assert len(coords) == len(kind) == 228 and stack.shape == (6 * 31, 5, 5)
    tracemalloc.start()
    try:
        _heads(r.der, r.degree, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("element,degree,seconds", [
    ("e1+e2+e3+e4+e5+e6+e7+e8", 59, 1.0),
    ("e1+e2+e3+e4+e5+e6+e7", 35, 0.3),
], ids=["regular", "e1-e7"])
def test_large_blocks_split_into_levels(element, degree, seconds):
    """At p = 61, ad e of the regular element of e8 is one D-stable block of
    all 248 coordinates, and that of e1 + ... + e7 has one of 134; both split
    into levels of at most 8 coordinates.  Eliminating the whole block took
    jordan_decompose 10.2 s and 2.1 s, with a traced peak of 249 MiB on the
    regular element; by levels it stays below 1 s and 0.3 s and 25 MB."""
    alg = v.catalog_algebra("e8", 61)
    r = realize(alg, parse_element(element, alg)[1])
    assert r.degree == degree and repalpha._power_blocks(r.der, 1, 61)[0].shape[1] == 8
    tracemalloc.start()
    try:
        start = time.perf_counter()
        decomp = jordan_decompose(r)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < seconds and peak < 25_000_000, (elapsed, peak)
    assert decomp.lengths.max() == degree


def test_structured_chains_view_no_square_array():
    """The singleton chains of untouched nodes are rows of the one basis
    array the chains are read from, which owns its memory, not views of a
    dim x dim identity: the only square array a chain views is that basis."""
    alg = v.catalog_algebra("e8", 3)
    chains = structured_decompose(realize(alg, parse_element("e1+e2", alg)[1]), (1, 2)).chains
    assert sum(chain.tag is not None and chain.length == 1 for chain in chains) > 12
    basis = chains[0].vectors.base
    assert basis.shape == (alg.dim, alg.dim) and basis.base is None
    for chain in chains:
        assert chain.vectors.base is basis


def test_realizations_compare_by_identity(f4mod3):
    _, vec = parse_element("e4", f4mod3)
    first, second = realize(f4mod3, vec), realize(f4mod3, vec)
    assert first == first and first != second
    # D and its degree are fixed together when the realization is made
    for name, value in (("der", second.der), ("degree", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, name, value)


def test_validated_decomposition_cannot_change_silently(monkeypatch):
    """A decomposition is checked once, when it is made.  Its fields cannot
    be replaced; its entries, its chain lengths and its realization's D are
    held in bytes buffers, on which WRITEABLE cannot be set again; and its
    chains are frozen views of a read-only basis array, new on each call."""
    alg = v.gl(3, 3)
    _, vec = parse_element("e2", alg)
    r = realize(alg, vec)
    checked = []
    validate = ChainDecomposition.validate
    monkeypatch.setattr(ChainDecomposition, "validate", lambda self, der: checked.append(der) or validate(self, der))
    decomp = jordan_decompose(r)
    assert checked == [r.der] and decomp.der is r.der
    for array in (decomp.entries.row, decomp.entries.col, decomp.entries.data, decomp.lengths, r.der.data):
        with pytest.raises(ValueError):
            array.flags.writeable = True
    for write in (lambda: decomp.chains[0].vectors.__setitem__((0, 0), 1),
                  lambda: decomp.chains[0].vectors.base.fill(0),  # the basis array the chains view
                  lambda: decomp.basis.__setitem__((0, 0), 1),
                  lambda: decomp.entries.data.__setitem__(0, 2),
                  lambda: decomp.lengths.__setitem__(0, 1),
                  lambda: r.der.data.__setitem__(0, 2)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert decomp.basis is not decomp.basis and np.array_equal(decomp.basis, decomp.basis)
    longest = int(np.argmax(decomp.lengths))
    good = decomp.chains[longest].vectors
    bad = good.copy()
    bad[0] = (bad[0] + bad[1]) % 3
    with pytest.raises(dataclasses.FrozenInstanceError):  # a chain's vectors cannot be replaced
        decomp.chains[longest].vectors = bad
    for name in ("entries", "lengths", "der", "p", "tags"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(decomp, name, getattr(decomp, name))
    v.semisimplify(r, decomp)
    assert len(checked) == 1  # checked against this D when it was made: nothing left to check
    # hand-built chains are checked once, when they are made, against a dense D too
    chains = list(decomp.chains)
    own = ChainDecomposition.of_chains(chains, r.der.toarray(), 3)
    assert len(checked) == 2 and own.entries == decomp.entries
    chains[longest] = JordanChain(np.vstack([bad[:1], good[1:]]))
    with pytest.raises(ValueError, match="D-orbit"):
        ChainDecomposition.of_chains(chains, r.der, 3)
    assert len(checked) == 3


def columns_as_chains(m, p: int) -> ChainDecomposition:
    """The columns of m as chains of length 1, checked against D = 0.  Under
    D = 0 every chain condition holds, so the check decides only whether
    they form a basis."""
    zero = np.zeros((len(m), len(m)), dtype=np.int64)
    return ChainDecomposition.of_chains([JordanChain(np.array([col])) for col in np.asarray(m).T], zero, p)


def test_basis_check_rejects_unequal_blocks():
    """Columns e0 + e1, e2 and 2 e2: the graph of the basis matrix has a block
    of two coordinates and one column beside one of one coordinate and two
    columns."""
    m = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 2]])
    with pytest.raises(ValueError, match="not a basis"):
        columns_as_chains(m, 3)


def test_basis_check_rejects_a_singular_padded_block():
    """A singular 2 x 2 block beside an invertible 3 x 3 one is padded with
    the identity to size 3, and the padding must not hide its rank."""
    m = np.zeros((5, 5), dtype=np.int64)
    m[:3, :3] = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    m[3:, 3:] = [[1, 1], [2, 2]]
    with pytest.raises(ValueError, match="not a basis"):
        columns_as_chains(m, 3)
    m[4, 4] = 1
    inverse = fp.inverse(m, 3)
    assert np.array_equal(columns_as_chains(m, 3).coordinates(range(5)), inverse)
    assert np.array_equal(m @ inverse % 3, np.eye(5, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, "largest"]),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    singular=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_basis_check_inverts_permuted_block_bases(p, sizes, singular, seed):
    """Invertible blocks L·U on the diagonal, one made singular when
    `singular`, then rows and columns permuted: the coordinates of a basis
    are the rows of fp.inverse, and a singular matrix is not a basis."""
    dim = sum(sizes)
    p = largest_accepted_prime(dim) if p == "largest" else p
    rng = np.random.default_rng(seed)
    m = np.zeros((dim, dim), dtype=np.int64)
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        lower = np.tril(rng.integers(0, p, size=(size, size)), -1) + np.eye(size, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, size=(size, size)), 1) + np.diag(rng.integers(1, p, size=size))
        m[start : start + size, start : start + size] = lower @ upper % p
    if singular:  # one column a multiple of another in its block, or zero
        start, size = rng.choice(np.stack([np.cumsum(sizes) - sizes, sizes], axis=1))
        m[:, start + size - 1] = m[:, start] * rng.integers(0, p) % p if size > 1 else 0
    m = m[rng.permutation(dim)][:, rng.permutation(dim)]
    assert (rank(m, p) < dim) == singular
    if singular:
        with pytest.raises(ValueError, match="not a basis"):
            columns_as_chains(m, p)
    else:
        # both invert by the blocks of fp.inverse_rows, so the product checks the split itself
        inverse = fp.inverse(m, p)
        assert np.array_equal(columns_as_chains(m, p).coordinates(range(dim)), inverse)
        assert np.array_equal(m @ inverse % p, np.eye(dim, dtype=np.int64))


FAULTS = ("none", "middle", "tail", "terminate", "zero", "span", "singular", "unequal", "merge", "drop")


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), kinds=BLOCK_KINDS, fault=st.sampled_from(FAULTS), seed=st.integers(0, 2**32 - 1))
@example(p=3, kinds=[([1, 1], 3), ([2, 3], 2)], fault="span", seed=0)  # vectors across two D-blocks, like h_j - h_i
@example(p=5, kinds=[([2, 1, 1], 2), ([4, 3, 1], 1)], fault="singular", seed=2)  # a singular block, padded
@example(p=7, kinds=[([3], 2), ([1], 2)], fault="unequal", seed=2)
@example(p=3, kinds=[([1], 2), ([3, 2], 2)], fault="terminate", seed=3)
@example(p=3, kinds=[([1, 2], 2)], fault="tail", seed=1)  # a length-1 chain D does not kill
@example(p=5, kinds=[([5, 4], 2)], fault="middle", seed=4)
@example(p=7, kinds=[([2, 1, 1], 2)], fault="zero", seed=0)
@example(p=3, kinds=[([2, 3], 2)], fault="merge", seed=6)  # a chain longer than p
@example(p=5, kinds=[([2, 3], 1)], fault="drop", seed=7)
def test_validate_agrees_with_the_dense_check(p, kinds, fault, seed):
    """Chains of a D with repeated blocks (repeated_block_derivation), with
    one fault: a middle vector or a tail changed, a chain replaced by the
    orbit of a head plus a longer chain's head (it does not terminate), a
    vector zeroed, a chain plus an equally long chain of another D-block
    (still a basis, its vectors across two D-blocks), a chain replaced by a
    multiple of another of its D-block (a singular block) or of another
    D-block (unequal block counts), two chains merged into one, or a chain
    dropped.  validate accepts and rejects exactly as the dense check does,
    with the same message, and the coordinates it finds are the rows of the
    dense inverse."""
    rng = np.random.default_rng(seed)
    der = repeated_block_derivation(p, kinds, rng)
    dim = len(der)
    entries, lengths, _ = _heads(sparse.from_dense(der), p, p)
    chains = np.split(entries.toarray(), np.cumsum(lengths))[:-1]
    d_blocks = fp.components(sparse.from_dense(der))
    block = [d_blocks[np.flatnonzero(vectors[0])[0]] for vectors in chains]
    lengths = [len(vectors) for vectors in chains]

    def pick(where):
        """A random chain index where `where(index)` holds, or None."""
        found = [c for c in range(len(chains)) if where(c)]
        return found[rng.integers(len(found))] if found else None

    c = pick(lambda c: True)
    if fault == "middle" and (c := pick(lambda c: lengths[c] >= 3)) is not None:
        chains[c][rng.integers(1, lengths[c] - 1)] += rng.integers(0, p, dim)
    elif fault == "tail" and c is not None:
        chains[c][-1] += rng.integers(0, p, dim)
    elif fault == "terminate" and (c := pick(lambda c: lengths[c] < max(lengths))) is not None:
        d = pick(lambda d: lengths[d] > lengths[c])
        chains[c] = chain_orbits(sparse.from_dense(der), chains[c][0] + chains[d][0], [lengths[c]], p)
    elif fault == "zero" and c is not None:
        chains[c][rng.integers(lengths[c])] = 0
    elif fault in ("span", "singular", "unequal") and c is not None:
        same = fault == "singular"
        d = pick(lambda d: d != c and lengths[d] == lengths[c] and (block[d] == block[c]) == same)
        if d is not None and fault == "span":
            chains[c] += rng.integers(1, p) * chains[d]
        elif d is not None:
            chains[c] = rng.integers(1, p) * chains[d]
    elif fault == "merge" and (c := pick(lambda c: c + 1 < len(chains))) is not None:
        chains[c : c + 2] = [np.vstack(chains[c : c + 2])]
    elif fault == "drop" and c is not None:
        del chains[c]
    chains = [JordanChain(vectors % p) for vectors in chains]
    try:
        dense_chain_check(chains, sparse.from_dense(der), p)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            ChainDecomposition.of_chains(chains, der, p)
        assert str(raised.value) == str(error)
    else:
        decomp = ChainDecomposition.of_chains(chains, der, p)
        assert np.array_equal(decomp.coordinates(range(dim)), fp.inverse(decomp.basis.T, p))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), kinds=BLOCK_KINDS, mixing=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
@example(p=3, kinds=[([2, 1], 1)], mixing=1.0, seed=0)
@example(p=5, kinds=[([3, 2, 1], 2)], mixing=0.5, seed=3)
def test_basis_verdict_agrees_with_the_dense_check_on_mixed_chains(p, kinds, mixing, seed):
    """Each chain replaced by a random combination of the last l vectors of
    the chains of its length l or longer: a D-orbit of length l that
    terminates, so only the basis verdict is in question.  A chain of
    length 1 equal to a longer chain's tail, for one, has a head independent
    of every other head and a tail that is not.  validate accepts and
    rejects exactly as the dense check does, with the same message, and the
    coordinates it finds are the rows of the dense inverse."""
    rng = np.random.default_rng(seed)
    der = repeated_block_derivation(p, kinds, rng)
    dim = len(der)
    entries, lengths, _ = _heads(sparse.from_dense(der), p, p)
    chains = np.split(entries.toarray(), np.cumsum(lengths))[:-1]
    mixed = []
    for vectors in chains:
        length = len(vectors)
        out = np.zeros_like(vectors)
        for other in chains:
            if len(other) >= length and (other is vectors or rng.random() < mixing / 2):
                out += int(rng.integers(0, p)) * other[len(other) - length :]
        mixed.append(JordanChain(out % p))
    try:
        dense_chain_check(mixed, sparse.from_dense(der), p)
    except ValueError as error:
        assert str(error) == "chain vectors are not a basis"
        with pytest.raises(ValueError) as raised:
            ChainDecomposition.of_chains(mixed, der, p)
        assert str(raised.value) == str(error)
    else:
        decomp = ChainDecomposition.of_chains(mixed, der, p)
        assert np.array_equal(decomp.coordinates(range(dim)), fp.inverse(decomp.basis.T, p))


def test_independent_heads_with_dependent_tails_are_not_a_basis():
    """D e0 = e1 on three coordinates: the chains (e0, e1) and (e1 + e2)
    form a basis, but (e0, e1) and (e1) do not, although they are D-orbits
    whose heads e0 and e1 are independent; only their tails, both e1, are
    not.  Under D = 0 the chains (e0 + e1) and (e1) have two tails that end
    at e1 and are independent, and (e0 + e1) and (2 e0 + 2 e1) two that
    are not, although their block has as many columns as rows."""
    der = np.zeros((3, 3), dtype=np.int64)
    der[1, 0] = 1
    unit = np.eye(3, dtype=np.int64)
    good = ChainDecomposition.of_chains([JordanChain(unit[:2]), JordanChain(unit[1:2] + unit[2:])], der, 3)
    assert np.array_equal(good.coordinates(range(3)), fp.inverse(good.basis.T, 3))
    with pytest.raises(ValueError, match="not a basis"):
        ChainDecomposition.of_chains([JordanChain(unit[:2]), JordanChain(unit[1:2])], der, 3)
    shared = columns_as_chains(np.array([[1, 0], [1, 1]]), 3)
    assert np.array_equal(shared.coordinates(range(2)), [[1, 0], [2, 1]])
    with pytest.raises(ValueError, match="not a basis"):
        columns_as_chains(np.array([[1, 2], [1, 2]]), 3)
    # a hand-built head need not be reduced: 3 e0 is zero, and 4 e0 is e0, at p = 3
    with pytest.raises(ValueError, match="not a basis"):
        columns_as_chains(np.array([[3, 0], [0, 1]]), 3)
    unreduced = columns_as_chains(np.array([[4, 0], [3, 1]]), 3)
    assert np.array_equal(unreduced.coordinates(range(2)), np.eye(2, dtype=np.int64))


def test_extracted_entries_are_the_nonzeros_of_the_basis():
    """On every swap-orbit member of f4, e6, e7 and e8 at p = 3, the
    entries the extraction hands over are the row-major nonzeros of the
    basis array they fill, and the decomposition keeps exactly those."""
    checked = 0
    for name in ("f4", "e6", "e7", "e8"):
        alg = v.catalog_algebra(name, 3)
        for nodes in orbit_members(name):
            r = realize(alg, parse_element("+".join(f"e{i}" for i in nodes), alg)[1])
            entries = _heads(r.der, r.degree, 3)[0]
            decomp = jordan_decompose(r)
            assert decomp.entries == entries == sparse.from_dense(decomp.basis), (name, nodes)
            checked += 1
    assert checked == 110


def test_basis_is_inverted_only_for_coordinates(monkeypatch):
    """The check decides the basis without inverting it; coordinates
    inverts it once per call, keeping nothing, and a checked basis found
    singular there is an internal error, not a refused input."""
    alg = v.gl(3, 3)
    r = realize(alg, parse_element("e2", alg)[1])
    inverted = []
    inverse_rows = fp.inverse_rows
    monkeypatch.setattr(fp, "inverse_rows", lambda *args: inverted.append(args) or inverse_rows(*args))
    decomp = jordan_decompose(r)
    assert not inverted
    first = decomp.coordinates(range(9))
    assert np.array_equal(decomp.coordinates(range(9)), first) and len(inverted) == 2
    monkeypatch.setattr(fp, "inverse_rows", lambda *args: None)
    with pytest.raises(InternalError, match="singular"):
        decomp.coordinates(range(9))


def orbit_members(name: str) -> list[tuple[int, ...]]:
    """Every member of the swap orbit of every nonempty admissible subset."""
    gcm = roots.catalog_gcm(name)
    members = set()
    for subset in roots.admissible_subsets(gcm):
        if subset:
            members.update(c.sorted_black() for c in roots.swap_orbit(roots.Coloring(gcm, frozenset(subset))))
    return sorted(members)


SMALL_ALGEBRAS = ("g2", "f4", "a4", "a5", "b3", "b4", "c3", "c4", "d4", "gl3", "sl4")


def simple_elements(alg) -> list[str]:
    """Each e_i, then each e_i + e_j."""
    n = sum(1 for g in alg.gens if g.startswith("e"))
    return [f"e{i}" for i in range(1, n + 1)] + [f"e{i}+e{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def test_rank_formula_agrees_with_the_separate_elimination():
    """The chain counts jordan_decompose checks against the ranks its own
    extraction eliminated equal rank_count_vector's, on every f4 and e6 swap
    orbit member at p = 3 and on every e_i and e_i + e_j of the small
    algebras at p = 5 and 7."""
    cases = [(v.catalog_algebra(name, 3), "+".join(f"e{i}" for i in nodes))
             for name in ("f4", "e6") for nodes in orbit_members(name)]
    cases += [(alg, element) for alg in (v.catalog_algebra(name, p) for name in SMALL_ALGEBRAS for p in (5, 7))
              for element in simple_elements(alg)]
    checked = 0
    for alg, element in cases:
        try:
            r = realize(alg, parse_element(element, alg)[1])
        except DegreeExceedsP:
            continue
        assert block_counts(jordan_decompose(r)) == rank_count_vector(r), (alg.dim, alg.p, element)
        checked += 1
    assert checked > len(cases) // 2


def one_rank_off(heads):
    """The head pick `heads` with its rank of D one too high."""
    def wrong(der, d, p):
        entries, lengths, ranks = heads(der, d, p)
        ranks[1] += 1
        return entries, lengths, ranks

    return wrong


def test_rank_formula_catches_a_wrong_rank(monkeypatch):
    """Correct chains with one wrong rank fail the rank-formula check."""
    monkeypatch.setattr(repalpha, "_heads", one_rank_off(repalpha._heads))
    alg = v.gl(3, 3)
    r = realize(alg, parse_element("e2", alg)[1])
    with pytest.raises(InternalError, match="rank formula"):
        jordan_decompose(r)
