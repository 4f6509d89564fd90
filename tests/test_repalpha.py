import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlie as v
from verlie import fp
from verlie.errors import DegreeExceedsP, ParseError, PreconditionViolated, UnknownGenerator
from verlie.repalpha import (
    ChainDecomposition,
    JordanChain,
    _chains_of,
    block_counts,
    jordan_decompose,
    parse_element,
    rank_count_vector,
    realize,
    structured_decompose,
)
from verlie.superalgebra import Subspace


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


def test_realize_derivation_rejects_non_derivation():
    alg, _ = v.free_nilpotent_example(3)
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
    assert decomp.counts() == rank_count_vector(r.powers, 3)
    for chain in decomp.chains:
        for t in range(chain.length - 1):
            assert np.array_equal(r.der @ chain.vectors[t] % 3, chain.vectors[t + 1])
        assert not (r.der @ chain.vectors[-1] % 3).any()


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
    broken = ChainDecomposition(tuple(chains), 3, 9)
    with pytest.raises(ValueError):
        broken.validate(r.der)


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
    got = _chains_of(fp.powers(der, p, p), p)
    expected = greedy_chains(der, p, dim)
    assert len(got) == len(expected)
    assert all(np.array_equal(chain.vectors, vectors) for chain, vectors in zip(got, expected))
    if max(blocks) <= p:
        decomp = ChainDecomposition(tuple(got), p, dim)
        decomp.validate(der)
        assert decomp.counts() == rank_count_vector(fp.powers(der, p, p), p)


def test_realizations_compare_by_identity(f4mod3):
    _, vec = parse_element("e4", f4mod3)
    first, second = realize(f4mod3, vec), realize(f4mod3, vec)
    assert first == first and first != second


def test_validated_decomposition_cannot_change_silently(monkeypatch):
    """A validated decomposition and its realization are read-only; a chain
    that is replaced or made writable again is checked in full."""
    alg = v.gl(3, 3)
    _, vec = parse_element("e2", alg)
    r = realize(alg, vec)
    decomp = jordan_decompose(r)
    for write in (lambda: decomp.chains[0].vectors.__setitem__((0, 0), 1),
                  lambda: decomp.chains[0].vectors.base.fill(0),  # the stack the chains view
                  lambda: r.der.__setitem__((0, 0), 1),
                  lambda: r.powers[1].data.__setitem__(0, 2)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    full = []
    check = ChainDecomposition._check
    monkeypatch.setattr(ChainDecomposition, "_check", lambda self, der: full.append(der) or check(self, der))
    decomp.validate(r.powers[1])
    assert not full  # same read-only D and chains: nothing left to check
    decomp.validate(r.der)  # another D, even an equal one, is checked
    assert len(full) == 1
    # a chain replaced after validation
    longest = max(range(len(decomp.chains)), key=lambda i: decomp.chains[i].length)
    good = decomp.chains[longest].vectors
    bad = good.copy()
    bad[0] = (bad[0] + bad[1]) % 3
    decomp.chains[longest].vectors = bad
    with pytest.raises(ValueError):
        decomp.validate(r.powers[1])
    decomp.chains[longest].vectors = good
    decomp.validate(r.powers[1])
    assert len(full) == 3
    # a chain array made writable again and changed in place
    own = ChainDecomposition(tuple(JordanChain(c.vectors.copy()) for c in decomp.chains), 3, 9)
    own.validate(r.powers[1])
    own.validate(r.powers[1])
    assert len(full) == 4
    vectors = own.chains[longest].vectors
    vectors.flags.writeable = True
    vectors[0] = (vectors[0] + vectors[1]) % 3
    with pytest.raises(ValueError):
        own.validate(r.powers[1])
    with pytest.raises(ValueError):
        v.semisimplify(r, own)
