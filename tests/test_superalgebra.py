import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlie as v
from tests.oracles import (
    center,
    derived_subalgebra,
    free_nilpotent_example,
    odd_cube_pieces,
    odd_cube_values_literal,
    rotation_jacobi_witness,
    tensor_coo,
)
from tests.pipelines import row_key, spec_pipeline, structured_pipeline
from tests.test_fp import largest_accepted_prime
from verlie import fp, sparse, superalgebra, verify
from verlie.errors import (
    BadModulus,
    DegreeExceedsP,
    DimensionTooLarge,
    JacobiViolation,
    NotAnIdeal,
    NotParityHomogeneous,
    VerlieError,
)
from verlie.superalgebra import (
    ModularSuperAlgebra,
    Subspace,
    check_odd_cubes,
    check_super_jacobi,
    check_super_skew,
    distinct_rows,
    gen_subquotient,
    generated_subalgebra,
    ideal_closure,
    jacobi_witness,
    odd_cube_generators,
    quotient,
    skew_witness,
    superdim,
)
from verlie.table import TABLE, row_pipeline


@pytest.fixture(scope="module")
def gl33():
    return v.gl(3, 3)


@pytest.fixture(scope="module")
def f4mod3():
    return v.catalog_algebra("f4", 3)


@pytest.fixture(scope="module")
def free_nilpotent_ss():
    alg, der = free_nilpotent_example(3)
    realization = v.realize_derivation(alg, der)
    return v.semisimplify(realization, v.jordan_decompose(realization))


def corrupt(alg: ModularSuperAlgebra, i, j, k, delta=1) -> ModularSuperAlgebra:
    """The algebra with delta added to C(i, j, k)."""
    t = alg.tensor
    ks, js = np.divmod(t.col, alg.dim)
    return ModularSuperAlgebra.from_entries(alg.p, alg.parity.copy(), [*t.row, i], [*js, j], [*ks, k], [*t.data, delta])


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


def jacobi_value(alg, i, j, k):
    """J(i,j,k) of jacobi_witness, from dense brackets of basis vectors."""
    parity, eye = alg.parity, np.eye(alg.dim, dtype=np.int64)
    s1 = (-1) ** (parity[i] * parity[k])
    s2 = (-1) ** (parity[j] * parity[i])
    s3 = (-1) ** (parity[k] * parity[j])
    return (
        s1 * alg.bracket(alg.bracket(eye[i], eye[j]), eye[k])
        + s2 * alg.bracket(alg.bracket(eye[j], eye[k]), eye[i])
        + s3 * alg.bracket(alg.bracket(eye[k], eye[i]), eye[j])
    ) % alg.p


def first_jacobi_violation(alg):
    """Direct cyclic scan: the first triple, in lexicographic order, at which
    the super Jacobi identity fails."""
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        if jacobi_value(alg, i, j, k).any():
            return (i, j, k)
    return None


def random_skew_algebra(p, dim, density, seed) -> ModularSuperAlgebra:
    """Random super skew constants (not a Lie superalgebra), the first half
    of the basis even."""
    constants, parity = random_skew_constants(p, dim, density, 0, seed)
    return ModularSuperAlgebra(p, dim, parity, tensor_coo(constants, dim, p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_jacobi_witness_matches_direct_scan(p):
    for dim in (5, 40):  # 40 spans several blocks of i values
        alg = random_skew_algebra(p, dim, 0.2, seed=5)
        fast = jacobi_witness(alg.tensor, alg.parity, alg.p)
        direct = first_jacobi_violation(alg)
        assert (fast is None) == (direct is None)
        if fast is not None:
            assert fast[:3] == direct


EVERYTHING = 1 << 62  # a product budget every expansion here fits: one block


@pytest.mark.parametrize("seed", range(6))
def test_jacobi_witness_independent_of_block_size(seed, monkeypatch):
    """The smallest bad quadruple over all blocks, whatever the product
    budget that cuts them, on a skew tensor at p = 3 and one over Z: the
    quadruple the unblocked rotation sum finds."""
    tensors = []
    for p in (3, None):
        constants, parity = random_skew_constants(p, 20, 0.03, 0, seed)
        tensors.append((tensor_coo(constants, 20, p), parity, p))

    def witnesses(budget):
        monkeypatch.setattr(superalgebra, "_JACOBI_BUDGET", budget)
        return [jacobi_witness(*tensor) for tensor in tensors]

    whole = witnesses(EVERYTHING)
    assert None not in whole and whole == [rotation_jacobi_witness(*tensor) for tensor in tensors]
    for budget in (1, 3, 7):
        assert witnesses(budget) == whole


# one product C(x,y,14) C(14,z,18) beside the 14 basis vectors of g2, each
# entry with its super skew mirror, by how x, y and z compare, ties included:
# the failing key, the sorted (x, y, z), and l = 18.  15, 16 and 17 are odd,
# so C(x,x,14) may be nonzero.
ONE_PRODUCT = {
    "x": ((15, 17, 16), (15, 16, 17)),
    "y": ((17, 15, 16), (15, 16, 17)),
    "z": ((17, 16, 15), (15, 16, 17)),
    "x = y < z": ((15, 15, 16), (15, 15, 16)),
    "y = z < x": ((16, 15, 15), (15, 15, 16)),
    "x = z < y": ((15, 16, 15), (15, 15, 16)),
    "x = y = z": ((15, 15, 15), (15, 15, 15)),
    "z < x = y": ((16, 16, 15), (15, 16, 16)),
}


def one_product_tensor(kind: str, p: int | None) -> tuple[sparse.Coo, np.ndarray]:
    """The g2 constants with the ONE_PRODUCT pair of the kind and its mirrors."""
    (x, y, z), _ = ONE_PRODUCT[kind]
    parity = np.zeros(20, dtype=np.int64)
    parity[15:18] = 1
    extra = {(x, y, 14): 1, (y, x, 14): 1, (14, z, 18): 1, (z, 14, 18): -1}  # x, y odd; 14 even
    i, j, k, c = np.vstack([v.chevalley.integral_catalog("g2").entries, [[*key, c] for key, c in extra.items()]]).T
    return sparse.from_entries(i, k * 20 + j, c if p is None else c % p, (20, 400), p), parity


@pytest.mark.parametrize("kind", ONE_PRODUCT)
def test_jacobi_witness_independent_of_block_size_reaches_each_kind(kind, monkeypatch):
    """The sorted sum expands each product C(x,y,w) C(w,z,l), x <= y, in the
    block of min(x, z): of x when x <= z, of z when z < x.  The left entry
    here is C(min(x, y), max(x, y), 14), so the kinds "z" and "z < x = y"
    reach the second, the rest the first.  The failing products here lie
    past g2, whose own sums vanish: every budget finds the witness of the
    unblocked rotation sum, in a block after those that pass.  J(x,x,x)
    counts its product three times, so it vanishes at p = 3."""
    _, triple = ONE_PRODUCT[kind]
    for p in (3, 5, None):
        t, parity = one_product_tensor(kind, p)
        assert skew_witness(t, parity, p) is None
        expected = None if kind == "x = y = z" and p == 3 else (*triple, 18)
        assert rotation_jacobi_witness(t, parity, p) == expected
        for budget in (1, 3, 7, EVERYTHING):
            monkeypatch.setattr(superalgebra, "_JACOBI_BUDGET", budget)
            assert jacobi_witness(t, parity, p) == expected, (p, budget)


@pytest.mark.parametrize("p", [3, 5, None])
def test_jacobi_witness_weighs_the_diagonal_three_times(p):
    """[b0,b0] = b1, [b1,b0] = b0 = -[b0,b1], b0 odd and b1 even.  J(0,0,0) is
    three equal terms, -3 b0, which vanishes only at p = 3; there the first
    failure is J(0,0,1) = 2 b1.  The constants are super skew, so the sorted
    sum gives the witnesses of the rotation sum."""
    constants = {(0, 0): {1: 1}, (1, 0): {0: 1}, (0, 1): {0: -1 if p is None else p - 1}}
    expected = (0, 0, 1, 1) if p == 3 else (0, 0, 0, 0)
    for witness in (jacobi_witness, rotation_jacobi_witness):
        assert witness(tensor_coo(constants, 2, p), [1, 0], p) == expected


def test_jacobi_keys_past_int64_are_rejected_at_construction():
    """Jacobi keys reach dim^4, and 55,108^4 <= 2^63 < 55,109^4: only
    construction runs, no check.  The constants above at the last two
    indices of a 60,000-dim algebra are refused before a check could decode
    a wrapped key."""
    assert ModularSuperAlgebra.from_entries(3, np.zeros(55_108, dtype=np.int64), [], [], [], []).dim == 55_108
    with pytest.raises(DimensionTooLarge, match="55109"):
        ModularSuperAlgebra.from_entries(3, np.zeros(55_109, dtype=np.int64), [], [], [], [])
    i, j, k = (np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) + 59_998).T
    parity = np.zeros(60_000, dtype=np.int64)
    parity[59_998] = 1
    with pytest.raises(DimensionTooLarge):
        ModularSuperAlgebra.from_entries(5, parity, i, j, k, [1, 1, -1])
    assert issubclass(DimensionTooLarge, VerlieError)  # so the CLI exits 3


def skew_pair_entries(alg, i, j, k, delta):
    """delta at C(i,j,k) and its super skew mirror at C(j,i,k), as entry
    lists; skew keeps C(i,i,k) = 0 for even i, so there nothing changes."""
    if i == j:
        return [i], [j], [k], [delta * int(alg.parity[i])]
    return [i, j], [j, i], [k, k], [delta, -(-1) ** int(alg.parity[i] * alg.parity[j]) * delta]


def test_sorted_jacobi_matches_rotations_on_skew_tensors(monkeypatch):
    """The same witness, None included, on random super skew tensors, graded
    (|k| = |i| + |j|) and not, of dims 2-8 at p = 3, 5, 7 and over Z, with
    the sorted sum streamed one product, a few products, or everything per
    block.  Among the witnesses are the ties x = y < z, x < y = z and
    x = y = z of an odd index (J vanishes on a repeated even index)."""
    shapes = set()
    for p, dim, graded, seed in itertools.product((3, 5, 7, None), range(2, 9), (False, True), range(10)):
        constants, parity = random_skew_constants(p, dim, 0.25, 0, seed)
        if graded:
            constants = {pair: {k: c for k, c in comps.items() if parity[k] == parity[pair[0]] ^ parity[pair[1]]}
                         for pair, comps in constants.items()}
        t = tensor_coo(constants, dim, p)
        assert skew_witness(t, parity, p) is None
        witness = rotation_jacobi_witness(t, parity, p)
        for budget in (1, 5, EVERYTHING):
            monkeypatch.setattr(superalgebra, "_JACOBI_BUDGET", budget)
            assert jacobi_witness(t, parity, p) == witness, (p, dim, graded, seed, budget)
        if witness is None:
            shapes.add(None)
        else:
            i, j, k, _ = witness
            shapes.add((i == j, j == k, int(parity[j])))
    assert {None, (True, False, 1), (False, True, 1), (True, True, 1)} <= shapes


def test_sorted_jacobi_matches_rotations_on_corrupted_table_outputs(monkeypatch):
    """Each table output, then with one constant and its skew mirror changed
    (at an existing entry, and at a random position): the witnesses of the
    unblocked rotation sum, with the sorted sum streamed one product, a few
    products, the default budget, or everything per block."""
    rng = np.random.default_rng(11)
    failures = 0

    def sorted_witnesses(alg):
        found = set()
        for budget in (1, 5, superalgebra._JACOBI_BUDGET, EVERYTHING):
            with monkeypatch.context() as m:
                m.setattr(superalgebra, "_JACOBI_BUDGET", budget)
                found.add(jacobi_witness(alg.tensor, alg.parity, alg.p))
        return found

    for spec in TABLE:
        alg = spec_pipeline(spec)[2].algebra
        assert sorted_witnesses(alg) == {None}
        entries = alg._entries()
        at = int(rng.integers(len(entries[0])))
        for i, j, k in [(x[at] for x in entries[:3]), rng.integers(0, alg.dim, 3)]:
            change = skew_pair_entries(alg, int(i), int(j), int(k), int(rng.integers(1, alg.p)))
            bad = ModularSuperAlgebra.from_entries(alg.p, alg.parity, *map(np.concatenate, zip(entries, change)))
            assert check_super_skew(bad).ok
            witness = rotation_jacobi_witness(bad.tensor, bad.parity, bad.p)
            assert sorted_witnesses(bad) == {witness}, row_key(spec)
            failures += witness is not None
    assert failures == 32  # every corruption breaks Jacobi


def traced_mb(f, *args):
    """f(*args), and the peak memory tracemalloc sees above the call's start, in MiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def test_certification_checks_stay_within_a_memory_bound(monkeypatch):
    """On the e8@e1 output at p = 3 (dim 189, 312,896 sorted Jacobi products,
    3,850 generation image rows), super Jacobi stays below 2.5 MiB above its
    start (1.24 MiB measured, in blocks of about 2^12 products; 3.9 MiB in
    blocks of 2^14) and the generation closure below 8 MiB.  One sort of
    every Jacobi product, or densifying every image row, takes about 20 MiB."""
    spec = next(s for s in TABLE if row_key(s) == "e8@e1|p=3")
    ss = row_pipeline(spec.algebra, spec.p, spec.elements[0])[2]
    alg = without_reports(ss.algebra)
    assert check_super_skew(alg).ok
    report, jacobi_mb = traced_mb(check_super_jacobi, alg)
    assert report.ok and jacobi_mb < 2.5
    closure_mb = []
    generated = verify.generated_subalgebra

    def traced_closure(*args):
        sub, mb = traced_mb(generated, *args)
        closure_mb.append(mb)
        return sub

    monkeypatch.setattr(verify, "generated_subalgebra", traced_closure)
    assert verify.check_generation(ss.algebra, verify.generator_images(ss, spec.subset))
    assert len(closure_mb) == 1 and closure_mb[0] < 8


def test_semisimplify_stays_within_a_memory_bound():
    """The whole semisimplify call on e8@e1 at p = 3, its checks included,
    stays below 4 MiB above its start (1.86 MiB measured).  Its checks run
    after the heads, their brackets and the splitting products are freed;
    with them alive, and the Jacobi sum in blocks of 2^14 products, it took
    5.7 MiB."""
    alg = v.catalog_algebra("e8", 3)
    realization = v.realize(alg, v.parse_element("e1", alg)[1])
    decomp = v.jordan_decompose(realization)
    decomp.validate(realization.der)
    ss, mb = traced_mb(v.semisimplify, realization, decomp)
    assert all(report.ok for report in ss.checks.values()) and mb < 4


def test_integral_jacobi_stays_within_a_memory_bound():
    """The sorted sum over Z on E8 stays below 5 MiB above its start
    (2.05 MiB measured, the tensor build included; the rotation sum over
    every ordered triple took 2.59 MiB): its products are summed block by
    block.  Keying all of them for one sort took 71.8 MiB."""
    found, mb = traced_mb(lambda alg: jacobi_witness(alg.tensor(), np.zeros(alg.dim, dtype=np.int64), None),
                          v.chevalley.integral_catalog("e8"))
    assert found is None and mb < 5


def normalized_lines(dense, p):
    """The nonzero rows of dense, each scaled to lead with 1, as a set."""
    lines = set()
    for row in dense:
        if row.any():
            lines.add(tuple(row * pow(int(row[np.flatnonzero(row)[0]]), p - 2, p) % p))
    return lines


@pytest.mark.parametrize("p", [3, 5, 7])
def test_distinct_rows_are_the_lines_of_the_nonzero_rows(p):
    """Rows of every entry count from 0 to the width, repeated at random
    multiples, an empty matrix, zero rows only, and multiples of one row:
    the output rows lead with 1, are pairwise non-proportional (rows that
    lead with 1 are proportional only when equal), are the lines of the
    input rows, and span what nonzero_rows spans."""
    rng = np.random.default_rng(p)
    width = 7
    base = np.zeros((width + 1, width), dtype=np.int64)
    for n in range(width + 1):
        base[n, rng.choice(width, n, replace=False)] = rng.integers(1, p, n)
    repeats = base[rng.integers(0, width + 1, 60)] * rng.integers(1, p, (60, 1)) % p
    line = rng.integers(0, p, width)
    line[2] = 1
    cases = [np.zeros((0, width), dtype=np.int64), np.zeros((3, width), dtype=np.int64), base, repeats,
             np.vstack([repeats, base]), np.arange(1, p)[:, None] * line % p]
    for dense in cases:
        m = sparse.from_dense(dense)
        out = distinct_rows(m, p)
        assert out.shape == (len(normalized_lines(dense, p)), width)
        assert set(map(tuple, out)) == normalized_lines(dense, p)
        assert (out[np.arange(len(out)), np.argmax(out != 0, axis=1)] == 1).all()
        (mine, mine_piv), (full, full_piv) = fp.rref(out, p), fp.rref(m.nonzero_rows(), p)
        assert mine_piv == full_piv and np.array_equal(mine[: len(mine_piv)], full[: len(full_piv)])
    assert len(distinct_rows(sparse.from_dense(cases[-1]), p)) == 1


def test_check_super_jacobi_requires_super_skew(monkeypatch):
    """All even at p = 3, C(0,1,0) = 1, C(2,0,2) = 2 and C(2,1,0) = 2: skew
    fails at (0,1,0) and the rotation sum at (0,0,2,2), but the sorted sum,
    which holds only on a skew tensor, finds nothing.  So the report names
    skew and forms no sum; a skew algebra, checked or not, gets the one sum."""
    bad = ModularSuperAlgebra.from_entries(3, np.zeros(3, dtype=np.int64), [0, 2, 2], [1, 0, 1], [0, 2, 0], [1, 2, 2])
    assert skew_witness(bad.tensor, bad.parity, 3) == (0, 1, 0)
    assert rotation_jacobi_witness(bad.tensor, bad.parity, 3) == (0, 0, 2, 2)
    assert jacobi_witness(bad.tensor, bad.parity, 3) is None  # the silent pass the skew guard prevents
    calls = []
    original = superalgebra.jacobi_witness
    monkeypatch.setattr(superalgebra, "jacobi_witness", lambda *args: calls.append(args) or original(*args))
    assert check_super_jacobi(bad) == superalgebra.Report("super_jacobi", False, {"requires": "super_skew"})
    assert set(bad._reports) == {"super_skew", "super_jacobi"} and not calls
    g2 = v.catalog_algebra("g2", 3)
    skewed, unchecked = without_reports(g2), without_reports(g2)
    assert check_super_skew(skewed).ok and check_super_jacobi(skewed).ok
    assert check_super_jacobi(unchecked).ok and unchecked._reports == skewed._reports
    assert len(calls) == 2


def random_skew_constants(p, dim, density, faults, seed):
    """Random super skew constants (signed integers when p is None) with
    `faults` random entries then changed, and the parity of the basis."""
    rng = np.random.default_rng(seed)
    parity = (np.arange(dim) >= dim // 2).astype(np.int64)
    entries = {}
    for i, j, k in itertools.product(range(dim), repeat=3):
        if i <= j and rng.random() < density:
            c = int(rng.integers(1, p)) if p else int(rng.integers(-3, 4))
            odd_pair = parity[i] and parity[j]
            if i == j and not odd_pair:
                continue
            entries[(i, j, k)] = c
            entries[(j, i, k)] = c if odd_pair else -c
    for _ in range(faults):
        key = tuple(int(x) for x in rng.integers(0, dim, 3))
        entries[key] = entries.get(key, 0) + 1
    constants = {}
    for (i, j, k), c in entries.items():
        c = c % p if p else c
        if c:
            constants.setdefault((i, j), {})[k] = c
    return constants, parity


def first_skew_violation(constants, parity, dim, p):
    """Direct scan: the first (i, j, k), i <= j, with C(i,j,k) != -(-1)^{|i||j|} C(j,i,k)."""
    for i, j, k in itertools.product(range(dim), repeat=3):
        if i > j:
            continue
        c, mirror = constants.get((i, j), {}).get(k, 0), constants.get((j, i), {}).get(k, 0)
        diff = c + (-1) ** (parity[i] * parity[j]) * mirror
        if (diff % p if p else diff):
            return (i, j, k)
    return None


@pytest.mark.parametrize("p", [3, 5, 7, None])
@pytest.mark.parametrize("faults", [0, 1, 3])
def test_skew_witness_matches_direct_scan(p, faults):
    for seed in range(4):
        constants, parity = random_skew_constants(p, 9, 0.1, faults, seed)
        assert skew_witness(tensor_coo(constants, 9, p), parity, p) == first_skew_violation(constants, parity, 9, p)


def test_super_skew_witness_is_the_smallest_triple(gl33):
    bad = corrupt(corrupt(gl33, 5, 1, 2), 7, 3, 0)
    assert check_super_skew(bad).witness == {"i": 1, "j": 5, "k": 2}


def test_odd_cube_literal_set_matches_polarization_pieces(free_nilpotent_ss):
    """The literal cubes, the polarization pieces and, since the output
    passes super Jacobi, the cube rows span one line."""
    alg = free_nilpotent_ss.algebra
    literal = Subspace.from_vectors(odd_cube_values_literal(alg), alg.dim, alg.p)
    pieces = Subspace.from_vectors([vec for vec, _ in odd_cube_pieces(alg)], alg.dim, alg.p)
    cubes = Subspace.from_vectors([vec for vec, _ in odd_cube_generators(alg)], alg.dim, alg.p)
    assert literal == pieces == cubes and literal.dim == 1


def test_odd_cubes_fail_on_free_nilpotent(free_nilpotent_ss):
    report = check_odd_cubes(free_nilpotent_ss.algebra)
    assert not report.ok


def test_odd_cubes_vacuous_on_even(f4mod3):
    assert check_odd_cubes(f4mod3).ok


def without_reports(alg: ModularSuperAlgebra) -> ModularSuperAlgebra:
    """An equal algebra that has run no check."""
    return ModularSuperAlgebra.from_entries(alg.p, alg.parity, *alg._entries(), labels=alg.labels, gens=alg.gens)


def cube_lists_equal(left, right) -> bool:
    return len(left) == len(right) and all(
        np.array_equal(u, v) and a == b for (u, a), (v, b) in zip(left, right))


def random_graded_skew_algebra(p, dim, seed) -> ModularSuperAlgebra:
    """Random super skew constants with |k| = |i| + |j| (Jacobi fails)."""
    constants, parity = random_skew_constants(p, dim, 0.15, 0, seed)
    graded = {pair: {k: c for k, c in comps.items() if parity[k] == parity[pair[0]] ^ parity[pair[1]]}
              for pair, comps in constants.items()}
    return ModularSuperAlgebra(p, dim, parity, tensor_coo(graded, dim, p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_cube_pieces_are_jacobi_values(p):
    """On a graded super skew algebra the square piece A_ab is J(a,a,b), the
    triple piece B_abc is 2·J(a,b,c), and J(a,a,a) is 3·[b_a,[b_a,b_a]]:
    so once Jacobi holds only the cubes can be nonzero."""
    for seed in range(6):
        alg = random_graded_skew_algebra(p, 10, seed)
        assert check_super_skew(alg).ok and not check_super_jacobi(alg).ok
        pieces = {(label["kind"], *label["nodes"]): vec for vec, label in odd_cube_pieces(alg)}
        assert {kind for kind, *_ in pieces} >= {"square", "triple"}
        odd, zero = np.flatnonzero(alg.parity), np.zeros(alg.dim, dtype=np.int64)
        eye = np.eye(alg.dim, dtype=np.int64)
        for a, b in itertools.permutations(odd, 2):
            assert np.array_equal(pieces.get(("square", a, b), zero), jacobi_value(alg, a, a, b))
        for a, b, c in itertools.combinations(odd, 3):
            assert np.array_equal(pieces.get(("triple", a, b, c), zero), 2 * jacobi_value(alg, a, b, c) % p)
        for a in odd:
            cube = alg.bracket(eye[a], alg.bracket(eye[a], eye[a]))
            assert np.array_equal(pieces.get(("cube", a), zero), cube)
            assert np.array_equal(jacobi_value(alg, a, a, a), 3 * cube % p)


def small_outputs(names):
    """The semisimplified algebras of every single and paired e_i, at p = 3, 5, 7."""
    for name in names:
        rank = sum(gen.startswith("e") for gen in v.catalog_algebra(name, 3).gens)
        elements = [f"e{i}" for i in range(1, rank + 1)]
        elements += [f"e{i}+e{j}" for i, j in itertools.combinations(range(1, rank + 1), 2)]
        for p, element in itertools.product((3, 5, 7), elements):
            try:
                yield row_pipeline(name, p, element)[2].algebra
            except DegreeExceedsP:
                continue


def test_odd_cubes_from_reports_match_full_expansion(free_nilpotent_ss):
    """On every output, which passes super Jacobi, the cube rows are the
    nonzero cubes of the polarization pieces, the pieces of the other kinds
    vanish, and a copy without kept reports gets the same rows."""
    outputs = [spec_pipeline(spec)[2].algebra for spec in TABLE]
    outputs += [*small_outputs(["g2", "f4"]), free_nilpotent_ss.algebra]
    assert any(superdim(alg)[1] for alg in outputs)
    for alg in outputs:
        assert check_super_skew(alg).ok and check_super_jacobi(alg).ok  # kept by semisimplify
        fresh = without_reports(alg)
        cubes = odd_cube_generators(alg)
        assert cube_lists_equal(cubes, odd_cube_pieces(alg))
        assert fresh == alg and cube_lists_equal(cubes, odd_cube_generators(fresh))
    assert odd_cube_generators(free_nilpotent_ss.algebra)  # a failing cube is seen


def test_kept_odd_cube_report_matches_a_fresh_check():
    """semisimplify keeps the odd-cube report it took on the cube rows; a
    copy without kept reports runs skew and Jacobi first, and then takes the
    same cube rows to the same report."""
    for spec in TABLE:
        ss = row_pipeline(spec.algebra, spec.p, spec.elements[0])[2]
        fresh = without_reports(ss.algebra)
        assert ss.checks["odd_cubes"] == check_odd_cubes(fresh), row_key(spec)
        assert set(fresh._reports) == {"super_skew", "super_jacobi", "odd_cubes"}, row_key(spec)


def test_fresh_table_outputs_get_the_kept_reports():
    """A copy of every table output without kept reports gets the three
    reports that semisimplify kept, whichever check it is asked first."""
    for spec in TABLE:
        ss = spec_pipeline(spec)[2]
        cubes_first, skew_first = without_reports(ss.algebra), without_reports(ss.algebra)
        check_odd_cubes(cubes_first)
        for check in (check_super_skew, check_super_jacobi, check_odd_cubes):
            check(skew_first)
        assert cubes_first._reports == skew_first._reports == ss.checks, row_key(spec)


def test_odd_cubes_after_failed_jacobi_require_super_jacobi():
    """Skew kept, Jacobi broken by a symmetric odd-odd entry: the cube rows
    are all zero, but a triple piece is not, so [x,[x,x]] is nonzero for
    some odd x.  The report names Jacobi instead of passing on the cube
    rows, and no cube row is formed."""
    alg = structured_pipeline("f4", 3, "e4", (4,))[2].algebra
    bad = corrupt(corrupt(alg, 21, 22, 0), 22, 21, 0)
    assert check_super_skew(bad).ok
    assert check_super_jacobi(bad).witness == {"i": 4, "j": 21, "k": 22}
    pieces = odd_cube_pieces(bad)
    assert pieces[0][1] == {"kind": "triple", "nodes": [21, 22, 23]}
    assert all(label["kind"] != "cube" for _, label in pieces)
    assert check_odd_cubes(bad) == superalgebra.Report("odd_cubes", False, {"requires": "super_jacobi"})
    assert odd_cube_generators(bad) is None


def test_odd_cubes_require_a_bracket_that_respects_parity():
    """b0 even, b1 and b2 odd at p = 3, with [b0,b1] = -b1, [b1,b2] = -b1
    (odd, so the bracket breaks |[x,y]| = |x| + |y|) and [b2,b2] = -b0: super
    skew and super Jacobi hold and both cube rows are zero, yet
    [x,[x,x]] = b1 for x = b1 + b2.  The report names parity instead of
    passing on the cube rows."""
    alg = ModularSuperAlgebra.from_entries(3, [0, 1, 1], [0, 1, 1, 2, 2], [1, 0, 2, 1, 2], [1, 1, 1, 1, 0],
                                           [2, 1, 2, 2, 2])
    assert check_super_skew(alg).ok and check_super_jacobi(alg).ok
    assert rotation_jacobi_witness(alg.tensor, alg.parity, 3) is None
    eye = np.eye(3, dtype=np.int64)
    assert not any(alg.bracket(eye[a], alg.bracket(eye[a], eye[a])).any() for a in (1, 2))
    x = eye[1] + eye[2]
    assert np.array_equal(alg.bracket(x, alg.bracket(x, x)), eye[1])
    assert check_odd_cubes(alg) == superalgebra.Report("odd_cubes", False, {"requires": "parity"})
    assert odd_cube_generators(alg) is None


def test_skew_and_jacobi_reports_are_kept(monkeypatch):
    alg = without_reports(v.catalog_algebra("g2", 3))
    first = check_super_skew(alg), check_super_jacobi(alg)
    monkeypatch.setattr(superalgebra, "skew_witness", None)
    monkeypatch.setattr(superalgebra, "jacobi_witness", None)
    assert (check_super_skew(alg), check_super_jacobi(alg)) == first
    assert "_reports" not in repr(alg) and alg == without_reports(alg)


def test_tensor_and_parity_are_read_only(free_nilpotent_ss):
    entries = ModularSuperAlgebra.from_entries(3, [0, 1, 1], [1, 0], [0, 1], [2, 2], [1, 2])
    products = ModularSuperAlgebra.from_products(sparse.from_dense(np.eye(9, 3, dtype=np.int64)), 3, [0, 1, 1])
    restored = ModularSuperAlgebra.from_json_dict(free_nilpotent_ss.algebra.to_json_dict())
    for alg in (entries, products, restored):
        for a in (alg.tensor.row, alg.tensor.col, alg.tensor.data, alg.parity):
            with pytest.raises(ValueError):
                a[0] = 1
    parity = np.zeros(3, dtype=np.int64)
    ModularSuperAlgebra.from_entries(3, parity, [], [], [], [])
    parity[0] = 1  # the algebra keeps a copy


def test_center_dimensions(gl33, f4mod3):
    assert center(gl33).dim == 1  # scalar matrices
    assert center(f4mod3).dim == 0
    e6 = v.catalog_algebra("e6", 3)
    assert center(e6).dim == 1


# the table rows whose output has a center, a line each
CENTERED_ROWS = {"e6@e2|p=3", "e6@e1+e2|p=3", "e6@e1+e2+e6|p=3"}


def test_table_output_centers_pinned():
    """The outputs of three e6 rows have a one-dimensional center, every
    other table output none.  For each row certified as a catalog target,
    the center's dimension is n - rank_3(A) of the target's matrix, as for
    g'(A), whose center is the span of the coroot combinations on which
    every simple root vanishes."""
    for spec in TABLE:
        dim = center(spec_pipeline(spec)[2].algebra).dim
        assert dim == (row_key(spec) in CENTERED_ROWS), row_key(spec)
        if spec.route in ("maint", "custom-g36"):
            a = np.array(verify.target_by_name(spec.target).gcm.entries)
            assert dim == len(a) - len(fp.rref(a % 3, 3)[1]), row_key(spec)


def test_derived_subalgebra(gl33, f4mod3):
    assert derived_subalgebra(gl33).dim == 8  # sl_3
    assert derived_subalgebra(f4mod3).dim == 52
    abelian = ModularSuperAlgebra.from_entries(3, np.zeros(4, dtype=np.int64), [], [], [], [])
    assert derived_subalgebra(abelian).dim == 0


def test_generated_subalgebra_basics(gl33):
    eye = np.eye(9, dtype=np.int64)
    assert generated_subalgebra(gl33, eye).dim == 9
    assert generated_subalgebra(gl33, [np.zeros(9, dtype=np.int64)]).dim == 0
    # monotone and idempotent
    small = generated_subalgebra(gl33, [gl33.gens["e1"]])
    bigger = generated_subalgebra(gl33, [gl33.gens["e1"], gl33.gens["f1"]])
    assert not bigger.reduce_rows(small.rows).any()
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
    q = quotient(gl33, Subspace.from_vectors([], 9, 3))
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


def rref_parity_split(alg: ModularSuperAlgebra, sub: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The split `_parity_split` replaced: each homogeneous part of the rows
    checked against the subspace and eliminated again."""
    parts = [sub.rows * (alg.parity == parity) for parity in (0, 1)]
    if sub.reduce_rows(np.vstack(parts)).any():
        raise NotParityHomogeneous("subspace is not a sum of homogeneous parts")
    (ev_mat, ev_piv), (od_mat, od_piv) = (fp.rref(part, alg.p) for part in parts)
    if len(ev_piv) + len(od_piv) != sub.dim:
        raise NotParityHomogeneous("homogeneous parts do not add up")
    return ev_mat[: len(ev_piv)], od_mat[: len(od_piv)]


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), parity=st.lists(st.integers(0, 1), min_size=1, max_size=8),
       homogeneous=st.booleans(), data=st.data())
def test_parity_split_reads_the_echelon_rows(p, parity, homogeneous, data):
    """Splitting the reduced echelon rows by their parity gives the parts that
    eliminating each homogeneous part gave, and raises where that raised."""
    n, parity = len(parity), np.array(parity, dtype=np.int64)
    alg = ModularSuperAlgebra.from_entries(p, parity, [], [], [], [])
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=5))
    vectors = np.array(rows, dtype=np.int64).reshape(-1, n)
    if homogeneous:  # each vector keeps the coordinates of one parity
        keep = data.draw(st.lists(st.integers(0, 1), min_size=len(vectors), max_size=len(vectors)))
        vectors = vectors * (parity == np.array(keep, dtype=np.int64)[:, None])
    sub = Subspace.from_vectors(vectors, n, p)
    try:
        expected = rref_parity_split(alg, sub)
    except NotParityHomogeneous as exc:
        with pytest.raises(NotParityHomogeneous, match=f"^{exc}$"):
            superalgebra._parity_split(alg, sub)
        return
    split = superalgebra._parity_split(alg, sub)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(split, expected, strict=True))


def per_vector_parity(alg: ModularSuperAlgebra, v) -> int:
    """The per-vector rule `parities` replaced: the parity of a homogeneous
    vector, 0 for the zero vector, NotParityHomogeneous for a mixed one."""
    v = fp.normalize(v, alg.p)
    if v[alg.parity == 1].any():
        if v[alg.parity == 0].any():
            raise NotParityHomogeneous("vector mixes parities")
        return 1
    return 0


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), parity=st.lists(st.integers(0, 1), min_size=1, max_size=8), data=st.data())
def test_parities_agree_with_the_per_vector_rule(p, parity, data):
    """`parities` reads each reduced row as the per-vector rule did, with -1
    where that raised: on random rows, a zero row and, when the basis has
    both parities, a row that mixes them."""
    n, parity = len(parity), np.array(parity, dtype=np.int64)
    alg = ModularSuperAlgebra.from_entries(p, parity, [], [], [], [])
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=6))
    rows = np.array(rows + [[0] * n] + ([[1] * n] if 0 < parity.sum() < n else []), dtype=np.int64)
    expected = []
    for row in rows:
        try:
            expected.append(per_vector_parity(alg, row))
        except NotParityHomogeneous:
            expected.append(-1)
    got = alg.parities(rows)
    assert got.dtype == np.int64 and got.tolist() == expected
    assert expected[-1] == (-1 if 0 < parity.sum() < n else 0)


def test_subspace_canonical_equality():
    a = Subspace.from_vectors([[1, 2, 0], [0, 0, 1]], 3, 3)
    b = Subspace.from_vectors([[1, 2, 1], [0, 0, 2]], 3, 3)
    assert a == b
    assert not a.reduce_rows([2, 1, 1]).any()
    assert a.reduce_rows([0, 1, 0]).any()


def test_distinct_spans_of_one_ambient_compare_unequal():
    """Subspaces of one ambient and one p are equal only when their spans
    are: spans of other dimensions, other pivots or other rows differ, and so
    does one span taken at another p."""
    a = Subspace.from_vectors([[1, 2, 0], [0, 0, 1]], 3, 3)
    for other in ([[1, 2, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 0, 1]]):
        assert a != Subspace.from_vectors(other, 3, 3)
    assert a != Subspace.from_vectors([[1, 2, 0], [0, 0, 1]], 3, 5)


def test_gen_subquotient_trivial_on_even(gl33):
    out = gen_subquotient(gl33, [gl33.gens["e1"], gl33.gens["f1"], gl33.gens["h1"]])
    assert superdim(out.algebra) == (3, 0)
    assert sorted(map(tuple, out.generators)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]  # one image row per seed
    assert out.cube_ideal_dim == 0


def test_superdim(gl33):
    assert superdim(gl33) == (9, 0)


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
    i, j, k, c = [0, 2, 1, 1, 2], [2, 0, 1, 2, 1], [2, 2, 0, 0, 0], [1, -1, 2, 2, 2]
    assert alg == ModularSuperAlgebra.from_entries(3, [0, 1, 1], i, j, k, c)
    written = alg.to_json_dict()
    assert written["constants"] == [[0, 2, 2, 1], [1, 1, 0, 2], [1, 2, 0, 2]]
    assert ModularSuperAlgebra.from_json_dict(written).to_json_dict() == written
    big = {**data, "constants": [[0, 2, 2, 1 + 3 * 2**70]]}  # reduced exactly, beyond int64
    assert ModularSuperAlgebra.from_json_dict(big).constants == {(0, 2): {2: 1}, (2, 0): {2: 2}}


@pytest.mark.parametrize("quad", [[0, 0, 2, 1], [0, 1, 2, 1], [0, -1, 1, 1], [-1, 0, 1, 1], [0, 1, -1, 1],
                                  [0, 2**70, 1, 1]])
def test_out_of_range_constant_index_is_rejected(quad):
    """An index outside [0, dim) is an error, not a constant at another
    position: C(0, 0, 2) at dim 2 would land at column 2*2+0, in the row of
    [b_1, b_0], and a negative index would count from the end."""
    data = {"p": 3, "dim": 2, "parity": [1, 1], "labels": None, "constants": [quad]}
    with pytest.raises(ValueError, match="outside"):
        ModularSuperAlgebra.from_json_dict(data)
    with pytest.raises(ValueError, match="outside"):
        ModularSuperAlgebra.from_entries(3, [1, 1], *np.transpose([quad]))


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
    assert isinstance(got, sparse.Coo) and got.shape == (m * n, alg.dim)
    expected = [alg.bracket(u[a], w[b]) for a in range(m) for b in range(n)]
    assert np.array_equal(got.toarray(), np.array(expected, dtype=np.int64).reshape(m * n, alg.dim))


SMALL_SAMPLE = [("g2", 5, "e1"), ("f4", 7, "e1+e2"), ("a5", 3, "e2"), ("b4", 5, "e2"), ("c4", 7, "e1+e2"),
                ("gl3", 3, "e2"), ("sl4", 5, "e2"), ("d4", 3, "e1")]


def recording_from_products(monkeypatch, change=None):
    """Record the arguments of every from_products call, after `change`
    (if given) has replaced the products."""
    calls = []
    original = ModularSuperAlgebra.from_products

    def from_products(cls, products, p, parity, labels=None):
        products = change(products, len(parity), p) if change else products
        calls.append((products, p, parity))
        return original(products, p, parity, labels)

    monkeypatch.setattr(ModularSuperAlgebra, "from_products", classmethod(from_products))
    return calls


def test_grouped_constants_match_the_entry_loop(monkeypatch):
    """On every table output and a sample of small semisimplify calls, the
    tensor from_products re-keys out of the sorted products equals the one
    from_entries sums from the same entries."""
    calls = recording_from_products(monkeypatch)
    inputs = [(s.algebra, s.p, s.elements[0], s.subset) for s in TABLE] + [(*x, None) for x in SMALL_SAMPLE]
    for name, p, element, subset in inputs:
        realization, decomp, _ = structured_pipeline(name, p, element, subset)
        out = v.semisimplify(realization, decomp).algebra
        products, q, parity = calls[-1]
        assert q == p and np.array_equal(parity, out.parity) and out.tensor.nnz
        a, b = np.divmod(products.row, out.dim)
        expected = ModularSuperAlgebra.from_entries(p, parity, a, b, products.col, products.data)
        assert out.tensor == expected.tensor, (name, p, element)


def test_semisimplify_checks_the_constants_it_publishes(monkeypatch):
    """The skew and Jacobi checks read the output's tensor, which is the one
    its JSON is written from: one wrong product handed to from_products fails
    them."""

    def one_wrong(products, n, p):
        a, b = np.divmod(products.row, n)
        data = products.data.copy()
        e = int(np.flatnonzero(a != b)[0])
        data[e] = data[e] % (p - 1) + 1  # another nonzero residue
        return sparse.Coo(products.row, products.col, data, products.shape)

    realization, decomp, _ = row_pipeline("g2", 5, "e1")
    recording_from_products(monkeypatch, one_wrong)
    with pytest.raises(JacobiViolation, match="super skew"):
        v.semisimplify(realization, decomp)
