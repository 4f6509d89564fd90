import itertools
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from verlie import fp, sparse
from verlie.errors import BadModulus, DegreeExceedsP, NotNilpotent
from verlie.repalpha import realize_derivation
from verlie.superalgebra import ModularSuperAlgebra


def rank(m, p) -> int:
    return len(fp.rref(m, p)[1])


def brute_rank(m, p):
    """Independent oracle: |image| = p^rank, by enumerating all inputs."""
    m = np.asarray(m) % p
    rows, cols = m.shape
    images = {tuple((m @ np.array(x)) % p) for x in itertools.product(range(p), repeat=cols)}
    rank = 0
    while p**rank < len(images):
        rank += 1
    assert p**rank == len(images)
    return rank


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 3), dtype=np.int64), 3) == 0


def test_rank_identity():
    assert rank(np.eye(5, dtype=np.int64), 5) == 5


def test_rank_dependent_rows_mod5():
    m = [[1, 2], [2, 4]]
    assert rank(m, 5) == 1
    assert brute_rank(m, 5) == 1


def test_kernel_identity_empty():
    assert fp.kernel_basis(np.eye(4, dtype=np.int64), 3).shape == (0, 4)


def test_kernel_zero_row():
    basis = fp.kernel_basis(np.zeros((1, 3), dtype=np.int64), 3)
    assert basis.shape == (3, 3)
    assert rank(basis, 3) == 3


def test_kernel_proportional_vector():
    m = np.array([[1, 1], [2, 2]])
    basis = fp.kernel_basis(m, 3)
    assert basis.shape == (1, 2)
    # exhaustive oracle over all 9 vectors of F_3^2
    kernel = [x for x in itertools.product(range(3), repeat=2) if not ((m @ np.array(x)) % 3).any()]
    assert len(kernel) == 3  # 0 and two multiples of (1, -1)
    assert tuple(basis[0]) in kernel
    assert (basis[0][0] - (-basis[0][1])) % 3 == 0  # proportional to (1, -1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_plus_kernel_is_cols(p):
    rng = np.random.default_rng(12345 + p)
    for _ in range(25):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(0, p, size=(rows, cols))
        assert rank(m, p) + len(fp.kernel_basis(m, p)) == cols
        for row in fp.kernel_basis(m, p):
            assert not ((m @ row) % p).any()


def test_inverse_roundtrip():
    rng = np.random.default_rng(7)
    for p in (3, 5):
        while True:
            m = rng.integers(0, p, size=(6, 6))
            if rank(m, p) == 6:
                break
        inv = fp.inverse(m, p)
        assert np.array_equal((m @ inv) % p, np.eye(6, dtype=np.int64))


def realize_in_abelian(m, p):
    """Realize m as a derivation of the abelian algebra of its size, where
    every matrix is one."""
    n = len(m)
    return realize_derivation(ModularSuperAlgebra.from_entries(p, np.zeros(n, dtype=np.int64), [], [], [], []), m)


def test_nilpotency_zero_matrix():
    assert realize_in_abelian(np.zeros((4, 4), dtype=np.int64), 3).degree == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_nilpotency_jordan_block(n):
    block = np.diag(np.ones(n - 1, dtype=np.int64), k=-1) if n > 1 else np.zeros((1, 1), dtype=np.int64)
    if n <= 5:
        assert realize_in_abelian(block, 5).degree == n
    else:
        with pytest.raises(DegreeExceedsP):
            realize_in_abelian(block, 5)


def test_nilpotency_rejects_invertible():
    with pytest.raises(NotNilpotent):
        realize_in_abelian(np.eye(3, dtype=np.int64), 3)


def test_realized_degree_contract():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        strict = np.triu(rng.integers(0, 3, size=(n, n)), k=1)
        k = next(k for k in range(1, n + 1) if not (np.linalg.matrix_power(strict, k) % 3).any())
        if k <= 3:
            assert realize_in_abelian(strict, 3).degree == k
        else:
            with pytest.raises(DegreeExceedsP):
                realize_in_abelian(strict, 3)


def test_nilpotency_g2_adjoint_of_long_root_generator():
    import verlie as v

    alg = v.catalog_algebra("g2", 3)
    _, vec = v.parse_element("e2", alg)
    assert v.realize(alg, vec).degree == 3


def test_rref_deterministic():
    m = np.array([[0, 2, 1], [1, 1, 1], [2, 0, 1]])
    r1, piv1 = fp.rref(m, 3)
    r2, piv2 = fp.rref(m, 3)
    assert np.array_equal(r1, r2) and piv1 == piv2


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    n=st.integers(0, 9),
    k=st.integers(0, 8),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_powers_match_repeated_dense_products(p, n, k, density, seed):
    """A realization holds D reduced mod p as one sparse int64 matrix, and
    its degree, or the error it raises, is what repeated dense products
    predict; for m and for its part below the k-th subdiagonal, which is
    nilpotent."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-2 * p, 2 * p, size=(n, n)) * (rng.random((n, n)) < density)
    for der in (m, np.tril(m, -max(k, 1))):
        r = realized_with_degree(der, p, dense_degree(der % p, p))
        if r is not None:
            assert isinstance(r.der, sparse.Coo) and r.der.data.dtype == np.int64
            assert np.array_equal(r.der.toarray(), der % p)


def dense_degree(m, p: int) -> int | None:
    """The first k >= 1 with m^k = 0 mod p by repeated dense products, or
    None when m is not nilpotent (m^dim != 0)."""
    power = np.eye(len(m), dtype=np.int64)
    for k in range(1, max(len(m), 1) + 1):
        power = power @ m % p
        if not power.any():
            return k
    return None


def realized_with_degree(m, p: int, k: int | None):
    """realize_in_abelian(m, p), asserted to hold the degree k, the first
    power of m that is zero mod p, when k <= p; for a larger k, or None (m
    not nilpotent), asserts that it raises the error k predicts, and
    returns None."""
    if k is None:
        with pytest.raises(NotNilpotent, match="not nilpotent"):
            realize_in_abelian(m, p)
    elif k > p:
        with pytest.raises(DegreeExceedsP, match=f"degree > {p}"):
            realize_in_abelian(m, p)
    else:
        r = realize_in_abelian(m, p)
        assert r.degree == k
        return r
    return None


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def largest_accepted_prime(dim: int) -> int:
    """Largest prime p with dim·(p−1)² < 2^50."""
    p = isqrt(((1 << 50) - 1) // dim) + 1
    while not is_prime(p):
        p -= 1
    return p


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("dim", [1, 3, 248])
def test_check_modulus_accumulation_bound(dim):
    p = largest_accepted_prime(dim)
    fp.check_modulus(p, dim)
    with pytest.raises(BadModulus, match="too large"):
        fp.check_modulus(next_prime(p), dim)
    with pytest.raises(BadModulus, match="too large"):
        fp.check_modulus(4294967311, dim)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_matmul_matches_int64_product(p):
    rng = np.random.default_rng(p)
    for rows, inner, cols in [(1, 1, 1), (7, 13, 5), (40, 248, 30), (0, 4, 3), (3, 0, 2)]:
        a, b = rng.integers(0, p, size=(rows, inner)), rng.integers(0, p, size=(inner, cols))
        out = fp.matmul(a, b, p)
        assert out.dtype == np.int64 and np.array_equal(out, a @ b % p)
        v = rng.integers(0, p, size=rows)  # a vector on the left, as in Subspace.reduce
        assert np.array_equal(fp.matmul(v, a, p), v @ a % p)


@pytest.mark.parametrize("inner", [1, 3, 248])
def test_matmul_exact_up_to_its_bound(inner):
    """All entries p−1 at the largest p with inner·(p−1)² < 2^50: every sum
    is exact; at the next prime the product is refused."""
    p = largest_accepted_prime(inner)
    a, b = np.full((2, inner), p - 1, dtype=np.int64), np.full((inner, 3), p - 1, dtype=np.int64)
    assert np.array_equal(fp.matmul(a, b, p), a @ b % p)
    assert fp.matmul(a, b, p)[0, 0] == inner * (p - 1) ** 2 % p
    with pytest.raises(BadModulus, match="too large"):
        fp.matmul(a, b, next_prime(p))


def test_inverse_exact_at_largest_accepted_prime():
    p = largest_accepted_prime(3)
    rng = np.random.default_rng(5)
    m = rng.integers(0, p, size=(3, 3))
    inv = fp.inverse(m, p)
    product = [[sum(int(m[i, k]) * int(inv[k, j]) for k in range(3)) % p for j in range(3)] for i in range(3)]
    assert product == np.eye(3, dtype=int).tolist()


# -- oracles: sympy's DomainMatrix over GF(p) -------------------------------------


def _gf(m, p: int) -> DomainMatrix:
    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in np.asarray(m).tolist()], np.shape(m), field)


def _ints(dm: DomainMatrix, p: int) -> np.ndarray:
    return np.array([[int(x) % p for x in row] for row in dm.to_list()], dtype=np.int64).reshape(dm.shape)


@st.composite
def gf_matrices(draw, square: bool = False):
    """(m, p): a small random matrix at p = 3, 5, 7 or at the largest prime
    the accumulation bound accepts for its size, often rank-deficient (a
    product through `inner` columns, with entries masked to zero)."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    p = draw(st.sampled_from([3, 5, 7, None])) or largest_accepted_prime(max(rows, cols))
    inner = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, p, size=(rows, inner))
    right = rng.integers(0, p, size=(inner, cols))
    m = (left @ right % p) * (rng.random((rows, cols)) < draw(st.floats(0.3, 1)))
    return m, p


@settings(max_examples=80, deadline=None)
@given(gf_matrices())
def test_rref_and_rank_match_sympy(case):
    m, p = case
    expected, pivots = _gf(m, p).rref()
    got, got_pivots = fp.rref(m, p)
    assert got_pivots == list(pivots)
    assert np.array_equal(got, _ints(expected, p))
    assert rank(m, p) == _gf(m, p).rank()


@settings(max_examples=80, deadline=None)
@given(gf_matrices())
def test_kernel_basis_spans_sympy_nullspace(case):
    m, p = case
    basis = fp.kernel_basis(m, p)
    nullspace = _gf(m, p).nullspace()
    assert basis.shape == (nullspace.shape[0], m.shape[1])
    if len(basis):
        assert np.array_equal(_ints(_gf(basis, p).rref()[0], p), _ints(nullspace.rref()[0], p))


@settings(max_examples=80, deadline=None)
@given(gf_matrices(square=True))
def test_inverse_matches_sympy(case):
    m, p = case
    if _gf(m, p).rank() < len(m):
        with pytest.raises(ValueError, match="singular"):
            fp.inverse(m, p)
    else:
        assert np.array_equal(fp.inverse(m, p), _ints(_gf(m, p).inv(), p))


@st.composite
def gf_stacks(draw):
    """(stack, p): a (blocks, rows, cols) stack of random matrices, each drawn
    at its own size and zero-padded to the stack's shape, some all zero, at
    p = 3, 5, 7 or the largest prime the accumulation bound accepts."""
    count, rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    p = draw(st.sampled_from([3, 5, 7, None])) or largest_accepted_prime(max(rows, cols, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((count, rows, cols), dtype=np.int64)
    for block in range(count):
        if rng.random() < 0.2:
            continue
        r, c = rng.integers(0, rows + 1), rng.integers(0, cols + 1)
        inner = rng.integers(1, 7)
        m = rng.integers(0, p, size=(r, inner)) @ rng.integers(0, p, size=(inner, c)) % p
        stack[block, :r, :c] = m * (rng.random((r, c)) < rng.uniform(0.3, 1))
    return stack, p


@settings(max_examples=100, deadline=None)
@given(gf_stacks())
def test_rref_batch_slices_match_rref(case):
    stack, p = case
    rows, pivots = fp.rref_batch(stack, p)
    assert rows.shape == stack.shape and pivots.shape == stack.shape[:2]
    for block, m in enumerate(stack):
        expected, expected_pivots = fp.rref(m, p)
        assert np.array_equal(rows[block], expected)
        assert pivots[block].tolist() == expected_pivots + [-1] * (len(m) - len(expected_pivots))


@settings(max_examples=100, deadline=None)
@given(gf_stacks(), st.booleans(), st.integers(0, 2**32 - 1))
def test_independent_rows_matches_the_rank(case, drop_zero_rows, seed):
    """The matrices of a stack, some repeated, put on the diagonal of one
    matrix, its zero rows dropped or kept, and its rows and columns
    permuted: the rows are independent exactly when its rank is its row
    count."""
    stack, p = case
    rng = np.random.default_rng(seed)
    stack = stack[rng.integers(0, len(stack), 2 * len(stack))]
    count, rows, cols = stack.shape
    m = np.zeros((count * rows, count * cols), dtype=np.int64)
    for b, block in enumerate(stack):
        m[b * rows : (b + 1) * rows, b * cols : (b + 1) * cols] = block
    if drop_zero_rows:
        m = m[m.any(axis=1)]
    m = m[rng.permutation(len(m))][:, rng.permutation(m.shape[1])]
    assert fp.independent_rows(sparse.from_dense(m), p) == (rank(m, p) == len(m))


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_unique_rows_of_zero_width(rows):
    """Rows of no entries are all the one empty row."""
    first, kind = fp.unique_rows(np.zeros((rows, 0), dtype=np.int64))
    assert first.tolist() == [0] * (rows > 0) and kind.tolist() == [0] * rows
