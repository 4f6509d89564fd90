"""The sparse kernel against scipy.sparse, which stays a test-only oracle, and
against dense numpy arithmetic."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import verlie as v
from tests.test_fp import largest_accepted_prime, realized_with_degree
from verlie import sparse
from verlie.repalpha import block_counts, jordan_decompose, realize
from verlie.superalgebra import ModularSuperAlgebra

PRIMES = st.sampled_from([3, 5, 7, "largest"])


def modulus(p, dim: int) -> int:
    """p, or for "largest" the largest prime fp.check_modulus admits for dim:
    the edge where an unreduced sum would overflow int64."""
    return largest_accepted_prime(max(dim, 1)) if p == "largest" else p


def operand(rng, rows: int, cols: int, p: int, density: float) -> np.ndarray:
    """Reduced random entries, with every third row (about) all zero."""
    m = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    m[rng.random(rows) < 0.3] = 0
    return m


def scipy_brackets(alg: ModularSuperAlgebra, u, w) -> np.ndarray:
    """The scipy two-product form of ModularSuperAlgebra.brackets."""
    d, p = alg.dim, alg.p
    quads = [(i, k * d + j, c) for (i, j), comps in alg.constants.items() for k, c in comps.items()]
    i, col, c = np.array(quads, dtype=np.int64).reshape(-1, 3).T
    tensor = sp.csr_matrix((c, (i, col)), shape=(d, d * d), dtype=np.int64)
    left = (sp.csr_matrix(u) @ tensor).tocoo()
    row, col = left.row.astype(np.int64), left.col.astype(np.int64)
    left = sp.csr_matrix((left.data % p, (row * d + col // d, col % d)), shape=(len(u) * d, d))
    out = (left @ sp.csr_matrix(w).T).tocoo()
    a, k = np.divmod(out.row.astype(np.int64), d)
    return sp.csr_matrix((out.data % p, (a * len(w) + out.col, k)), shape=(len(u) * len(w), d)).toarray()


@settings(max_examples=80, deadline=None)
@given(p=PRIMES, m=st.integers(0, 6), k=st.integers(0, 8), n=st.integers(0, 6),
       density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_product_and_dense_product_match_scipy(p, m, k, n, density, seed):
    p = modulus(p, k)
    rng = np.random.default_rng(seed)
    a, b, c = operand(rng, m, k, p, density), operand(rng, k, n, p, density), operand(rng, k, 3, p, density)
    got = sparse.product(sparse.from_dense(a), sparse.from_dense(b), p)
    expected = (sp.csr_matrix(a) @ sp.csr_matrix(b)).toarray() % p
    assert got.shape == (m, n) and got == sparse.from_dense(expected)
    assert np.array_equal(got.toarray(), expected)
    assert np.array_equal(sparse.from_dense(a).dot(c), sp.csr_matrix(a) @ c)  # exact, unreduced
    assert np.array_equal(sparse.from_dense(a).dot(c[:, 0]), sp.csr_matrix(a) @ c[:, 0])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["gl3", "g2", "sl4"]), p=PRIMES, m=st.integers(0, 4), n=st.integers(0, 4),
       density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_brackets_match_scipy(name, p, m, n, density, seed):
    if p == "largest":
        name, p = "gl3", largest_accepted_prime(9)
    alg = v.catalog_algebra(name, p)
    rng = np.random.default_rng(seed)
    u, w = operand(rng, m, alg.dim, p, density), operand(rng, n, alg.dim, p, density)
    got = alg.brackets(u, w)
    assert got.shape == (m * n, alg.dim)
    assert np.array_equal(got.toarray(), scipy_brackets(alg, u, w))
    assert alg.brackets(sparse.from_dense(u), sparse.from_dense(w)) == got


@settings(max_examples=60, deadline=None)
@given(p=PRIMES, n=st.integers(0, 9), k=st.integers(0, 6), density=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_powers_match_scipy(p, n, k, density, seed):
    """A realization's degree is the first power of D that scipy's sparse
    products send to zero, up to the largest accepted p; a D with D^p != 0
    raises what those powers predict.  For m and for its part below the
    k-th subdiagonal, which is nilpotent."""
    p = modulus(p, n)
    m = operand(np.random.default_rng(seed), n, n, p, density)
    for der in (m, np.tril(m, -max(k, 1))):
        power, first = sp.csr_matrix(der), None
        for j in range(1, max(n, 1) + 1):  # a nilpotent D has D^n = 0
            if not power.count_nonzero():
                first = j
                break
            power = sp.csr_matrix((power @ sp.csr_matrix(der)).toarray() % p)
        realized_with_degree(der, p, first)


def test_brackets_on_a_zero_dimensional_algebra():
    alg = ModularSuperAlgebra.from_entries(3, np.zeros(0, dtype=np.int64), [], [], [], [])
    got = alg.brackets(np.zeros((2, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64))
    assert got.shape == (6, 0) and got.nnz == 0
    assert alg.ad(np.zeros(0, dtype=np.int64)).shape == (0, 0)
    r = realize(alg, np.zeros(0, dtype=np.int64))
    assert r.der.shape == (0, 0) and r.degree == 1
    decomp = jordan_decompose(r)
    assert decomp.basis.shape == (0, 0) and not decomp.chains and block_counts(decomp) == (0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6), density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_row_operations_match_dense(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    a, b = operand(rng, rows, cols, 7, density), operand(rng, rows, cols, 7, density)
    m = sparse.from_dense(a)
    assert np.array_equal(m.toarray(), a) and m.transpose() == sparse.from_dense(a.T)
    assert np.array_equal(m.nonzero_rows(), a[a.any(axis=1)])
    picks = rng.integers(0, max(rows, 1), size=5) if rows else np.zeros(0, dtype=np.int64)
    assert m.take_rows(picks) == sparse.from_dense(a[picks])
    scale = rng.integers(-7, 7, size=rows)
    assert m.scale_rows(scale, 7) == sparse.from_dense(scale[:, None] * a % 7)
    assert sparse.vstack([m, sparse.from_dense(b)]) == sparse.from_dense(np.vstack([a, b]))
    assert sparse.combine([(2, m), (-1, sparse.from_dense(b))], 7) == sparse.from_dense((2 * a - b) % 7)
    r, c = np.nonzero(np.ones((rows, cols)))
    assert sparse.from_entries(np.tile(r, 2), np.tile(c, 2), np.concatenate([a[r, c], b[r, c]]),
                               (rows, cols), 7) == sparse.from_dense((a + b) % 7)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 300), span=st.sampled_from([1, 50, 10**4, 10**12]), run=st.sampled_from([1, 40]),
       p=st.sampled_from([None, 3]), seed=st.integers(0, 2**32 - 1))
def test_sum_by_key_matches_a_dict(n, span, run, p, seed):
    """Keys over dense or sparse ranges, in ascending runs or scattered,
    sum as a dict sums them."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, span, size=(n + run - 1) // run * run).reshape(-1, run), axis=1).ravel()[:n]
    vals = rng.integers(-5, 6, size=len(keys))
    sums = {}
    for key, val in zip(keys.tolist(), vals.tolist()):
        sums[key] = sums.get(key, 0) + val
    expected = sorted((k, c if p is None else c % p) for k, c in sums.items() if (c if p is None else c % p))
    got_keys, got_vals = sparse.sum_by_key(keys, vals, p)
    assert list(zip(got_keys.tolist(), got_vals.tolist())) == expected


def test_contract_in_chunks_matches_one_pass(monkeypatch):
    """A product expanded a few rows at a time equals the one-pass product."""
    alg = v.catalog_algebra("f4", 5)
    u = operand(np.random.default_rng(1), 12, alg.dim, 5, 0.5)
    whole = alg.brackets(u, u)
    monkeypatch.setattr(sparse, "_CHUNK", 64)
    assert alg.brackets(u, u) == whole


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, verlie; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
