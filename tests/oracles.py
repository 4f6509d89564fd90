"""Reference constructions that only the tests call."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, product

import numpy as np

from verlie import fp, sparse
from verlie.chevalley import _exact_div, integral_catalog, reduce_mod_p
from verlie.roots import Root
from verlie.superalgebra import Constants, ModularSuperAlgebra, Subspace


def tensor_coo(constants: Constants, dim: int, p: int | None) -> sparse.Coo:
    """The tensor of a constants dict, as a (dim, dim*dim) sparse matrix
    L[i, k*dim+j] = C(i,j,k), reduced mod p (exact over Z if p is None)."""
    entries = [(i, k * dim + j, c) for (i, j), comps in constants.items() for k, c in comps.items()]
    return sparse.from_entries(*np.array(entries, dtype=np.int64).reshape(-1, 3).T, (dim, dim * dim), p)


def block_stack(ms, row_blocks: np.ndarray, col_blocks: np.ndarray) -> np.ndarray:
    """The diagonal blocks of the matrices ms as one zero-padded
    (len(ms)*blocks, rows, cols) stack, matrix-major: slice k*blocks + b holds
    the rows and columns of block b of ms[k], in their order in ms[k].
    Raises unless every nonzero joins a row and a column of one block."""
    count = int(max(row_blocks.max(initial=-1), col_blocks.max(initial=-1))) + 1
    row_slots, col_slots = fp.slots(row_blocks, count), fp.slots(col_blocks, count)
    out = np.zeros((len(ms) * count, np.bincount(row_blocks, minlength=1).max(),
                    np.bincount(col_blocks, minlength=1).max()), dtype=np.int64)
    for k, m in enumerate(ms):
        row, col, data = fp._entries(m)
        block = row_blocks[row]
        if not np.array_equal(block, col_blocks[col]):
            raise ValueError("matrix is not block diagonal in the given blocks")
        out[k * count + block, row_slots[row], col_slots[col]] = data
    return out


# The head pick that pads every D-stable block to the largest one and
# eliminates each block whole, repeats included: the reference that
# repalpha._heads, which eliminates each distinct level part once, must match.


def padded_power_blocks(powers: list[sparse.Coo]) -> tuple[np.ndarray, np.ndarray]:
    """The D-stable blocks of the powers [I, D, D^2, ...]: the components of
    the graph of D + D^T, in which every power is block diagonal.  Returns
    the block of each coordinate and the stack of the diagonal blocks of
    powers[1:], power-major."""
    blocks = fp.components(powers[1])
    return blocks, block_stack(powers[1:], blocks, blocks)


def padded_heads(powers: list[sparse.Coo], p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Deterministic head pick: for lengths l = p down to 1, heads are a
    complement of (ker D^{l-1} + im D) inside ker D^l, picked by echelon order.
    Returns the heads as the columns of a (dim, chains) array, their chain
    lengths, and the ranks [r_0, ..., r_{p+1}] of the powers of D.

    The candidates are the fp.kernel_basis rows of D^l (row f has a 1 at the
    free column f and zeros at the other free columns), and one heads a chain
    when it is independent of that subspace and of the candidates before it.
    Inside ker D^l the subspace is W = ker D^{l-1} + D ker D^{l+1}, and a
    vector of ker D^l is fixed by its free coordinates; so the candidate at f
    is picked exactly when no vector of W ends at f (is nonzero at f and at no
    later free column), that is, when f is not a pivot of W's free
    coordinates eliminated right to left.

    Every power of D is block diagonal in the D-stable blocks, so all of this
    splits by block: one elimination gives the kernels (and the ranks) of
    every power in every block, one more the ends of every W.  Heads are
    ordered longest chain first, then by their free coordinate, as the global
    kernel basis orders them.
    """
    dim = powers[0].shape[0]
    if dim == 0:
        return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), [0] * (p + 2)
    beyond = sparse.product(powers[-1], powers[1], p)  # D^{p+1}, zero when D^p = 0
    blocks, stack = padded_power_blocks([*powers, beyond])
    coords = fp.block_table(blocks)
    count, size = coords.shape
    # kernel rows of every block of D^1..D^{p+1}: row f has a 1 at free slot f
    rows, pivots = fp.rref_batch(stack, p)
    ranks = [dim] + (pivots >= 0).reshape(p + 1, -1).sum(axis=1).tolist()
    free = np.tile(coords >= 0, (p + 1, 1))
    at, rank = np.nonzero(pivots >= 0)
    free[at, pivots[at, rank]] = False
    kernels = np.zeros_like(rows)
    kernels[at, :, pivots[at, rank]] = -rows[at, rank] % p
    kernels *= free[:, :, None]
    kernels[:, np.arange(size), np.arange(size)] = free
    del rows  # the elimination arrays are freed once used: together they set the peak memory here
    kernels = np.concatenate([np.zeros((count, size, size), dtype=np.int64), kernels]).reshape(p + 2, count, size, size)
    free = np.concatenate([np.zeros((count, size), dtype=bool), free]).reshape(p + 2, count, size)
    # W for l = 1..p on the free coordinates of D^l, columns reversed
    images = kernels[2:] @ stack[:count].transpose(0, 2, 1) % p  # rows D x for x in ker D^{l+1}
    del stack
    spans = np.concatenate([kernels[:p], images], axis=2) * free[1 : p + 1, :, None, :]
    del images
    _, ends = fp.rref_batch(spans[..., ::-1].reshape(p * count, 2 * size, size), p)
    picked = free[1 : p + 1].reshape(p * count, size).copy()
    at, rank = np.nonzero(ends >= 0)
    picked[at, size - 1 - ends[at, rank]] = False
    # the heads, longest chain first, one column each
    shorter, block, slot = np.nonzero(picked.reshape(p, count, size)[::-1])
    order = np.lexsort((coords[block, slot], shorter))
    lengths, block, slot = p - shorter[order], block[order], slot[order]
    local, where = kernels[lengths, block, slot], coords[block]
    heads = np.zeros((dim, len(lengths)), dtype=np.int64)
    row, col = np.nonzero(where >= 0)
    heads[where[row, col], row] = local[row, col]
    return heads, lengths, ranks


def chain_orbits(der: sparse.Coo, heads, lengths, p: int) -> np.ndarray:
    """The chains headed by the columns of heads, as the rows of one
    (sum(lengths), dim) array: chain a fills lengths[a] rows with D^t
    heads[:, a], t = 0, 1, ..., reduced mod p for t > 0, D applied to the
    dense heads one power at a time: the reference for the chains that
    repalpha._heads builds from the level parts of the powers of D."""
    lengths = np.asarray(lengths, dtype=np.int64)
    dim = der.shape[0]
    level = np.asarray(heads, dtype=np.int64).reshape(dim, len(lengths))  # column a: D^t of head a
    offsets = np.cumsum(lengths) - lengths
    out = np.empty((int(lengths.sum()), dim), dtype=np.int64)
    for t in range(int(lengths.max(initial=0))):
        if t:
            level = der.dot(level[:, : np.count_nonzero(lengths > t)]) % p
        out[offsets[: level.shape[1]] + t] = level.T
    return out


# The chain check that stacks the chain vectors densely, multiplies them by D
# densely and inverts every block of the basis matrix, repeats included: the
# reference that ChainDecomposition.validate, which works on the sparse
# entries of the chains and decides the basis by their tails, must match.


def dense_chain_check(chains, der: sparse.Coo, p: int) -> tuple:
    """D maps every vector of the chains (a list of JordanChain) to the next
    one and the tail to zero, checked for all vectors in one product; the
    vectors form a basis, checked one block of the basis matrix at a time.
    Returns the inverse of the basis matrix by blocks: the stack of block
    inverses, the coordinates of each block, and the block and slot of each
    basis column."""
    dim = der.shape[0]
    for chain in chains:
        if not 1 <= chain.length <= p:
            raise ValueError(f"chain length {chain.length} outside 1..p")
    total = sum(chain.length for chain in chains)
    if total != dim:
        raise ValueError(f"chain lengths sum to {total}, dim is {dim}")
    if not total:
        empty = np.zeros(0, dtype=np.int64)
        return empty.reshape(0, 0, 0), empty.reshape(0, 0), empty, empty
    vectors = np.vstack([chain.vectors for chain in chains])  # row k: basis column k
    tails = np.cumsum([chain.length for chain in chains]) - 1
    shifted = np.zeros_like(vectors)
    shifted[:-1] = vectors[1:]
    shifted[tails] = 0  # D kills the tail
    images = der.dot(vectors.T).T % p
    wrong = np.flatnonzero((images != shifted).any(axis=1))
    if wrong.size and wrong[0] in tails:
        raise ValueError("chain does not terminate")
    if wrong.size:
        raise ValueError("chain is not a D-orbit")
    # the basis matrix is invertible exactly when every block of its own
    # row/column graph is square and invertible, whatever the chains are
    col, row = np.nonzero(vectors)
    graph = sparse.from_entries(row, dim + col, np.ones(len(row)), (2 * dim,) * 2)
    blocks = fp.components(graph)
    rows, cols = blocks[:dim], blocks[dim:]
    count = int(blocks.max()) + 1
    sizes = np.bincount(cols, minlength=count)
    inverses = None
    if np.array_equal(np.bincount(rows, minlength=count), sizes):
        inverses = fp.inverse_batch(block_stack([vectors.T], rows, cols), sizes, p)
    if inverses is None:
        raise ValueError("chain vectors are not a basis")
    return inverses, fp.block_table(rows), cols, fp.slots(cols, count)




# The semisimplified bracket at any odd p, transcribed one left factor at a
# time with the three parity cases spelled out: the reference that
# semisimplify, which projects the brackets of all heads and the splitting
# products at once, must match.


def sparse_ads(alg, vectors) -> list[sparse.Coo]:
    """alg.sparse_ad of each row of vectors, from one sparse product of the
    rows with the tensor: row r, column k*dim+j holds [v_r, b_j]_k."""
    dim = alg.dim
    flat = sparse.product(sparse.from_dense(vectors), alg.tensor, alg.p)
    starts = np.searchsorted(flat.row, np.arange(len(vectors) + 1)).tolist()
    return [sparse.from_keys(flat.col[s:e], flat.data[s:e], (dim, dim)) for s, e in zip(starts[:-1], starts[1:])]


def pairing_vector(alg, left, right) -> np.ndarray:
    """The splitting sum sum_{t=1}^{p-1} (-1)^t [left^(t-1), right^(p-1-t)]
    of two length-(p-1) chains, computed in alg.  left holds one chain's
    vectors as rows; right holds one chain, (p-1, dim), or a stack of them,
    (chains, p-1, dim), with one sum per chain."""
    p = alg.p
    if len(left) != p - 1 or right.shape[-2] != p - 1:
        raise ValueError("pairing needs two chains of length p-1")
    ads = sparse_ads(alg, left)
    return sum((-1) ** t * ads[t - 1].dot(right[..., p - 1 - t, :].T).T for t in range(1, p)) % p


def literal_reference(realization, decomp) -> ModularSuperAlgebra:
    """The projected bracket on the survivors of decomp, the length-1 chains
    (even) and then the length-(p-1) chains (odd), in chain order.  A
    survivor's coordinate of a vector is its coordinate at the survivor's
    head v^0 over the chain basis, read off the dense inverse of the basis
    matrix.  Survivor a's chain is v_a^0, v_a^1, ...; and [y_a, y_b] is
      - both even: the even coordinates of [v_a^0, v_b^0];
      - one even, one odd: the odd coordinates of [v_a^0, v_b^0];
      - both odd: the even coordinates of the splitting vector
        sum_{t=1}^{p-1} (-1)^t [v_a^(t-1), v_b^(p-1-t)] (pairing_vector).
    One left factor a at a time, the sparse ad of each of a's chain vectors
    is applied to all right factors at once."""
    alg = realization.algebra
    p = alg.p
    decomp.validate(realization.der)
    lengths, offsets = decomp.lengths, decomp.chain_offsets()
    even, odd = np.flatnonzero(lengths == 1), np.flatnonzero(lengths == p - 1)
    order = np.concatenate([even, odd])
    n1, m = len(even), len(order)
    # column k: the coordinate at survivor k's head, a row of the inverse basis matrix
    coords = fp.inverse(decomp.basis.T, p)[offsets[order]].T
    heads = decomp.basis[offsets[order]]  # row k: the head v_k^0
    odd_chains = decomp.basis[offsets[odd, None] + np.arange(p - 1)]  # (odd chains, p-1, dim)
    entries = [np.zeros((4, 0), dtype=np.int64)]  # rows a, b, k, c; one block per left factor a
    for a, head_ad in enumerate(sparse_ads(alg, heads)):
        images = head_ad.dot(heads.T).T  # row b: [v_a^0, v_b^0]
        if a >= n1:  # rows m..: the splitting vectors of a with each odd b
            images = np.vstack([images, pairing_vector(alg, odd_chains[a - n1], odd_chains)])
        values = sparse.from_dense(images % p).dot(coords) % p  # [b, k]: coordinate of image b at head k
        out = np.zeros((m, m), dtype=np.int64)  # [b, k]: coefficient of y_k in [y_a, y_b]
        if a < n1:
            out[:n1, :n1] = values[:n1, :n1]  # both even: on the even targets
            out[n1:, n1:] = values[n1:m, n1:]  # one of each: on the odd targets
        else:
            out[:n1, n1:] = values[:n1, n1:]  # one of each: on the odd targets
            out[n1:, :n1] = values[m:, :n1]  # both odd: the splitting vector, on the even targets
        b, k = np.nonzero(out)
        entries.append(np.array([np.full_like(b, a), b, k, out[b, k]]))
    parity = np.array([0] * n1 + [1] * len(odd), dtype=np.int64)
    return ModularSuperAlgebra.from_entries(p, parity, *np.hstack(entries))


# The truncated tensor rule, which the tests compare with Jordan block counts
# of the shift action on a tensor product of Jordan blocks.


def clebsch_gordan(m: int, n: int, p: int) -> tuple[int, ...]:
    """Simple factors of L_m (x) L_n: {|m-n| + 2i - 1 : 1 <= i <= min(m, n, p-m, p-n)}."""
    if not (1 <= m <= p - 1 and 1 <= n <= p - 1):
        raise ValueError("labels must lie in 1..p-1")
    top = min(m, n, p - m, p - n)
    return tuple(abs(m - n) + 2 * i - 1 for i in range(1, top + 1))


# Structural invariants of an output, compared across decompositions.


def center(alg: ModularSuperAlgebra) -> Subspace:
    """{x : [x, g] = 0}, as the iterated kernel of right-bracket maps."""
    eye = np.eye(alg.dim, dtype=np.int64)
    basis = eye
    for j in range(alg.dim):
        if basis.shape[0] == 0:
            break
        m = alg.brackets(basis, eye[j : j + 1]).toarray().T  # column r = [basis_r, b_j]
        ker = fp.kernel_basis(m, alg.p)
        basis = (ker @ basis) % alg.p
    return Subspace.from_vectors(basis, alg.dim, alg.p)


def derived_subalgebra(alg: ModularSuperAlgebra) -> Subspace:
    """Span of all brackets of basis pairs, sixteen left factors at a time,
    until the span is the whole algebra."""
    eye = np.eye(alg.dim, dtype=np.int64)
    sub = Subspace.from_vectors([], alg.dim, alg.p)
    for start in range(0, alg.dim, 16):
        sub = sub.extended(alg.brackets(eye[start : start + 16], eye).nonzero_rows())
        if sub.dim == alg.dim:
            break
    return sub


def odd_cube_values_literal(alg: ModularSuperAlgebra):
    """q(x) on all sums of up to 3 distinct odd basis vectors with coefficients in {1, 2}."""
    odd = np.nonzero(alg.parity == 1)[0]
    vals = []
    for size in (1, 2, 3):
        for nodes in combinations(odd, size):
            for coeffs in product((1, 2), repeat=size):
                x = np.zeros(alg.dim, dtype=np.int64)
                for n, c in zip(nodes, coeffs):
                    x[n] = c
                vals.append(alg.bracket(x, alg.bracket(x, x)))
    return vals


def odd_cube_pieces(alg: ModularSuperAlgebra) -> list:
    """The nonzero polarization pieces of the cubic map q(x) = [x,[x,x]] over
    F_3, each with a label: the cubes q(b_a), the c^2-coefficients
    A_ab = 2[b_a,[b_a,b_b]] + [b_b,[b_a,b_a]] (a != b) and the trilinear
    coefficients B_abc = 2([b_a,[b_b,b_c]] + [b_b,[b_a,b_c]] + [b_c,[b_a,b_b]])
    (a < b < c), over the odd basis vectors.  Their span is the span of q on
    all sums of up to three distinct odd basis vectors with coefficients in
    {1, 2}, for any bracket: the reference for the cube rows, which span it
    only once super skew, super Jacobi and the parity of the bracket hold."""
    odd = np.nonzero(alg.parity == 1)[0]
    no = len(odd)
    basis = np.eye(alg.dim, dtype=np.int64)[odd]
    q = alg.brackets(basis, alg.brackets(basis, basis))  # row (a*no + b)*no + c: [b_a, [b_b, b_c]]

    def at(a, b, c):
        return q.take_rows((a * no + b) * no + c)

    ar = np.arange(no)
    sa, sb = (x.ravel() for x in np.meshgrid(ar, ar, indexing="ij"))
    sa, sb = sa[sa != sb], sb[sa != sb]
    ta, tb, tc = np.array(list(combinations(range(no), 3)), dtype=np.int64).reshape(-1, 3).T
    p = alg.p
    pieces = sparse.vstack([
        at(ar, ar, ar),
        sparse.combine([(2, at(sa, sa, sb)), (1, at(sb, sa, sa))], p),
        sparse.combine([(2, at(ta, tb, tc)), (2, at(tb, ta, tc)), (2, at(tc, ta, tb))], p),
    ])
    labels = [{"kind": kind, "nodes": [int(odd[n[r]]) for n in nodes]}
              for kind, nodes in (("cube", [ar]), ("square", [sa, sb]), ("triple", [ta, tb, tc]))
              for r in range(len(nodes[0]))]
    return [(vec, labels[r]) for r, vec in zip(pieces.held_rows(), pieces.nonzero_rows())]


def rotation_jacobi_witness(t: sparse.Coo, parity, p: int | None):
    """Smallest (i, j, k, l) at which J(i,j,k)_l of superalgebra.jacobi_witness
    is nonzero, over every ordered triple, for any tensor, skew or not; or
    None.  p=None checks over Z.

    Every product C(x,y,w) C(w,z,l) of two entries is expanded at once, with
    no blocks, and added, times (-1)^{|x||z|}, at the key of the smallest
    rotation of (x,y,z): J is the same at all three rotations, so the
    smallest failing triple is its own smallest rotation.  A product with
    x = y = z is in all three terms of J(x,x,x) and counts three times.  The
    reference for the blocked sum over sorted triples, which holds only on a
    super skew tensor."""
    d = t.shape[0]
    k, j = np.divmod(t.col, d)  # the entries are sorted by their row i
    lo = np.searchsorted(t.row, k)
    s, u = sparse.span_pairs(lo, np.searchsorted(t.row, k, side="right") - lo)  # C(x,y,w) and C(w,z,l)
    x, y, z = t.row[s], j[s], j[u]
    par = np.asarray(parity, dtype=np.int64)
    rotation = np.minimum(np.minimum((x * d + y) * d + z, (y * d + z) * d + x), (z * d + x) * d + y)
    weight = (1 - 2 * (par[x] & par[z])) * (1 + 2 * ((x == y) & (y == z)))
    keys, _ = sparse.sum_by_key(rotation * d + k[u], t.data[s] * weight * t.data[u], p)
    if not len(keys):
        return None
    i, rest = divmod(int(keys[0]), d**3)
    j, rest = divmod(rest, d * d)
    return (i, j, *divmod(rest, d))


# Example algebras with a known answer.


def free_nilpotent_example(p: int = 3) -> tuple[ModularSuperAlgebra, np.ndarray]:
    """The free Lie algebra on x, y truncated above degree 3, with the
    square-zero-on-generators derivation d(x) = y, d(y) = 0.

    Basis {x, y, [x,y], [x,[x,y]], [y,[y,x]]}; returns (algebra, derivation matrix).
    """
    labels = ["x", "y", "[x,y]", "[x,[x,y]]", "[y,[y,x]]"]
    entries = [
        (0, 1, 2, 1), (1, 0, 2, -1),   # [x,y] = z
        (0, 2, 3, 1), (2, 0, 3, -1),   # [x,z] = [x,[x,y]]
        (1, 2, 4, -1), (2, 1, 4, 1),   # [y,z] = -[y,[y,x]]
    ]
    alg = ModularSuperAlgebra.from_entries(p, np.zeros(5, dtype=np.int64), *np.transpose(entries), labels=labels)
    der = np.zeros((5, 5), dtype=np.int64)
    der[1, 0] = 1          # x -> y
    der[4, 3] = (-1) % p   # [x,[x,y]] -> -[y,[y,x]]
    return alg, der


def g2_scaled(p: int = 3) -> ModularSuperAlgebra:
    """Alternative integral form of the rank-2 exceptional algebra: the root
    vectors at beta+2alpha, beta+3alpha, 2beta+3alpha (and their negatives)
    are rescaled by the ad-string factorials 2, 6, 6.

    Over Z this spans a different lattice than the Chevalley basis; mod 3 the
    top two root pairs span a 4-dimensional ideal, and the semisimplification
    with respect to e_beta carries a (0|2) odd ideal with quotient of
    superdimension (3|2).  The Chevalley reduction itself has no such ideal.
    """
    base = integral_catalog("g2")
    factors = {Root((2, 1)): 2, Root((3, 1)): 6, Root((3, 2)): 6}
    scale = np.ones(base.dim, dtype=np.int64)
    for root, factor in factors.items():
        scale[[base.e_index(root), base.f_index(root)]] = factor
    i, j, k, c = base.entries.T
    num, den = scale[i] * scale[j] * c, scale[k]
    for r in np.flatnonzero(num % den):  # raises at the first
        _exact_div(int(num[r]), int(den[r]), "rescaled constants are not integral")
    return reduce_mod_p(replace(base, entries=np.stack([i, j, k, num // den], axis=1)), p)
