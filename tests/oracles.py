"""Reference constructions that only the tests call."""

from __future__ import annotations

import numpy as np

from verlie import fp, sparse
from verlie.superalgebra import Constants, ModularSuperAlgebra


def tensor_coo(constants: Constants, dim: int, p: int | None) -> sparse.Coo:
    """The tensor of a constants dict, as a (dim, dim*dim) sparse matrix
    L[i, k*dim+j] = C(i,j,k), reduced mod p (exact over Z if p is None)."""
    entries = [(i, k * dim + j, c) for (i, j), comps in constants.items() for k, c in comps.items()]
    return sparse.from_entries(*np.array(entries, dtype=np.int64).reshape(-1, 3).T, (dim, dim * dim), p)


# The head pick that pads every D-stable block to the largest one and
# eliminates each block, repeats included: the reference that
# repalpha._heads, which eliminates each distinct block once, must match.


def padded_power_blocks(powers: list[sparse.Coo]) -> tuple[np.ndarray, np.ndarray]:
    """The D-stable blocks of the powers [I, D, D^2, ...]: the components of
    the graph of D + D^T, in which every power is block diagonal.  Returns
    the block of each coordinate and the stack of the diagonal blocks of
    powers[1:], power-major."""
    blocks = fp.components(powers[1])
    return blocks, fp.block_stack(powers[1:], blocks, blocks)


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


# The chain check that stacks the chain vectors densely, multiplies them by D
# densely and inverts every block of the basis matrix, repeats included: the
# reference that ChainDecomposition.validate, which works on the entries of
# one basis array and inverts each distinct block once, must match.


def dense_chain_check(decomp, der: sparse.Coo) -> tuple:
    """D maps every chain vector to the next one and the tail to zero,
    checked for all vectors in one product; the vectors form a basis,
    checked one block of the basis matrix at a time.  Returns the inverse
    of the basis matrix by blocks: the stack of block inverses, the
    coordinates of each block, and the block and slot of each basis
    column."""
    for chain in decomp.chains:
        if not 1 <= chain.length <= decomp.p:
            raise ValueError(f"chain length {chain.length} outside 1..p")
    total = sum(chain.length for chain in decomp.chains)
    if total != decomp.dim:
        raise ValueError(f"chain lengths sum to {total}, dim is {decomp.dim}")
    if not total:
        empty = np.zeros(0, dtype=np.int64)
        return empty.reshape(0, 0, 0), empty.reshape(0, 0), empty, empty
    vectors = np.vstack([chain.vectors for chain in decomp.chains])  # row k: basis column k
    tails = np.cumsum([chain.length for chain in decomp.chains]) - 1
    shifted = np.zeros_like(vectors)
    shifted[:-1] = vectors[1:]
    shifted[tails] = 0  # D kills the tail
    images = der.dot(vectors.T).T % decomp.p
    wrong = np.flatnonzero((images != shifted).any(axis=1))
    if wrong.size and wrong[0] in tails:
        raise ValueError("chain does not terminate")
    if wrong.size:
        raise ValueError("chain is not a D-orbit")
    # the basis matrix is invertible exactly when every block of its own
    # row/column graph is square and invertible, whatever the chains are
    col, row = np.nonzero(vectors)
    graph = sparse.from_entries(row, decomp.dim + col, np.ones(len(row)), (2 * decomp.dim,) * 2)
    blocks = fp.components(graph)
    rows, cols = blocks[: decomp.dim], blocks[decomp.dim :]
    count = int(blocks.max()) + 1
    sizes = np.bincount(cols, minlength=count)
    inverses = None
    if np.array_equal(np.bincount(rows, minlength=count), sizes):
        inverses = fp.inverse_batch(fp.block_stack([vectors.T], rows, cols), sizes, decomp.p)
    if inverses is None:
        raise ValueError("chain vectors are not a basis")
    return inverses, fp.block_table(rows), cols, fp.slots(cols, count)


# The semisimplified bracket at any odd p, transcribed one survivor pair at a
# time: the slow reference that semisimplify, which projects the brackets of
# all heads and the splitting products at once, must match.


def literal_reference(realization, decomp) -> ModularSuperAlgebra:
    """The projected bracket on the survivors of decomp, the length-1 chains
    (even) and then the length-(p-1) chains (odd), in chain order.  A
    survivor's coordinate of a vector is its coordinate at the survivor's
    head v^0 over the chain basis, read off the dense inverse of the basis
    matrix.  Survivor a's chain is v_a^0, v_a^1, ...; the bracket [v_a^s, w]
    is the dense ad of v_a^s applied to w; and [y_a, y_b] is
      - both even: the even coordinates of [v_a^0, v_b^0];
      - one even, one odd: the odd coordinates of [v_a^0, v_b^0];
      - both odd: the even coordinates of the splitting vector
        sum_{t=1}^{p-1} (-1)^t [v_a^(t-1), v_b^(p-1-t)]."""
    alg = realization.algebra
    p = alg.p
    decomp.validate(realization.der)
    chains = decomp.chains
    even = [c for c, chain in enumerate(chains) if chain.length == 1]
    odd = [c for c, chain in enumerate(chains) if chain.length == p - 1]
    order = even + odd
    parity = [0] * len(even) + [1] * len(odd)
    offsets = decomp.chain_offsets()
    coords = fp.inverse(decomp.basis_matrix(), p)[[offsets[c] for c in order]]
    entries = []
    for a, ca in enumerate(order):
        ad = [alg.ad(u) for u in chains[ca].vectors]  # ad[s] @ w = [v_a^s, w]
        for b, cb in enumerate(order):
            vb = chains[cb].vectors
            if parity[a] == 0 and parity[b] == 0:
                image, target = ad[0] @ vb[0], 0
            elif parity[a] != parity[b]:
                image, target = ad[0] @ vb[0], 1
            else:
                image = sum((-1) ** t * (ad[t - 1] @ vb[p - 1 - t]) for t in range(1, p))
                target = 0
            values = coords @ (image % p) % p
            entries += [(a, b, k, int(values[k])) for k in range(len(order)) if parity[k] == target and values[k]]
    return ModularSuperAlgebra.from_entries(p, parity, *np.array(entries, dtype=np.int64).reshape(-1, 4).T)
