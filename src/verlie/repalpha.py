"""Realizing a modular Lie algebra as a module over the height-p shift
algebra and decomposing it into Jordan chains.

A Realization packages an algebra with a nilpotent derivation of degree at
most p (usually ad e for a nilpotent element e).  Chains are extracted
either generically (deterministic pivoting) or, for the boundary-node
elements in characteristic 3, in the generator-compatible form whose tagged
chains carry the Chevalley generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fp, sparse
from .errors import DegreeExceedsP, InternalError, NotNilpotent, ParseError, PreconditionViolated, UnknownGenerator
from .roots import Root, admissible_subsets, attached_node, exact_int
from .superalgebra import ModularSuperAlgebra

# -- element expressions -----------------------------------------------------


class _Parser:
    """Reads an element expression as the vector it denotes, reduced mod p.

    Grammar: expr := term (('+'|'-') term)* ; term := [int '*'] atom ;
    atom := gen | '[' expr ',' expr ']' | '(' expr ')' ; gen := ('e'|'f'|'h') int.
    Whitespace insignificant; e_1 is accepted for e1.  An unknown generator
    reads as zero and the first one is remembered, so that a syntax error
    anywhere in the text is reported before it."""

    def __init__(self, src: str, alg: ModularSuperAlgebra):
        self.src, self.alg, self.pos = src, alg, 0
        self.unknown: Optional[str] = None  # the first generator the algebra lacks

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.pos)
        return int(self.src[start : self.pos])

    def expr(self) -> np.ndarray:
        out = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            out = (out + sign * self.term()) % self.alg.p
        return out

    def term(self) -> np.ndarray:
        if self.peek().isdigit():
            coeff = self.integer() % self.alg.p  # exact, so the product below stays below p^2
            self.take("*")
            return coeff * self.atom() % self.alg.p
        return self.atom()

    def atom(self) -> np.ndarray:
        ch = self.peek()
        if ch == "[":
            self.take("[")
            left = self.expr()
            self.take(",")
            right = self.expr()
            self.take("]")
            return self.alg.bracket(left, right)
        if ch == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        if ch in ("e", "f", "h"):
            self.pos += 1
            if self.peek() == "_":
                self.pos += 1
            name = f"{ch}{self.integer()}"
            if self.alg.gens and name in self.alg.gens:
                return self.alg.gens[name].copy()
            self.unknown = self.unknown or name
            return np.zeros(self.alg.dim, dtype=np.int64)
        raise ParseError("expected a generator, bracket, or parenthesis", self.pos)


def parse_element(src: str, alg: ModularSuperAlgebra) -> tuple[str, np.ndarray]:
    """Parse an element expression into its vector in the algebra.

    Returns (src, vector): the text as given, then the vector reduced mod p.
    A syntax error (ParseError) is raised before an unknown generator
    (UnknownGenerator), and of several unknown generators the first named;
    nesting deeper than the interpreter's stack is a ParseError too."""
    parser = _Parser(src, alg)
    try:
        vec = parser.expr()
    except RecursionError:
        raise ParseError("nested too deeply", parser.pos) from None
    parser.skip_ws()
    if parser.pos != len(src):
        raise ParseError("trailing input", parser.pos)
    if parser.unknown:
        raise UnknownGenerator(f"algebra has no generator {parser.unknown}")
    return src, vec


# -- realizations -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Realization:
    """Algebra plus a nilpotent derivation D with D^p = 0, held as one sparse
    matrix in bytes buffers (a dense one is converted), and its degree, the
    smallest k >= 1 with D^k = 0, found when the realization is made."""

    algebra: ModularSuperAlgebra
    der: sparse.Coo = field(repr=False)
    element: Optional[np.ndarray] = None
    degree: int = field(init=False)

    def __post_init__(self):
        p, dim = self.algebra.p, self.algebra.dim
        der = self.der if isinstance(self.der, sparse.Coo) else sparse.from_dense(fp.normalize(self.der, p))
        top, exponent = der, 1  # D^exponent; a nilpotent D has D^dim = 0
        while top.nnz and exponent < min(p, dim):
            top, exponent = sparse.product(top, der, p), exponent + 1
        while top.nnz and exponent < dim:  # D^p != 0: square until the exponent reaches dim
            top, exponent = sparse.product(top, top, p), 2 * exponent
        if top.nnz:
            raise NotNilpotent(f"derivation is not nilpotent (D^{max(exponent, p)} != 0)")
        if exponent > p:
            raise DegreeExceedsP(f"derivation is nilpotent of degree > {p}")
        object.__setattr__(self, "der", sparse.frozen(der))
        object.__setattr__(self, "degree", exponent)


def realize(alg: ModularSuperAlgebra, v) -> Realization:
    """Realize with respect to the inner derivation ad v."""
    v = fp.normalize(v, alg.p)
    return Realization(alg, alg.sparse_ad(v), v)


def realize_derivation(alg: ModularSuperAlgebra, der) -> Realization:
    """Escape hatch for outer derivations, validated to satisfy the Leibniz rule."""
    der = fp.normalize(der, alg.p)
    eye = np.eye(alg.dim, dtype=np.int64)
    moved = der.T  # row i is D b_i
    # row i*dim+j: D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j]
    leibniz = sparse.combine([(1, sparse.product(alg.brackets(eye, eye), sparse.from_dense(moved), alg.p)),
                              (-1, alg.brackets(moved, eye)), (-1, alg.brackets(eye, moved))], alg.p)
    if leibniz.nnz:
        i = int(leibniz.row[0]) // alg.dim
        raise ValueError(f"matrix is not a derivation (fails at basis vector {i})")
    return Realization(alg, der)


# -- Jordan chains ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JordanChain:
    """v -> Dv -> ... -> D^{l-1}v, with an optional generator tag."""

    vectors: np.ndarray  # (length, dim)
    tag: tuple[str, int] | None = None

    @property
    def length(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class ChainDecomposition:
    """Jordan chains as the row-major entries of one matrix: row k is the
    k-th chain vector, chain by chain, and chain c has length lengths[c] and
    generator tag tags[c] (or None).  It is checked against D when it is
    made, and its fields are frozen and its arrays held in bytes buffers
    (sparse.frozen), so it stays checked."""

    entries: sparse.Coo = field(repr=False)
    lengths: np.ndarray
    der: sparse.Coo | np.ndarray = field(repr=False)  # the D it was checked against
    p: int
    tags: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", sparse.frozen(self.entries))
        object.__setattr__(self, "lengths", sparse.frozen(np.reshape(self.lengths, -1)))
        object.__setattr__(self, "tags", tuple(self.tags or (None,) * len(self.lengths)))
        self.validate(self.der)

    @classmethod
    def of_chains(cls, chains, der, p: int) -> ChainDecomposition:
        """Hand-built chains, checked against D, dense or sparse."""
        chains = tuple(chains)
        rows = np.vstack([np.zeros((0, der.shape[0]), dtype=np.int64), *(chain.vectors for chain in chains)])
        return cls(sparse.from_dense(rows), [chain.length for chain in chains], der, p,
                   tuple(chain.tag for chain in chains))

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    @property
    def basis(self) -> np.ndarray:
        """The chain vectors as the rows of a new read-only dense array."""
        out = self.entries.toarray()
        out.flags.writeable = False
        return out

    @property
    def chains(self) -> tuple[JordanChain, ...]:
        """The chains, in order, as frozen views of the rows of one basis array."""
        basis, ends = self.basis, np.cumsum(self.lengths).tolist()
        return tuple(JordanChain(basis[end - length : end], tag)
                     for end, length, tag in zip(ends, self.lengths.tolist(), self.tags))

    def chain_offsets(self) -> np.ndarray:
        """The row of the basis matrix at which each chain starts."""
        return np.cumsum(self.lengths) - self.lengths

    def coordinates(self, columns) -> np.ndarray:
        """Rows `columns` of the inverse of the basis matrix: row a @ v is the
        coordinate of v at basis column columns[a]."""
        if (out := fp.inverse_rows(self.entries, columns, self.p)) is None:
            raise InternalError("a checked chain basis is singular")
        return out

    def validate(self, der):
        """D, dense or sparse, maps every chain vector to the next one and the
        tail to zero, checked for all vectors in one sparse product; they then
        form a basis exactly when the tails are independent (D^m of a relation,
        m the largest power it leaves room for, is one among the tails), as
        when every tail ends at its own column."""
        der = der if isinstance(der, sparse.Coo) else sparse.from_dense(der)
        lengths, p, dim = self.lengths, self.p, self.dim
        outside = lengths[(lengths < 1) | (lengths > p)]
        if outside.size:
            raise ValueError(f"chain length {outside[0]} outside 1..p")
        total = int(lengths.sum())
        if total != dim:
            raise ValueError(f"chain lengths sum to {total}, dim is {dim}")
        row, col, data = self.entries.row, self.entries.col, self.entries.data  # row k is basis column k
        starts = self.chain_offsets()
        head = np.zeros(dim, dtype=bool)
        head[starts] = True
        images = sparse.product(self.entries, der.transpose(), p)  # row k: (D v_k)^T
        keep = ~head[row]  # row k + 1 moved up to row k; the heads drop out, so the tails meet zero
        shifted = sparse.Coo(row[keep] - 1, col[keep], data[keep], (dim, dim))
        if images != shifted:
            wrong = sparse.combine([(1, images), (-1, shifted)], None)  # over Z: shifted entries may be unreduced
            if wrong.row[0] in starts + lengths - 1:  # the first wrong row is a tail
                raise ValueError("chain does not terminate")
            raise ValueError("chain is not a D-orbit")
        tail = np.full(dim, -1)
        tail[starts + lengths - 1] = np.arange(len(lengths))
        at = ((tail[row] >= 0) & (data % p != 0)).nonzero()[0]  # the tails' entries (a head may be unreduced)
        ends = col[at[row[at] != np.append(row[at[1:]], -1)]]  # the column each nonzero tail ends at
        if len(sparse.distinct(ends)) < len(lengths) and not fp.independent_rows(
                sparse.Coo(tail[row[at]], col[at], data[at], (len(lengths), dim)), p):
            raise ValueError("chain vectors are not a basis")


def block_counts(decomp: ChainDecomposition) -> tuple[int, ...]:
    """Multiset of chain lengths as the count vector (n_1, ..., n_p)."""
    return tuple(np.bincount(decomp.lengths, minlength=decomp.p + 1)[1:].tolist())


def _power_blocks(der: sparse.Coo, k: int, p: int) -> tuple[np.ndarray, ...]:
    """The level parts of D, and the distinct level-to-level parts of D, ..., D^k.

    In each D-stable block (a component of the graph of D + D^T), φ spreads
    from the smallest index with φ(row) = φ(col) + 1 along the entries, and
    φ mod n, n the gcd of the defects |φ(row) - φ(col) - 1|, is a level
    function (exact for n = 0).  D maps each level part into the next,
    cyclically, so D^l maps part q into the l-th part above by a product of l
    level maps; parts whose maps agree from the part below through D^k are kept
    once.  Returns the coordinates of each part (as fp.block_table lists them),
    the distinct part of each, the zero-padded stack of the distinct parts of
    D, ..., D^k, power-major, the distinct part below each distinct part
    with the map of D from there, and the part above each part."""
    row, col, dim = der.row, der.col, der.shape[0]
    blocks = fp.components(der)
    count = int(blocks.max(initial=-1)) + 1
    phi, known = np.zeros(dim, dtype=np.int64), np.zeros(dim, dtype=bool)
    known[np.maximum.accumulate(blocks).searchsorted(np.arange(count))] = True  # the smallest index of each block
    tail, head, step = np.concatenate([col, row]), np.concatenate([row, col]), np.array([1, -1]).repeat(len(row))
    while (go := (known[tail] & ~known[head]).nonzero()[0]).size:  # one step along the entries
        phi[head[go]], known[head[go]] = phi[tail[go]] + step[go], True
    n, low, levels = np.zeros(count, dtype=np.int64), np.full(count, dim), np.zeros(count, dtype=np.int64)
    np.gcd.at(n, blocks[row], np.abs(phi[row] - phi[col] - 1))
    np.minimum.at(low, blocks, phi)
    level = (phi - low[blocks]) % np.where(n > 0, n, dim)[blocks]
    np.maximum.at(levels, blocks, level + 1)
    offset = levels.cumsum() - levels  # the parts of a block are numbered up its levels
    parts, start, cycle = offset[blocks] + level, offset.repeat(levels), levels.repeat(levels)
    above = start + (np.arange(len(start)) - start + 1) % cycle
    below = above.argsort()
    if (parts[row] != above[parts[col]]).any():
        raise InternalError("D does not map each level into the next")
    coords = fp.block_table(parts)
    size, held = coords.shape[1], coords >= 0
    slot = np.empty(dim, dtype=np.int64)
    slot[coords[held]] = held.nonzero()[1]
    maps = np.zeros((len(start), size, size), dtype=np.int64)  # slice q: D from part q into the part above
    maps[parts[col], slot[row], slot[col]] = der.data
    sizes = held.sum(axis=1)[:, None]
    _, same = fp.unique_rows(np.hstack([sizes, sizes[above], maps.reshape(len(maps), size * size)]))
    path = [below]  # path[t]: the part t - 1 levels above
    for _ in range(k):
        path.append(above[path[-1]])
    first, kind = fp.unique_rows(same[np.stack(path, axis=1)])
    stack = np.empty((k, len(first), size, size), dtype=np.int64)
    stack[:1] = maps[first]
    for j in range(1, k):
        np.matmul(maps[path[j + 1][first]], stack[j - 1], out=stack[j])
        stack[j] %= p
    return coords, kind, stack.reshape(k * len(first), size, size), kind[below[first]], maps[below[first]], above


def _rank_counts(ranks) -> tuple[int, ...]:
    """Block counts n_l = r_{l-1} - 2 r_l + r_{l+1}, l = 1..d, from the ranks
    [r_0, ..., r_{d+1}] of the powers of D."""
    return tuple(np.diff(ranks, 2).tolist())


def _power_ranks(dim: int, kind: np.ndarray, pivots: np.ndarray, k: int) -> list[int]:
    """The ranks [r_0, ..., r_k] of the powers of D, from the pivots of the
    eliminated distinct parts of D, ..., D^k, power-major, each counted once
    per part it stands for."""
    weights = np.bincount(kind)
    return [dim, *((pivots >= 0).sum(axis=1).reshape(k, len(weights)) @ weights).tolist()]


def rank_count_vector(realization: Realization) -> tuple[int, ...]:
    """Block counts (n_1, ..., n_p) straight from the ranks r_l of the powers
    of D, each the sum of the ranks of the distinct level parts of D, ...,
    D^{d-1} for the degree d; every rank and count from D^d on is zero."""
    der, p, d = realization.der, realization.algebra.p, realization.degree
    kind, stack = _power_blocks(der, d - 1, p)[1:3]
    ranks = _power_ranks(der.shape[0], kind, fp.rref_batch(stack, p)[1], d - 1)
    return _rank_counts([*ranks, 0, 0]) + (0,) * (p - d)


def _heads(der: sparse.Coo, d: int, p: int) -> tuple[sparse.Coo, np.ndarray, list[int]]:
    """Deterministic head pick for a D with D^d = 0, d <= p: for lengths l = d
    down to 1, heads are a complement of (ker D^{l-1} + im D) inside ker D^l,
    picked by echelon order.  Returns the row-major entries of the chains
    h, Dh, ... of the heads, one row each, then the chain lengths and the
    ranks [r_0, ..., r_{d+1}].

    The candidates are the fp.kernel_basis rows of D^l (row f has a 1 at the
    free column f and zeros at the other free columns), and one heads a chain
    when it is independent of that subspace and of the candidates before it.
    Inside ker D^l the subspace is W = ker D^{l-1} + D ker D^{l+1}, and a
    vector of ker D^l is fixed by its free coordinates; so the candidate at f
    is picked exactly when no vector of W ends at f (is nonzero at f and at no
    later free column), that is, when f is not a pivot of W's free
    coordinates eliminated right to left.

    D^l maps each level part of `_power_blocks` into the l-th part above, so
    all of this splits by part (the W of a part is its ker D^{l-1} plus D ker
    D^{l+1} of the part below), and equal parts give equal results: one
    elimination of the distinct parts gives the kernels (and the ranks) of
    every power, one more the ends of every W.  Heads are ordered longest
    chain first, then by their free coordinate, as the global kernel basis
    orders them.  D^t h, for a head h of part q, is D^t's distinct part for
    q applied to h there, and lies in the t-th part above q.
    """
    dim = der.shape[0]
    coords, kind, stack, lower, below, above = _power_blocks(der, d + 1, p)  # D^{d+1} = 0 too
    count, size = len(lower), stack.shape[1]
    # kernel rows of every distinct part of D^1..D^{d+1}: row f has a 1 at free slot f
    rows, pivots = fp.rref_batch(stack, p)
    ranks = _power_ranks(dim, kind, pivots, d + 1)
    free = np.zeros((d + 2, count, size), dtype=bool)  # free[l]: the free slots of D^l, none for D^0 = I
    free[1:, kind] = coords >= 0
    kernels = np.zeros((d + 2, count, size, size), dtype=np.int64)  # kernels[0] = ker I = 0
    at, rank = (pivots >= 0).nonzero()
    free[1:].reshape(len(pivots), size)[at, pivots[at, rank]] = False
    kernels[1:].reshape(len(rows), size, size)[at, :, pivots[at, rank]] = -rows[at, rank] % p
    kernels[~free] = 0
    kernels[:, :, np.arange(size), np.arange(size)] = free
    powers = stack[: (d - 1) * count].reshape(d - 1, count, size, size).copy()  # D^1..D^{d-1}, for the chains
    del rows, stack  # the elimination arrays are freed once used: together they set the peak memory here
    # W for l = 1..d on the free coordinates of D^l, columns reversed: ker D^{l-1}, then D ker D^{l+1} from below
    spans = np.empty((d, count, 2 * size, size), dtype=np.int64)
    spans[:, :, :size] = kernels[:d, ..., ::-1]
    np.matmul(kernels[2:, lower], below.transpose(0, 2, 1)[..., ::-1], out=spans[:, :, size:])
    spans %= p
    spans *= free[1 : d + 1, :, None, ::-1]
    _, ends = fp.rref_batch(spans.reshape(d * count, 2 * size, size), p)
    del spans
    picked = free[1 : d + 1].copy()
    at, rank = (ends >= 0).nonzero()
    picked.reshape(d * count, size)[at, size - 1 - ends[at, rank]] = False
    # the heads of every part, longest chain first
    shorter, part, slot = picked[::-1][:, kind].nonzero()
    order = np.lexsort((coords[part, slot], shorter))
    lengths, part, slot = d - shorter[order], part[order], slot[order]
    # D^t h of every head, t < d, in the coordinates of the t-th part above its own
    local, where = np.empty((2, len(lengths), d, size), dtype=np.int64)
    local[:, 0], where[:, 0], own = kernels[lengths, kind[part], slot], coords[part], kind[part]
    for t in range(1, d):
        local[:, t] = np.matmul(powers[t - 1, own], local[:, 0, :, None])[..., 0] % p
        part = above[part]
        where[:, t] = coords[part]
    held = (np.arange(d) < lengths[:, None])[..., None] & (where >= 0) & (local != 0)
    chain, t, _ = held.nonzero()  # row-major: chain by chain, t ascending, each part's coordinates ascending
    return sparse.Coo(np.cumsum(lengths)[chain] - lengths[chain] + t, where[held], local[held],
                      (int(lengths.sum()), dim)), lengths, ranks


def jordan_decompose(realization: Realization) -> ChainDecomposition:
    """Complete chain decomposition of the derivation action, its chain
    counts n_1, ..., n_d (no chain is longer than the degree d) checked
    against the rank formula on the ranks the extraction eliminated."""
    d, p = realization.degree, realization.algebra.p
    entries, lengths, ranks = _heads(realization.der, d, p)
    if tuple(np.bincount(lengths, minlength=d + 1)[1:].tolist()) != _rank_counts(ranks):
        raise InternalError("chain counts disagree with the rank formula")
    return ChainDecomposition(entries, lengths, realization.der, p)


def boundary_subset(realization: Realization, subset) -> tuple[int, ...]:
    """The sorted subset, once the realization is ad e for e = sum of e_i
    over an admissible subset of boundary nodes of a Chevalley-basis algebra
    in characteristic 3, the setting of the boundary-node construction;
    PreconditionViolated otherwise."""
    alg = realization.algebra
    integral = alg.origin
    if integral is None or not hasattr(integral, "roots"):
        raise PreconditionViolated("the boundary-node construction needs a Chevalley-basis algebra")
    if alg.p != 3:
        raise PreconditionViolated("the boundary-node construction needs characteristic 3")
    subset = tuple(sorted(exact_int(i, "subset") for i in subset))
    if subset not in admissible_subsets(integral.gcm):
        raise PreconditionViolated(f"{subset} is not an admissible subset")
    if realization.element is None:
        raise PreconditionViolated("the boundary-node construction needs an inner realization")
    expected = sum((alg.gens[f"e{i}"] for i in subset), np.zeros(alg.dim, dtype=np.int64))
    if not np.array_equal(realization.element % alg.p, expected):
        raise PreconditionViolated("element must be the sum of e_i over the subset")
    return subset


def structured_decompose(realization: Realization, subset) -> ChainDecomposition:
    """Generator-compatible decomposition for e = sum of e_i over an
    admissible subset of boundary nodes, characteristic 3.

    Tagged chains: per subset node i with attached node j, a J_2 headed by
    e_j, a J_2 ending at f_j, and the J_3 through (f_i, h_i, -2 e_i); per
    untouched node k, singleton chains for e_k, f_k, h_k; and a singleton
    h_j - h_i per subset node.  The D-stable complement spanned by the
    remaining root vectors is decomposed generically.
    """
    subset = boundary_subset(realization, subset)
    alg = realization.algebra
    integral = alg.origin
    gcm = integral.gcm
    der = realization.der

    def unit(kind: str, k: int) -> np.ndarray:  # the generator as a one-row chain
        return alg.gens[f"{kind}{k}"][None]

    def orbit(v, length: int) -> np.ndarray:  # the rows v, Dv, ..., D^{length-1} v
        rows = [np.reshape(v, -1)]
        while len(rows) < length:
            rows.append(der.dot(rows[-1]) % alg.p)
        return np.array(rows)

    attached = {i: attached_node(gcm, i) for i in subset}
    chains: list[JordanChain] = []

    touched_roots: set[Root] = set()
    for i in subset:
        j = attached[i]
        alpha_i, alpha_j = integral.roots.simple(i), integral.roots.simple(j)
        touched_roots.update({alpha_i, alpha_j, alpha_i + alpha_j})
        # e_j -> [e, e_j]
        chains.append(JordanChain(orbit(unit("e", j), 2), tag=("e", j)))
        # [f, f_j] -> f_j
        ff = alg.bracket(unit("f", i), unit("f", j))
        chain = JordanChain(orbit(ff, 2), tag=("f", j))
        if not np.array_equal(chain.vectors[-1], unit("f", j)[0]):
            raise InternalError("[f, f_j] does not map onto f_j")
        chains.append(chain)
        # f_i -> h_i -> -2 e_i
        chains.append(JordanChain(orbit(unit("f", i), 3)))
        # h_j - h_i
        chains.append(JordanChain((unit("h", j) - unit("h", i)) % alg.p, tag=("h", j)))
    untouched = [k for k in range(1, gcm.n + 1) if k not in subset and k not in attached.values()]
    for k in untouched:
        chains += [JordanChain(unit(kind, k), tag=(kind, k)) for kind in "efh"]
    # Complement: root spaces the template leaves alone.  Every simple root
    # vector sits in a tagged chain, so only non-simple roots other than the
    # sums alpha_i + alpha_j remain.
    rest_idx = []
    for gi, gamma in enumerate(integral.roots.positive):
        if gamma.height == 1 or gamma in touched_roots:
            continue
        rest_idx.extend([gi, integral.npos + gi])
    rest_idx = sorted(rest_idx)
    if (np.isin(der.col, rest_idx) & ~np.isin(der.row, rest_idx)).any():  # D b_col has a row outside
        raise InternalError("complement is not D-stable")
    # the complement is D-stable, so D on it is the rest x rest block of D, of degree at most D's
    block = sparse.from_dense(der.toarray()[np.ix_(rest_idx, rest_idx)])
    entries, lengths, _ = _heads(block, realization.degree, alg.p)
    embedded = np.zeros((entries.shape[0], alg.dim), dtype=np.int64)
    embedded[:, rest_idx] = entries.toarray()
    chains += [JordanChain(vectors) for vectors in np.split(embedded, np.cumsum(lengths))[:-1]]
    return ChainDecomposition.of_chains(chains, der, alg.p)
