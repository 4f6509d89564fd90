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
from .errors import DegreeExceedsP, NotNilpotent, ParseError, PreconditionViolated, UnknownGenerator
from .roots import Root, admissible_subsets, attached_node
from .superalgebra import ModularSuperAlgebra

# -- element expressions -----------------------------------------------------


@dataclass(frozen=True)
class GenRef:
    kind: str  # 'e' | 'f' | 'h'
    index: int


@dataclass(frozen=True)
class BracketExpr:
    left: "ElementExpr"
    right: "ElementExpr"


@dataclass(frozen=True)
class ScaledExpr:
    coeff: int
    atom: "ElementExpr"


@dataclass(frozen=True)
class SumExpr:
    terms: tuple[tuple[int, "ElementExpr"], ...]  # (sign, term)


ElementExpr = GenRef | BracketExpr | ScaledExpr | SumExpr


class _Parser:
    """Grammar: expr := term (('+'|'-') term)* ; term := [int '*'] atom ;
    atom := gen | '[' expr ',' expr ']' | '(' expr ')' ; gen := ('e'|'f'|'h') int.
    Whitespace insignificant; e_1 is accepted for e1."""

    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.src[start : self.pos])

    def expr(self) -> SumExpr:
        terms = [(1, self.term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            terms.append((sign, self.term()))
        return SumExpr(tuple(terms))

    def term(self) -> ElementExpr:
        if self.peek().isdigit():
            coeff = self.integer()
            self.take("*")
            return ScaledExpr(coeff, self.atom())
        return self.atom()

    def atom(self) -> ElementExpr:
        ch = self.peek()
        if ch == "[":
            self.take("[")
            left = self.expr()
            self.take(",")
            right = self.expr()
            self.take("]")
            return BracketExpr(left, right)
        if ch == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        if ch in ("e", "f", "h"):
            kind = ch
            self.pos += 1
            if self.peek() == "_":
                self.pos += 1
            return GenRef(kind, self.integer())
        self.error("expected a generator, bracket, or parenthesis")
        raise AssertionError


def evaluate_element(expr: ElementExpr, alg: ModularSuperAlgebra) -> np.ndarray:
    if isinstance(expr, GenRef):
        name = f"{expr.kind}{expr.index}"
        if not alg.gens or name not in alg.gens:
            raise UnknownGenerator(f"algebra has no generator {name}")
        return alg.gens[name].copy()
    if isinstance(expr, ScaledExpr):
        return (expr.coeff * evaluate_element(expr.atom, alg)) % alg.p
    if isinstance(expr, BracketExpr):
        return alg.bracket(evaluate_element(expr.left, alg), evaluate_element(expr.right, alg))
    if isinstance(expr, SumExpr):
        out = np.zeros(alg.dim, dtype=np.int64)
        for sign, term in expr.terms:
            out = (out + sign * evaluate_element(term, alg)) % alg.p
        return out
    raise TypeError(f"not an element expression: {expr!r}")


def parse_element(src: str, alg: ModularSuperAlgebra) -> tuple[ElementExpr, np.ndarray]:
    """Parse an element expression and evaluate it in the algebra."""
    parser = _Parser(src)
    tree = parser.expr()
    parser.skip_ws()
    if parser.pos != len(src):
        parser.error("trailing input")
    return tree, evaluate_element(tree, alg)


# -- realizations -------------------------------------------------------------


@dataclass(eq=False)
class Realization:
    """Algebra plus a nilpotent derivation D with D^p = 0, held only as its
    powers [I, D, ..., D^p], sparse and read-only; D is powers[1]."""

    algebra: ModularSuperAlgebra
    powers: list[sparse.Coo] = field(repr=False)
    element: Optional[np.ndarray] = None

    @property
    def degree(self) -> int:
        """Smallest k >= 1 with D^k = 0."""
        return next(k for k in range(1, len(self.powers)) if not self.powers[k].nnz)


def _realization(alg: ModularSuperAlgebra, der: np.ndarray, element) -> Realization:
    powers = fp.powers(der, alg.p, alg.p)
    if powers[-1].nnz:
        top, exponent = powers[-1], alg.p  # D^exponent; a nilpotent D has D^dim = 0
        while top.nnz and exponent < alg.dim:
            top, exponent = sparse.product(top, top, alg.p), 2 * exponent
        if top.nnz:
            raise NotNilpotent(f"derivation is not nilpotent (D^{exponent} != 0)")
        raise DegreeExceedsP(f"derivation is nilpotent of degree > {alg.p}")
    _freeze(*powers)
    return Realization(algebra=alg, powers=powers, element=element)


def realize(alg: ModularSuperAlgebra, v) -> Realization:
    """Realize with respect to the inner derivation ad v."""
    v = fp.normalize(v, alg.p)
    return _realization(alg, alg.ad(v), v)


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
    return _realization(alg, der, None)


# -- Jordan chains ------------------------------------------------------------


@dataclass
class JordanChain:
    """v -> Dv -> ... -> D^{l-1}v, with an optional generator tag."""

    vectors: np.ndarray  # (length, dim)
    tag: tuple[str, int] | None = None

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def head(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def tail(self) -> np.ndarray:
        return self.vectors[-1]


def _arrays(m) -> list[np.ndarray]:
    """The arrays holding the entries of a dense or sparse matrix, and the arrays they view."""
    out = [m.row, m.col, m.data] if isinstance(m, sparse.Coo) else [np.asarray(m)]
    for a in out:  # each view's base joins the list
        if isinstance(a.base, np.ndarray):
            out.append(a.base)
    return out


def _freeze(*matrices):
    for a in (a for m in matrices for a in _arrays(m)):
        a.flags.writeable = False


@dataclass
class ChainDecomposition:
    chains: tuple[JordanChain, ...]
    p: int
    dim: int
    _validated: tuple = field(default=(), init=False, repr=False, compare=False)  # what validate last passed
    _inverse: tuple = field(default=(), init=False, repr=False, compare=False)  # the basis inverse it found

    def basis_matrix(self) -> np.ndarray:
        """Columns are the chain vectors, chain by chain."""
        return np.hstack([chain.vectors.T for chain in self.chains])

    def chain_offsets(self) -> list[int]:
        offsets, total = [], 0
        for chain in self.chains:
            offsets.append(total)
            total += chain.length
        return offsets

    def validate(self, der):
        """Check the chains against D, dense or sparse, once.  A passed check
        makes the chain arrays read-only; it is skipped only for the same D and
        chain arrays, all still read-only (as a `Realization` holds D)."""
        seen = (self.p, self.dim, der, *(chain.vectors for chain in self.chains))
        if (len(seen) != len(self._validated) or any(a is not b for a, b in zip(seen, self._validated))
                or any(a.flags.writeable for m in seen[2:] for a in _arrays(m))):
            inverse = self._check(der if isinstance(der, sparse.Coo) else sparse.from_dense(der))
            _freeze(*(chain.vectors for chain in self.chains))
            self._validated, self._inverse = seen, inverse

    def coordinates(self, der, columns) -> np.ndarray:
        """Rows `columns` of the inverse of the basis matrix: row a @ v is the
        coordinate of v at basis column columns[a].  Validates against D first,
        and reads the rows off the block inverses that check found."""
        self.validate(der)
        inverses, coords, blocks, slots = self._inverse
        columns = np.asarray(columns, dtype=np.int64)
        block = blocks[columns]
        local, where = inverses[block, slots[columns]], coords[block]
        out = np.zeros((len(columns), self.dim), dtype=np.int64)
        row, col = np.nonzero(where >= 0)
        out[row, where[row, col]] = local[row, col]
        return out

    def _check(self, der: sparse.Coo) -> tuple:
        """D maps every chain vector to the next one and the tail to zero,
        checked for all vectors in one product; the vectors form a basis,
        checked one block of the basis matrix at a time.  Returns the inverse
        of the basis matrix by blocks: the stack of block inverses, the
        coordinates of each block, and the block and slot of each basis
        column."""
        for chain in self.chains:
            if not 1 <= chain.length <= self.p:
                raise ValueError(f"chain length {chain.length} outside 1..p")
        total = sum(chain.length for chain in self.chains)
        if total != self.dim:
            raise ValueError(f"chain lengths sum to {total}, dim is {self.dim}")
        if not total:
            empty = np.zeros(0, dtype=np.int64)
            return empty.reshape(0, 0, 0), empty.reshape(0, 0), empty, empty
        vectors = np.vstack([chain.vectors for chain in self.chains])  # row k: basis column k
        tails = np.cumsum([chain.length for chain in self.chains]) - 1
        shifted = np.zeros_like(vectors)
        shifted[:-1] = vectors[1:]
        shifted[tails] = 0  # D kills the tail
        images = der.dot(vectors.T).T % self.p
        wrong = np.flatnonzero((images != shifted).any(axis=1))
        if wrong.size and wrong[0] in tails:
            raise ValueError("chain does not terminate")
        if wrong.size:
            raise ValueError("chain is not a D-orbit")
        # the basis matrix is invertible exactly when every block of its own
        # row/column graph is square and invertible, whatever the chains are
        col, row = np.nonzero(vectors)
        graph = sparse.from_entries(row, self.dim + col, np.ones(len(row)), (2 * self.dim,) * 2)
        blocks = fp.components(graph)
        rows, cols = blocks[: self.dim], blocks[self.dim :]
        count = int(blocks.max()) + 1
        sizes = np.bincount(cols, minlength=count)
        inverses = None
        if np.array_equal(np.bincount(rows, minlength=count), sizes):
            inverses = fp.inverse_batch(fp.block_stack([vectors.T], rows, cols), sizes, self.p)
        if inverses is None:
            raise ValueError("chain vectors are not a basis")
        return inverses, fp.block_table(rows), cols, fp.slots(cols, count)


def block_counts(decomp: ChainDecomposition) -> tuple[int, ...]:
    """Multiset of chain lengths as the count vector (n_1, ..., n_p)."""
    out = [0] * decomp.p
    for chain in decomp.chains:
        out[chain.length - 1] += 1
    return tuple(out)


def _power_blocks(der: sparse.Coo, k: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The D-stable blocks: the components of the graph of D + D^T, in which
    every power of D is block diagonal, (D^j)_b = (D_b)^j.  Blocks of one
    size and one local matrix of D are equal, and so are their powers and
    their eliminations, so each is kept once.  Returns the block of each
    coordinate, the distinct block of each block, and the zero-padded stack
    of the distinct blocks of D, ..., D^k, power-major."""
    blocks = fp.components(der)
    local = fp.block_stack([der], blocks, blocks)
    count, size, _ = local.shape
    first, kind = fp.unique_rows(np.hstack([np.bincount(blocks)[:, None], local.reshape(count, size * size)]))
    stack = np.empty((k, len(first), size, size), dtype=np.int64)
    stack[0] = local[first]
    for j in range(1, k):
        np.matmul(stack[j - 1], stack[0], out=stack[j])
        stack[j] %= p
    return blocks, kind, stack.reshape(k * len(first), size, size)


def _rank_counts(ranks) -> tuple[int, ...]:
    """Block counts n_l = r_{l-1} - 2 r_l + r_{l+1}, l = 1..p, from the ranks
    [r_0, ..., r_{p+1}] of the powers of D."""
    return tuple(ranks[l - 1] - 2 * ranks[l] + ranks[l + 1] for l in range(1, len(ranks) - 1))


def rank_count_vector(powers: list[sparse.Coo], p: int) -> tuple[int, ...]:
    """Block counts straight from the ranks r_l of the powers [I, D, ..., D^p]
    of a derivation with D^p = 0 (so r_{p+1} = 0): n_l = r_{l-1} - 2 r_l + r_{l+1},
    each rank the sum of the ranks of the D-stable blocks, a distinct block's
    rank counted once per block it stands for."""
    _, kind, stack = _power_blocks(powers[1], p, p)
    _, pivots = fp.rref_batch(stack, p)
    ranks = (pivots >= 0).sum(axis=1).reshape(p, -1) @ np.bincount(kind)
    return _rank_counts([powers[0].shape[0]] + ranks.tolist() + [0])


def _orbits(der: sparse.Coo, heads, lengths, p: int) -> list[np.ndarray]:
    """The chains headed by the columns of heads (reduced mod p), longest
    first: chain a is the (lengths[a], dim) array of D^t heads[:, a].  D is
    applied to a shrinking prefix of the heads, one power at a time, and the
    chains of one length view one array of exactly their size."""
    lengths = np.asarray(lengths)
    dim = der.shape[0]
    level = np.asarray(heads, dtype=np.int64).reshape(dim, len(lengths))  # column a: D^t of head a
    groups, start = [], 0
    for length in sorted(set(lengths.tolist()), reverse=True):
        count = int(np.count_nonzero(lengths == length))
        groups.append((slice(start, start + count), np.empty((count, length, dim), dtype=np.int64)))
        start += count
    for t in range(int(lengths.max(initial=0))):
        if t:
            level = der.dot(level[:, : np.count_nonzero(lengths > t)]) % p
        for at, out in groups:
            if out.shape[1] > t:
                out[:, t] = level[:, at].T
    return [chain for _, out in groups for chain in out]


def _chains_of(powers: list[sparse.Coo], p: int) -> tuple[list[JordanChain], list[int]]:
    """Deterministic chain extraction: the chains of the heads that `_heads`
    picks, and the ranks [r_0, ..., r_{p+1}] of the powers of D.  The heads
    are taken first, so the elimination's arrays are freed before the chains
    are built."""
    heads, lengths, ranks = _heads(powers, p)
    return [JordanChain(vectors) for vectors in _orbits(powers[1], heads, lengths, p)], ranks


def _heads(powers: list[sparse.Coo], p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
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
    splits by block, and equal blocks give equal results: one elimination of
    the distinct blocks gives the kernels (and the ranks) of every power in
    every block, one more the ends of every W, and each block reads its
    picks off its distinct block.  Heads are ordered longest chain first,
    then by their free coordinate, as the global kernel basis orders them.
    """
    dim = powers[0].shape[0]
    if dim == 0:
        return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), [0] * (p + 2)
    blocks, kind, stack = _power_blocks(powers[1], p + 1, p)  # D^{p+1} = 0 when D^p = 0
    count, size = len(stack) // (p + 1), stack.shape[1]
    coords = fp.block_table(blocks)
    # kernel rows of every distinct block of D^1..D^{p+1}: row f has a 1 at free slot f
    rows, pivots = fp.rref_batch(stack, p)
    ranks = [dim] + ((pivots >= 0).sum(axis=1).reshape(p + 1, -1) @ np.bincount(kind)).tolist()
    free = np.zeros((p + 2, count, size), dtype=bool)  # free[l]: the free slots of D^l, none for D^0 = I
    free[1:, kind] = coords >= 0
    kernels = np.zeros((p + 2, count, size, size), dtype=np.int64)  # kernels[0] = ker I = 0
    at, rank = np.nonzero(pivots >= 0)
    free[1:].reshape(-1, size)[at, pivots[at, rank]] = False
    kernels[1:].reshape(-1, size, size)[at, :, pivots[at, rank]] = -rows[at, rank] % p
    kernels[~free] = 0
    kernels[:, :, np.arange(size), np.arange(size)] = free
    del rows  # the elimination arrays are freed once used: together they set the peak memory here
    # W for l = 1..p on the free coordinates of D^l, columns reversed: ker D^{l-1}, then D ker D^{l+1}
    spans = np.empty((p, count, 2 * size, size), dtype=np.int64)
    spans[:, :, :size] = kernels[:p, ..., ::-1]
    np.matmul(kernels[2:], stack[:count].transpose(0, 2, 1)[..., ::-1], out=spans[:, :, size:])
    del stack
    spans %= p
    spans *= free[1 : p + 1, :, None, ::-1]
    _, ends = fp.rref_batch(spans.reshape(p * count, 2 * size, size), p)
    del spans
    picked = free[1 : p + 1].copy()
    at, rank = np.nonzero(ends >= 0)
    picked.reshape(p * count, size)[at, size - 1 - ends[at, rank]] = False
    # the heads of every block, longest chain first, one column each
    shorter, block, slot = np.nonzero(picked[::-1][:, kind])
    order = np.lexsort((coords[block, slot], shorter))
    lengths, block, slot = p - shorter[order], block[order], slot[order]
    local, where = kernels[lengths, kind[block], slot], coords[block]
    heads = np.zeros((dim, len(lengths)), dtype=np.int64)
    row, col = np.nonzero(where >= 0)
    heads[where[row, col], row] = local[row, col]
    return heads, lengths, ranks


def jordan_decompose(realization: Realization) -> ChainDecomposition:
    """Complete chain decomposition of the derivation action, its chain
    counts checked against the rank formula on the ranks of the powers that
    the extraction eliminated."""
    alg = realization.algebra
    chains, ranks = _chains_of(realization.powers, alg.p)
    decomp = ChainDecomposition(tuple(chains), alg.p, alg.dim)
    decomp.validate(realization.powers[1])
    if block_counts(decomp) != _rank_counts(ranks):
        raise AssertionError("chain counts disagree with the rank formula")
    return decomp


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
    subset = tuple(sorted(int(i) for i in subset))
    if subset not in admissible_subsets(integral.gcm):
        raise PreconditionViolated(f"{subset} is not an admissible subset")
    if realization.element is None:
        raise PreconditionViolated("the boundary-node construction needs an inner realization")
    expected = np.zeros(alg.dim, dtype=np.int64)
    expected[[integral.generator_index("e", i) for i in subset]] = 1
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
    powers = realization.powers

    def unit(kind: str, k: int) -> np.ndarray:  # a row of its own, so no chain views a dim x dim array
        return (np.arange(alg.dim) == integral.generator_index(kind, k)).astype(np.int64)[None]

    attached = {i: attached_node(gcm, i) for i in subset}
    chains: list[JordanChain] = []

    touched_roots: set[Root] = set()
    for i in subset:
        j = attached[i]
        alpha_i, alpha_j = integral.roots.simple(i), integral.roots.simple(j)
        touched_roots.update({alpha_i, alpha_j, alpha_i + alpha_j})
        # e_j -> [e, e_j]
        chains.append(JordanChain(_orbits(powers[1], unit("e", j), [2], alg.p)[0], tag=("e", j)))
        # [f, f_j] -> f_j
        ff = alg.bracket(unit("f", i), unit("f", j))
        chain = JordanChain(_orbits(powers[1], ff, [2], alg.p)[0], tag=("f", j))
        if not np.array_equal(chain.tail, unit("f", j)[0]):
            raise AssertionError("[f, f_j] does not map onto f_j")
        chains.append(chain)
        # f_i -> h_i -> -2 e_i
        chains.append(JordanChain(_orbits(powers[1], unit("f", i), [3], alg.p)[0]))
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
    if (np.isin(powers[1].col, rest_idx) & ~np.isin(powers[1].row, rest_idx)).any():  # D b_col has a row outside
        raise AssertionError("complement is not D-stable")
    # the complement is D-stable, so the powers of D on it are the rest x rest blocks of D^k
    rest = np.ix_(rest_idx, rest_idx)
    for chain in _chains_of([sparse.from_dense(power.toarray()[rest]) for power in powers], alg.p)[0]:
        vectors = np.zeros((chain.length, alg.dim), dtype=np.int64)
        vectors[:, rest_idx] = chain.vectors
        chains.append(JordanChain(vectors))
    decomp = ChainDecomposition(tuple(chains), alg.p, alg.dim)
    decomp.validate(powers[1])
    return decomp
