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
import scipy.sparse as sp

from . import fp
from .errors import DegreeExceedsP, ParseError, PreconditionViolated, UnknownGenerator
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
    """Algebra plus a nilpotent derivation D with D^p = 0, carrying its
    powers [I, D, ..., D^p] as sparse matrices; D and its powers are read-only."""

    algebra: ModularSuperAlgebra
    der: np.ndarray
    powers: list[sp.csr_matrix] = field(repr=False)
    element: Optional[np.ndarray] = None

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def degree(self) -> int:
        """Smallest k >= 1 with D^k = 0."""
        return next(k for k in range(1, len(self.powers)) if not self.powers[k].nnz)


def _realization(alg: ModularSuperAlgebra, der: np.ndarray, element) -> Realization:
    powers = fp.powers(der, alg.p, alg.p)
    if powers[-1].nnz:
        fp.nilpotency_degree(der, alg.p)  # raises NotNilpotent when appropriate
        raise DegreeExceedsP(f"derivation is nilpotent of degree > {alg.p}")
    _freeze(der, *powers)
    return Realization(algebra=alg, der=der, powers=powers, element=element)


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
    leibniz = alg.brackets(eye, eye) @ sp.csr_matrix(moved)
    leibniz = leibniz - alg.brackets(moved, eye) - alg.brackets(eye, moved)
    leibniz.data %= alg.p
    leibniz.eliminate_zeros()
    if leibniz.nnz:
        i = int(np.flatnonzero(np.diff(leibniz.indptr))[0]) // alg.dim
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
    """The arrays holding the entries of a dense, CSR or CSC matrix, and the arrays they view."""
    out = [m.data, m.indices, m.indptr] if getattr(m, "format", None) in ("csr", "csc") else [np.asarray(m)]
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

    def counts(self) -> tuple[int, ...]:
        out = [0] * self.p
        for chain in self.chains:
            out[chain.length - 1] += 1
        return tuple(out)

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
            self._check(der if sp.issparse(der) else sp.csr_matrix(der))
            _freeze(*(chain.vectors for chain in self.chains))
            self._validated = seen

    def _check(self, der: sp.spmatrix):
        """D maps every chain vector to the next one and the tail to zero,
        checked for all vectors in one product; the vectors form a basis,
        checked one block of the basis matrix at a time."""
        for chain in self.chains:
            if not 1 <= chain.length <= self.p:
                raise ValueError(f"chain length {chain.length} outside 1..p")
        total = sum(chain.length for chain in self.chains)
        if total != self.dim:
            raise ValueError(f"chain lengths sum to {total}, dim is {self.dim}")
        if not total:
            return
        vectors = np.vstack([chain.vectors for chain in self.chains])  # row k: basis column k
        tails = np.cumsum([chain.length for chain in self.chains]) - 1
        shifted = np.zeros_like(vectors)
        shifted[:-1] = vectors[1:]
        shifted[tails] = 0  # D kills the tail
        images = (der @ vectors.T).T % self.p
        wrong = np.flatnonzero((images != shifted).any(axis=1))
        if wrong.size and wrong[0] in tails:
            raise ValueError("chain does not terminate")
        if wrong.size:
            raise ValueError("chain is not a D-orbit")
        # the rank of the basis is the sum of the ranks of the blocks of its
        # own row/column graph, whatever the chains are
        col, row = np.nonzero(vectors)
        graph = sp.coo_matrix((np.ones(len(row)), (row, self.dim + col)), shape=(2 * self.dim,) * 2)
        blocks = fp.components(graph)
        _, pivots = fp.rref_batch(fp.block_stack([vectors.T], blocks[: self.dim], blocks[self.dim :]), self.p)
        if np.count_nonzero(pivots >= 0) != self.dim:
            raise ValueError("chain vectors are not a basis")


def block_counts(decomp: ChainDecomposition) -> tuple[int, ...]:
    """Multiset of chain lengths as the count vector (n_1, ..., n_p)."""
    return decomp.counts()


def _power_blocks(powers: list[sp.csr_matrix]) -> tuple[np.ndarray, np.ndarray]:
    """The D-stable blocks of the powers [I, D, D^2, ...]: the components of
    the graph of D + D^T, in which every power is block diagonal.  Returns
    the block of each coordinate and the stack of the diagonal blocks of
    powers[1:], power-major."""
    blocks = fp.components(powers[1])
    return blocks, fp.block_stack(powers[1:], blocks, blocks)


def rank_count_vector(powers: list[sp.csr_matrix], p: int) -> tuple[int, ...]:
    """Block counts straight from the ranks r_l of the powers [I, D, ..., D^p]
    of a derivation with D^p = 0 (so r_{p+1} = 0): n_l = r_{l-1} - 2 r_l + r_{l+1},
    each rank the sum of the ranks of the D-stable blocks."""
    _, stack = _power_blocks(powers)
    _, pivots = fp.rref_batch(stack, p)
    ranks = [powers[0].shape[0]] + (pivots >= 0).reshape(p, -1).sum(axis=1).tolist() + [0]
    return tuple(ranks[l - 1] - 2 * ranks[l] + ranks[l + 1] for l in range(1, p + 1))


def _orbits(powers: list[sp.csr_matrix], heads, length: int, p: int) -> np.ndarray:
    """The chains of one length headed by the rows of heads, all at once:
    entry [a, t] is D^t heads[a]."""
    heads = np.asarray(heads, dtype=np.int64).reshape(-1, powers[0].shape[0]).T
    return np.stack([(powers[t] @ heads).T % p for t in range(length)], axis=1)


def _chains_of(powers: list[sp.csr_matrix], p: int) -> list[JordanChain]:
    """Deterministic chain extraction: for lengths l = p down to 1, heads are
    a complement of (ker D^{l-1} + im D) inside ker D^l, picked by echelon order.

    The candidates are the fp.kernel_basis rows of D^l (row f has a 1 at the
    free column f and zeros at the other free columns), and one heads a chain
    when it is independent of that subspace and of the candidates before it.
    Inside ker D^l the subspace is W = ker D^{l-1} + D ker D^{l+1}, and a
    vector of ker D^l is fixed by its free coordinates; so the candidate at f
    is picked exactly when no vector of W ends at f (is nonzero at f and at no
    later free column), that is, when f is not a pivot of W's free
    coordinates eliminated right to left.

    Every power of D is block diagonal in the D-stable blocks, so all of this
    splits by block: one elimination gives the kernels of every power in
    every block, one more the ends of every W.  Heads are ordered by their
    free coordinate, as the global kernel basis orders them.
    """
    dim = powers[0].shape[0]
    if dim == 0:
        return []
    beyond = powers[-1] @ powers[1]  # D^{p+1}, zero when D^p = 0
    beyond.data %= p
    blocks, stack = _power_blocks([*powers, beyond])
    coords = fp.block_table(blocks)
    count, size = coords.shape
    # kernel rows of every block of D^1..D^{p+1}: row f has a 1 at free slot f
    rows, pivots = fp.rref_batch(stack, p)
    free = np.tile(coords >= 0, (p + 1, 1))
    at, rank = np.nonzero(pivots >= 0)
    free[at, pivots[at, rank]] = False
    kernels = np.zeros_like(rows)
    kernels[at, :, pivots[at, rank]] = -rows[at, rank] % p
    kernels *= free[:, :, None]
    kernels[:, np.arange(size), np.arange(size)] = free
    kernels = np.concatenate([np.zeros((count, size, size), dtype=np.int64), kernels]).reshape(p + 2, count, size, size)
    free = np.concatenate([np.zeros((count, size), dtype=bool), free]).reshape(p + 2, count, size)
    # W for l = 1..p on the free coordinates of D^l, columns reversed
    images = kernels[2:] @ stack[:count].transpose(0, 2, 1) % p  # rows D x for x in ker D^{l+1}
    spans = np.concatenate([kernels[:p], images], axis=2) * free[1 : p + 1, :, None, :]
    _, ends = fp.rref_batch(spans[..., ::-1].reshape(p * count, 2 * size, size), p)
    picked = free[1 : p + 1].reshape(p * count, size).copy()
    at, rank = np.nonzero(ends >= 0)
    picked[at, size - 1 - ends[at, rank]] = False
    picked = picked.reshape(p, count, size)
    chains: list[JordanChain] = []
    for length in range(p, 0, -1):
        block, slot = np.nonzero(picked[length - 1])
        local, where = kernels[length][block, slot], coords[block]
        heads = np.zeros((len(block), dim), dtype=np.int64)
        row, col = np.nonzero(where >= 0)
        heads[row, where[row, col]] = local[row, col]
        heads = heads[np.argsort(coords[block, slot])]
        chains += [JordanChain(vectors) for vectors in _orbits(powers, heads, length, p)]
    return chains


def jordan_decompose(realization: Realization) -> ChainDecomposition:
    """Complete chain decomposition of the derivation action."""
    alg = realization.algebra
    decomp = ChainDecomposition(tuple(_chains_of(realization.powers, alg.p)), alg.p, alg.dim)
    decomp.validate(realization.powers[1])
    if decomp.counts() != rank_count_vector(realization.powers, alg.p):
        raise AssertionError("chain counts disagree with the rank formula")
    return decomp


def structured_decompose(realization: Realization, subset) -> ChainDecomposition:
    """Generator-compatible decomposition for e = sum of e_i over an
    admissible subset of boundary nodes, characteristic 3.

    Tagged chains: per subset node i with attached node j, a J_2 headed by
    e_j, a J_2 ending at f_j, and the J_3 through (f_i, h_i, -2 e_i); per
    untouched node k, singleton chains for e_k, f_k, h_k; and a singleton
    h_j - h_i per subset node.  The D-stable complement spanned by the
    remaining root vectors is decomposed generically.
    """
    alg = realization.algebra
    integral = alg.origin
    if integral is None or not hasattr(integral, "roots"):
        raise PreconditionViolated("structured decomposition needs a Chevalley-basis algebra")
    if alg.p != 3:
        raise PreconditionViolated("structured decomposition is a characteristic-3 construction")
    subset = tuple(sorted(int(i) for i in subset))
    gcm = integral.gcm
    if subset not in admissible_subsets(gcm):
        raise PreconditionViolated(f"{subset} is not an admissible subset")
    if realization.element is None:
        raise PreconditionViolated("structured decomposition needs an inner realization")
    eye = np.eye(alg.dim, dtype=np.int64)
    expected = np.zeros(alg.dim, dtype=np.int64)
    for i in subset:
        expected = (expected + eye[integral.generator_index("e", i)]) % alg.p
    if not np.array_equal(realization.element % alg.p, expected):
        raise PreconditionViolated("element must be the sum of e_i over the subset")
    der, powers = realization.der, realization.powers
    attached = {i: attached_node(gcm, i) for i in subset}
    chains: list[JordanChain] = []

    touched_roots: set[Root] = set()
    for i in subset:
        j = attached[i]
        alpha_i, alpha_j = integral.roots.simple(i), integral.roots.simple(j)
        touched_roots.update({alpha_i, alpha_j, alpha_i + alpha_j})
        # e_j -> [e, e_j]
        chains.append(JordanChain(_orbits(powers, eye[integral.generator_index("e", j)], 2, alg.p)[0], tag=("e", j)))
        # [f, f_j] -> f_j
        ff = alg.bracket(eye[integral.generator_index("f", i)], eye[integral.generator_index("f", j)])
        chain = JordanChain(_orbits(powers, ff, 2, alg.p)[0], tag=("f", j))
        if not np.array_equal(chain.tail, eye[integral.generator_index("f", j)]):
            raise AssertionError("[f, f_j] does not map onto f_j")
        chains.append(chain)
        # f_i -> h_i -> -2 e_i
        chains.append(JordanChain(_orbits(powers, eye[integral.generator_index("f", i)], 3, alg.p)[0]))
        # h_j - h_i
        hdiff = (eye[integral.generator_index("h", j)] - eye[integral.generator_index("h", i)]) % alg.p
        chains.append(JordanChain(hdiff.reshape(1, -1), tag=("h", j)))
    untouched = [k for k in range(1, gcm.n + 1) if k not in subset and k not in attached.values()]
    for k in untouched:
        chains += [JordanChain(eye[integral.generator_index(kind, k)].reshape(1, -1), tag=(kind, k)) for kind in "efh"]
    # Complement: root spaces the template leaves alone.  Every simple root
    # vector sits in a tagged chain, so only non-simple roots other than the
    # sums alpha_i + alpha_j remain.
    rest_idx = []
    for gi, gamma in enumerate(integral.roots.positive):
        if gamma.height == 1 or gamma in touched_roots:
            continue
        rest_idx.extend([gi, integral.npos + gi])
    rest_idx = sorted(rest_idx)
    outside = [r for r in range(alg.dim) if r not in set(rest_idx)]
    if der[np.ix_(outside, rest_idx)].any():
        raise AssertionError("complement is not D-stable")
    # the complement is D-stable, so the powers of D on it are the rest x rest blocks of D^k
    for chain in _chains_of([power[rest_idx][:, rest_idx] for power in powers], alg.p):
        vectors = np.zeros((chain.length, alg.dim), dtype=np.int64)
        vectors[:, rest_idx] = chain.vectors
        chains.append(JordanChain(vectors))
    decomp = ChainDecomposition(tuple(chains), alg.p, alg.dim)
    decomp.validate(powers[1])
    return decomp
