"""Cartan matrices with parities, finite root systems, and Dynkin-diagram combinatorics.

Conventions, fixed once for the whole package:
  * a_ij = alpha_j(h_i), so [h_i, e_j] = a_ij e_j and the simple reflection
    acts by s_i(gamma) = gamma - gamma(h_i) alpha_i with
    gamma(h_i) = sum_j c_j a_ij for gamma = sum_j c_j alpha_j.
  * Positive roots are ordered by (height, lexicographic coordinates); that
    order fixes basis order everywhere downstream.
  * Node labels are 1-based, matching the printed Cartan matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import AxiomViolation, BadSpec, IllegalSwap, NotFiniteType

EVEN, ODD = 0, 1

_ROOT_BOUND = 2000
_HEIGHT_BOUND = 128


@dataclass(frozen=True)
class GCM:
    """Generalized Cartan matrix with a parity vector, validated on construction."""

    entries: tuple[tuple[int, ...], ...]
    parity: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def a(self, i: int, j: int) -> int:
        """Entry a_ij, 1-based."""
        return self.entries[i - 1][j - 1]

    def matrix(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    @property
    def all_even(self) -> bool:
        return all(par == EVEN for par in self.parity)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.n + 1) if j != i and self.a(i, j) != 0)

    def single_edge(self, i: int, j: int) -> bool:
        return self.a(i, j) == -1 and self.a(j, i) == -1

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.a(i, j) != 0


def exact_int(value, field: str) -> int:
    """value as an int, read exactly: a float, a bool, a string or anything
    else that is not an integer raises BadSpec naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadSpec(f"{field} must be an integer, not {value!r}")
    return int(value)


def _exact_ints(values, field: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise BadSpec(f"{field} must be a list, not {values!r}")
    return tuple(exact_int(x, f"{field}[{i}]") for i, x in enumerate(values))


def validate_gcm(entries, parity=None) -> GCM:
    """Check the four GCM axioms; raise AxiomViolation(axiom index) on failure.
    Entries and parities are read exactly (BadSpec names a value that is
    not an integer).

    With parity omitted, it is deduced from the diagonal (2 -> even, 0/1 -> odd).
    """
    if not isinstance(entries, (list, tuple)):
        raise BadSpec(f"cartan must be a list of rows, not {entries!r}")
    mat = [_exact_ints(row, f"cartan[{i}]") for i, row in enumerate(entries)]
    n = len(mat)
    if not n:
        raise BadSpec("cartan must have at least one row")
    if any(len(row) != n for row in mat):
        raise BadSpec("Cartan matrix must be square")
    if parity is None:
        parity = []
        for i in range(n):
            d = mat[i][i]
            if d == 2:
                parity.append(EVEN)
            elif d in (0, 1):
                parity.append(ODD)
            else:
                raise AxiomViolation(1, f"a_{i+1}{i+1} = {d} fits no parity")
    parity = _exact_ints(parity, "parity")
    if len(parity) != n or any(par not in (EVEN, ODD) for par in parity):
        raise BadSpec("parity vector must be 0/1 of matching length")
    for i in range(n):
        if parity[i] == EVEN and mat[i][i] != 2:
            raise AxiomViolation(1, f"a_{i+1}{i+1} = {mat[i][i]} for even node {i+1}")
        if parity[i] == ODD and mat[i][i] not in (0, 1):
            raise AxiomViolation(2, f"a_{i+1}{i+1} = {mat[i][i]} for odd node {i+1}")
        if mat[i][i] == 2:
            for j in range(n):
                if j != i and mat[i][j] > 0:
                    raise AxiomViolation(3, f"a_{i+1}{j+1} = {mat[i][j]} > 0")
        for j in range(n):
            if i != j and (mat[i][j] == 0) != (mat[j][i] == 0):
                raise AxiomViolation(4, f"a_{i+1}{j+1} and a_{j+1}{i+1} differ in vanishing")
    return GCM(tuple(mat), parity)


@dataclass(frozen=True)
class Root:
    """Element of the root lattice, coordinates over the simple roots."""

    coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))


def _sort_key(root: Root):
    return (root.height, root.coords)


@dataclass(frozen=True)
class RootSystem:
    """Positive roots of a finite-type, purely even Cartan matrix."""

    gcm: GCM
    positive: tuple[Root, ...]
    _index: dict[Root, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({r: i for i, r in enumerate(self.positive)})

    @property
    def rank(self) -> int:
        return self.gcm.n

    def index(self, r: Root) -> int:
        return self._index[r]

    def simple(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        coords = [0] * self.rank
        coords[i - 1] = 1
        return Root(tuple(coords))

    def pairing(self, gamma: Root, i: int) -> int:
        """gamma(h_i) = sum_j c_j a_ij."""
        return sum(c * self.gcm.a(i, j + 1) for j, c in enumerate(gamma.coords))

    def symmetrizer(self) -> tuple[int, ...]:
        """Smallest positive integers d_i, per connected component, with
        d_i a_ij = d_j a_ji; d_i = (alpha_i, alpha_i)/2 up to scale."""
        n = self.rank
        a = self.gcm.entries
        d = [0] * n
        for start in range(n):
            if d[start]:
                continue
            d[start] = 1
            component = [start]
            for i in component:
                for j in range(n):
                    if j != i and a[i][j] and not d[j]:
                        # d_j = d_i a_ij / a_ji; rescale the component when that is no integer
                        scale = abs(a[j][i]) // gcd(d[i] * a[i][j], a[j][i])
                        for k in component:
                            d[k] *= scale
                        d[j] = d[i] * a[i][j] // a[j][i]
                        component.append(j)
            g = gcd(*(d[k] for k in component))
            for k in component:
                d[k] //= g
        assert all(x > 0 for x in d)
        return tuple(d)


def positive_roots(gcm: GCM) -> RootSystem:
    """All positive roots by reflection closure from the simple roots.

    Raises NotFiniteType when the closure escapes the configured bounds,
    which it does for every affine or indefinite matrix.
    """
    if not gcm.all_even:
        raise ValueError("root enumeration needs a purely even Cartan matrix")
    n = gcm.n
    simple = [Root(tuple(1 if k == i else 0 for k in range(n))) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(1, n + 1):
                pairing = sum(c * gcm.a(i, j + 1) for j, c in enumerate(r.coords))
                refl = Root(tuple(c - pairing * s for c, s in zip(r.coords, simple[i - 1].coords)))
                if all(c >= 0 for c in refl.coords) and refl not in seen:
                    if refl.height > _HEIGHT_BOUND or len(seen) > _ROOT_BOUND:
                        raise NotFiniteType("reflection closure exceeded bounds")
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return RootSystem(gcm, tuple(sorted(seen, key=_sort_key)))


def boundary_nodes(gcm: GCM) -> tuple[int, ...]:
    """Nodes with exactly one neighbor, attached by a single edge."""
    out = []
    for i in range(1, gcm.n + 1):
        nbrs = gcm.neighbors(i)
        if len(nbrs) == 1 and gcm.single_edge(i, nbrs[0]):
            out.append(i)
    return tuple(out)


def attached_node(gcm: GCM, i: int) -> int:
    """The unique neighbor of a boundary node."""
    nbrs = gcm.neighbors(i)
    if len(nbrs) != 1:
        raise ValueError(f"node {i} is not a boundary node")
    return nbrs[0]


def admissible_subsets(gcm: GCM) -> list[tuple[int, ...]]:
    """Subsets S of boundary nodes with pairwise non-adjacent members and distinct attached nodes."""
    from itertools import combinations

    boundary = boundary_nodes(gcm)
    out: list[tuple[int, ...]] = []
    for size in range(len(boundary) + 1):
        for sub in combinations(boundary, size):
            if any(gcm.adjacent(a, b) for a, b in combinations(sub, 2)):
                continue
            attached = [attached_node(gcm, i) for i in sub]
            if len(set(attached)) != len(attached):
                continue
            out.append(sub)
    return out


def derive_tilde(gcm: GCM, subset) -> GCM:
    """Delete the nodes of the admissible subset; zero the diagonal of each attached node.

    Surviving nodes keep their relative order; parity is odd exactly at the
    attached nodes.  The result is validated against the GCM axioms.
    """
    subset = tuple(sorted(subset))
    if subset and subset not in admissible_subsets(gcm):
        raise ValueError(f"{subset} is not an admissible subset")
    attached = {attached_node(gcm, i) for i in subset}
    survivors = [i for i in range(1, gcm.n + 1) if i not in subset]
    entries = []
    parity = []
    for i in survivors:
        row = []
        for j in survivors:
            if i == j and i in attached:
                row.append(0)
            else:
                row.append(gcm.a(i, j))
        entries.append(tuple(row))
        parity.append(ODD if i in attached else EVEN)
    return validate_gcm(entries, parity)


@dataclass(frozen=True)
class Coloring:
    """A black/white node coloring with no two black nodes adjacent
    (IllegalSwap names a black node out of range or two adjacent ones)."""

    gcm: GCM
    black: frozenset[int]

    def __post_init__(self):
        for i in self.black:
            if not 1 <= i <= self.gcm.n:
                raise IllegalSwap(f"node {i} out of range")
        for i in self.black:
            for j in self.black:
                if i < j and self.gcm.adjacent(i, j):
                    raise IllegalSwap(f"black nodes {i}, {j} are adjacent")

    def sorted_black(self) -> tuple[int, ...]:
        return tuple(sorted(self.black))


def legal_swap(coloring: Coloring, i: int, j: int) -> Coloring:
    """Move the black color from i to the adjacent white node j.

    Legal iff i-j is a single edge and no other neighbor of j is black.
    """
    if i not in coloring.black:
        raise IllegalSwap(f"node {i} is not black")
    if j in coloring.black:
        raise IllegalSwap(f"node {j} is not white")
    if not coloring.gcm.adjacent(i, j):
        raise IllegalSwap(f"nodes {i}, {j} are not adjacent")
    if not coloring.gcm.single_edge(i, j):
        raise IllegalSwap(f"edge {i}-{j} is not a single edge")
    for k in coloring.gcm.neighbors(j):
        if k != i and k in coloring.black:
            raise IllegalSwap(f"node {j} has another black neighbor {k}")
    return Coloring(coloring.gcm, (coloring.black - {i}) | {j})


def swap_orbit(coloring: Coloring) -> list[Coloring]:
    """Closure of the coloring under legal swaps, in breadth-first order."""
    seen = {coloring.sorted_black(): coloring}
    queue = [coloring]
    while queue:
        current = queue.pop(0)
        moves = []
        for i in sorted(current.black):
            for j in current.gcm.neighbors(i):
                try:
                    moves.append(legal_swap(current, i, j))
                except IllegalSwap:
                    continue
        for nxt in sorted(moves, key=lambda c: c.sorted_black()):
            key = nxt.sorted_black()
            if key not in seen:
                seen[key] = nxt
                queue.append(nxt)
    return [seen[k] for k in sorted(seen)]


def diagram_json(gcm: GCM, black=()) -> dict:
    """Diagram as plain data: nodes with parity, edges with both Cartan entries."""
    edges = []
    for i in range(1, gcm.n + 1):
        for j in range(i + 1, gcm.n + 1):
            if gcm.adjacent(i, j):
                edges.append({"nodes": [i, j], "a_ij": gcm.a(i, j), "a_ji": gcm.a(j, i)})
    return {
        "nodes": [{"index": i, "parity": gcm.parity[i - 1]} for i in range(1, gcm.n + 1)],
        "edges": edges,
        "black": sorted(black),
    }


def diagram_ascii(gcm: GCM, black=()) -> str:
    """One line per node: index, parity marker, black marker, neighbor list."""
    lines = []
    blackset = set(black)
    for i in range(1, gcm.n + 1):
        mark = "*" if i in blackset else ("x" if gcm.parity[i - 1] == ODD else "o")
        nbrs = ", ".join(
            f"{j}({gcm.a(i, j)},{gcm.a(j, i)})" for j in gcm.neighbors(i)
        )
        lines.append(f"{i:>3} {mark}  - {nbrs}")
    return "\n".join(lines)


_CHAIN_TYPES = {"a", "b", "c", "d"}


@lru_cache(maxsize=None)
def catalog_gcm(name: str) -> GCM:
    """Cartan matrices by name: g2, f4, e6, e7, e8, and a<n>/b<n>/c<n>/d<n>.

    Entries follow the a_ij = alpha_j(h_i) convention throughout.
    """
    name = name.lower()
    if name == "g2":
        return validate_gcm([[2, -3], [-1, 2]])
    if name == "f4":
        return validate_gcm([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    if name in ("e6", "e7", "e8"):
        n = int(name[1])
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 2
        # Chain 3-4-...-n with 1 attached to 3 and 2 attached to 4.
        edges = [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, n)]
        for i, j in edges:
            mat[i - 1][j - 1] = -1
            mat[j - 1][i - 1] = -1
        return validate_gcm(mat)
    if name and name[0] in _CHAIN_TYPES and name[1:].isascii() and name[1:].isdigit():
        kind, n = name[0], int(name[1:])
        if n < 1 or (kind == "b" and n < 2) or (kind == "c" and n < 2) or (kind == "d" and n < 3):
            raise BadSpec(f"rank too small for type {kind}")
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 2
        for k in range(1, n):
            mat[k - 1][k] = -1
            mat[k][k - 1] = -1
        if kind == "b" and n >= 2:
            # alpha_n short: a_{n,n-1} = -2.
            mat[n - 1][n - 2] = -2
        elif kind == "c" and n >= 2:
            # alpha_n long: a_{n-1,n} = -2.
            mat[n - 2][n - 1] = -2
        elif kind == "d":
            mat[n - 1][n - 2] = 0
            mat[n - 2][n - 1] = 0
            mat[n - 1][n - 3] = -1
            mat[n - 3][n - 1] = -1
        return validate_gcm(mat)
    raise BadSpec(f"unknown catalog name {name!r}")
