"""Certificates that a semisimplified algebra is a named target superalgebra.

Isomorphism is certified, never searched: superdimension match, the
contragredient relations for labeled generator images, generation, and the
odd-cube axiom together pin the target.  The characteristic-5 construction
is certified through its even part instead (Cartan-type recognition plus an
irreducible odd module), matching how that algebra is identified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fp, sparse
from .errors import BadSpec, NotDiagonalizable, PreconditionViolated, UnknownTarget, UnrecognizedType
from .repalpha import Realization, boundary_subset, parse_element
from .roots import GCM, attached_node, catalog_gcm, derive_tilde, positive_roots, validate_gcm
from .semisimplify import SemisimplifiedAlgebra
from .superalgebra import (
    ModularSuperAlgebra,
    Report,
    Subspace,
    check_odd_cubes,
    check_super_jacobi,  # noqa: F401  (unused, `ss.checks` holds the report; perfbench/spans.py wraps it here)
    generated_subalgebra,
    superdim,
)

# -- target catalog ----------------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    name: str
    p: int
    superdim: tuple[int, int]
    gcm: GCM | None
    even_type: str | None = None  # set for targets identified through their even part


def _t(name, matrix, sdim, p=3) -> TargetSpec:
    return TargetSpec(name=name, p=p, superdim=sdim, gcm=validate_gcm(matrix))


@lru_cache(maxsize=None)
def target_catalog() -> tuple[TargetSpec, ...]:
    """The twelve catalogued targets; parity sets are deduced from the diagonals."""
    return (
        _t("g(1,6)", [[2, -1, 0], [-1, 2, -2], [0, -1, 0]], (21, 14)),
        _t("g(2,3)", [[0, -1, 0], [-1, 0, -1], [0, -1, 0]], (11, 14)),
        _t("g(3,3)", [[0, -1, 0, 0], [-1, 0, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], (22, 16)),
        _t("g(2,6)", [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 0, -1, 0],
                      [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]], (35, 20)),
        _t("g(4,3)", [[0, -1, 0, 0], [-1, 0, -1, 0], [0, -1, 2, -1], [0, 0, -1, 0]], (24, 26)),
        _t("g(4,6)", [[2, 0, -1, 0, 0, 0], [0, 0, -1, 0, 0, 0], [-1, -1, 2, -1, 0, 0],
                      [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]], (66, 32)),
        _t("el(5;3)", [[2, 0, -1, 0, 0], [0, 0, -1, 0, 0], [-1, -1, 2, -1, 0],
                       [0, 0, -1, 2, -1], [0, 0, 0, -1, 0]], (39, 32)),
        _t("g(8,3)", [[0, -1, 0, 0, 0], [-1, 0, -1, 0, 0], [0, -1, 2, -1, 0],
                      [0, 0, -1, 2, -1], [0, 0, 0, -1, 0]], (55, 50)),
        _t("g(6,6)", [[0, -1, 0, 0, 0, 0], [-1, 0, -1, 0, 0, 0], [0, -1, 2, -1, 0, 0],
                      [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]], (78, 64)),
        _t("g(8,6)", [[2, 0, -1, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0], [-1, -1, 2, -1, 0, 0, 0],
                      [0, 0, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
                      [0, 0, 0, 0, 0, -1, 2]], (133, 56)),
        _t("g(3,6)", [[0, -1, 0, 0], [-1, 0, -1, 0], [0, -1, 0, -2], [0, 0, -1, 2]], (36, 40)),
        TargetSpec(name="el(5;5)", p=5, superdim=(55, 32), gcm=None, even_type="B5"),
    )


def target_by_name(name: str) -> TargetSpec:
    for t in target_catalog():
        if t.name == name:
            return t
    raise UnknownTarget(f"unknown target {name!r}")


def tilde_target(name: str, ss: SemisimplifiedAlgebra, subset, sdim=None) -> TargetSpec:
    """Target whose relation matrix is derived from the source algebra and
    subset; its superdimension is `sdim`, or else the named catalog entry's."""
    gcm = derive_tilde(ss.realization.algebra.origin.gcm, subset)
    return TargetSpec(name=name, p=ss.p, superdim=sdim or target_by_name(name).superdim, gcm=gcm)


# -- generator images ----------------------------------------------------------


def plan_images(ss: SemisimplifiedAlgebra, plan) -> np.ndarray:
    """Images of a generator plan, one (e, f, h) triple of element
    expressions per target node: each expression is evaluated in the source
    algebra and mapped through `ss.image`.  Returns the (3, rank, dim) array
    of the e, f and h images in node order."""
    alg = ss.realization.algebra
    images = [[ss.image(parse_element(expr, alg)[1]) for expr in triple] for triple in plan]
    return np.array(images, dtype=np.int64).reshape(len(plan), 3, ss.algebra.dim).transpose(1, 0, 2)


def generator_images(ss: SemisimplifiedAlgebra, subset) -> np.ndarray:
    """Images of the Chevalley generators of the nodes outside an admissible
    subset, in node order: (e_k, f_k, h_k), or (e_k, [f_i, f_k], h_k - h_i)
    when k is attached to subset node i."""
    subset = boundary_subset(ss.realization, subset)
    gcm = ss.realization.algebra.origin.gcm
    attached = {attached_node(gcm, i): i for i in subset}
    plan = [(f"e{k}", f"[f{attached[k]},f{k}]", f"h{k}-h{attached[k]}") if k in attached
            else (f"e{k}", f"f{k}", f"h{k}") for k in range(1, gcm.n + 1) if k not in subset]
    return plan_images(ss, plan)


# the rank-8 source at e_1 + e_2 + e_6 + e_8: three odd nodes on the chains
# headed by e_3, e_4, e_5, one even node on the singleton [e_6,e_7] - [e_8,e_7]
G36_PLAN = (("e3", "[f1,f3]", "h3"), ("e4", "[f2,f4]", "h4"), ("e5", "[f6,f5]", "h5"),
            ("[e6,e7]-[e8,e7]", "[f8,f7]-[f6,f7]", "h6-h7+h8"))


def require_plan_g36_element(realization: Realization) -> None:
    """PreconditionViolated unless the realization is of e_1 + e_2 + e_6 + e_8
    on the rank-8 catalog algebra, the one element `G36_PLAN` is written for."""
    alg = realization.algebra
    if alg.dim != 248:
        raise PreconditionViolated("custom plan expects the rank-8 catalog algebra")
    element = realization.element
    if element is None or not np.array_equal(element, parse_element("e1+e2+e6+e8", alg)[1]):
        raise PreconditionViolated("custom plan expects the element e1 + e2 + e6 + e8")


def custom_plan_g36(ss: SemisimplifiedAlgebra) -> np.ndarray:
    """Images of `G36_PLAN`, under `require_plan_g36_element`."""
    require_plan_g36_element(ss.realization)
    return plan_images(ss, G36_PLAN)


# -- relation and generation checks -------------------------------------------


def check_relations(alg: ModularSuperAlgebra, gens: np.ndarray, target: TargetSpec) -> Report:
    """[e_i, f_j] = d_ij h_i, [h_i, e_j] = a_ij e_j, [h_i, f_j] = -a_ij f_j,
    [h_i, h_j] = 0, and the generator parities match the target's; `gens`
    is the (3, rank, dim) array of the e, f and h images.  A failure's
    witness lists every failing relation under "failures"."""
    e, f, h = gens = fp.normalize(gens, alg.p)
    r, p = len(e), alg.p
    if target.gcm is None or r != target.gcm.n:
        failures = [{"relation": "rank", "expected": target.gcm.n if target.gcm else None, "actual": r}]
        return Report("relations", False, {"failures": failures})
    # e_i and f_i nonzero with node i's parity, h_i even; an image that mixes parities reads -1, so it fails
    parity = alg.parities(gens.reshape(-1, alg.dim)).reshape(3, r)
    wrong = parity != [target.gcm.parity] * 2 + [[0] * r]
    wrong[:2] |= ~gens[:2].any(axis=2)
    failures = [{"relation": "parity", "generator": f"{'efh'[k]}{i + 1}"}
                for i in range(r) for k in range(3) if wrong[k, i]]
    a = target.gcm.matrix()[:, :, None]
    # [x_i, y_j] at [i, j] against its expected value, one brackets call per kind
    wanted = {"ef": np.eye(r, dtype=np.int64)[:, :, None] * h[:, None], "he": a * e, "hf": -a * f,
              "hh": np.zeros((r, r, alg.dim), dtype=np.int64)}
    bad = {kind: ((alg.brackets(x, y).toarray().reshape(r, r, alg.dim) - wanted[kind]) % p).any(axis=2)
           for kind, x, y in (("ef", e, f), ("he", h, e), ("hf", h, f), ("hh", h, h))}
    failures += [{"relation": kind, "i": i + 1, "j": j + 1}
                 for i in range(r) for j in range(r) for kind in bad if bad[kind][i, j]]
    return Report("relations", not failures, {"failures": failures} if failures else None)


def check_generation(alg: ModularSuperAlgebra, gens: np.ndarray) -> Report:
    """The generator images generate the algebra; a failure's witness is the
    generated dimension against the algebra's."""
    generated = generated_subalgebra(alg, gens.reshape(-1, alg.dim)).dim
    ok = generated == alg.dim
    return Report("generation", ok, None if ok else {"dim": generated, "expected": alg.dim})


# -- certificates --------------------------------------------------------------


@dataclass
class Certificate:
    """The superdimensions and three reports a verdict follows from, and the verdict."""

    target: str
    p: int
    actual_superdim: tuple[int, int]
    expected_superdim: tuple[int, int]
    relations: Report
    generation: Report
    odd_cubes: Report
    details: dict = field(default_factory=dict)

    @property
    def superdim_match(self) -> bool:
        return self.actual_superdim == self.expected_superdim

    @property
    def witness(self) -> dict | None:
        """The first failing report's witness; not in the JSON."""
        return next((r.witness for r in (self.relations, self.generation, self.odd_cubes) if not r), None)

    @property
    def conclusion(self) -> str:
        """Refuted on a superdimension mismatch, Verified when every report
        passes, Inconclusive otherwise."""
        if not self.superdim_match:
            return "Refuted"
        if self.relations and self.generation and self.odd_cubes:
            return "Verified"
        return "Inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "p": self.p,
            "superdim": list(self.actual_superdim),
            "expected_superdim": list(self.expected_superdim),
            "superdim_match": self.superdim_match,
            "relations": self.relations.ok,
            "generation": self.generation.ok,
            "odd_cubes": self.odd_cubes.ok,
            "conclusion": self.conclusion,
            **({"details": self.details} if self.details else {}),
        }


def require_target_characteristic(alg: ModularSuperAlgebra, target: TargetSpec) -> None:
    """PreconditionViolated unless the target lives in the algebra's characteristic."""
    if target.p != alg.p:
        raise PreconditionViolated("target characteristic differs from the algebra's")


def certify(alg: ModularSuperAlgebra, gens: np.ndarray, target: TargetSpec) -> Certificate:
    """Certificate for a characteristic-3 target given the (3, rank, dim)
    array of generator images."""
    require_target_characteristic(alg, target)
    relations = check_relations(alg, gens, target)
    details = {} if relations else {"relation_failures": relations.witness["failures"]}
    return Certificate(target.name, alg.p, superdim(alg), target.superdim, relations,
                       check_generation(alg, gens), check_odd_cubes(alg), details)


def subquotient_certificate(ss: SemisimplifiedAlgebra, gens: np.ndarray, target: TargetSpec):
    """Certificate for the generator-generated subquotient (mod odd cubes)
    rather than the full semisimplification; used where the two differ."""
    from .superalgebra import gen_subquotient  # looked up per call, where perfbench/spans.py wraps it

    sq = gen_subquotient(ss.algebra, gens.reshape(-1, ss.algebra.dim))
    cert = certify(sq.algebra, sq.generators.reshape(gens.shape[:2] + (-1,)), target)
    cert.details["full_superdim"] = list(superdim(ss.algebra))
    cert.details["subquotient"] = True
    return cert, sq


def cartan_torus_images(ss: SemisimplifiedAlgebra) -> np.ndarray:
    """Images of the Cartan elements killed by the derivation: a maximal
    commuting family of surviving singleton chains inside the Cartan."""
    alg = ss.realization.algebra
    if alg.origin is None:
        raise PreconditionViolated("needs a Chevalley-basis source algebra")
    cartan = np.stack([alg.gens[f"h{i}"] for i in range(1, alg.origin.rank + 1)], axis=1)
    killed = fp.kernel_basis(ss.realization.der.dot(cartan) % alg.p, alg.p)
    images = [ss.image(cartan @ combo % alg.p) for combo in killed]
    return Subspace.from_vectors(images, ss.algebra.dim, alg.p).rows


# -- torus weight split ----------------------------------------------------------


@dataclass(frozen=True)
class WeightSplit:
    """Joint eigenspaces of an even commuting torus, even and odd kept apart.

    Entry k is the weight space of parity `parities[k]` and weight
    `weights[k]` (the torus vectors' eigenvalues, in order), spanned by the
    reduced echelon rows `vectors[k]` in algebra coordinates, so every row
    leads with a 1.  The entries of one parity come in ascending weight
    order.  `odd_blocked` says why the odd part has no entries: the torus
    does not act diagonally on it."""

    rank: int  # number of torus vectors
    weights: tuple[tuple[int, ...], ...]
    vectors: tuple[np.ndarray, ...]
    parities: tuple[int, ...]
    odd_blocked: str | None = None

    def spaces(self, parity: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """(weight, rows) of each weight space of one parity."""
        return [(w, rows) for w, rows, par in zip(self.weights, self.vectors, self.parities) if par == parity]


def weight_split(alg: ModularSuperAlgebra, torus) -> WeightSplit:
    """Split the algebra under torus vectors that are even and commute
    (ValueError otherwise), one `ad` per vector; NotDiagonalizable if they
    do not act diagonally on the even part."""
    p = alg.p
    torus = fp.normalize(torus, p)
    torus = np.atleast_2d(torus) if torus.size else np.zeros((0, alg.dim), dtype=np.int64)
    if alg.parities(torus).any():
        raise ValueError("torus vectors must be even")
    mats = [alg.ad(t) for t in torus]
    if any((mats[a] @ torus[b] % p).any() for a in range(len(torus)) for b in range(a + 1, len(torus))):
        raise ValueError("torus vectors must commute")
    weights, vectors, parities, blocked = [], [], [], None
    for parity in (0, 1):
        idx = np.flatnonzero(alg.parity == parity)
        if not len(idx):
            continue
        try:
            spaces = _eig_split(p, [m[np.ix_(idx, idx)] for m in mats], len(idx))
        except NotDiagonalizable as exc:
            if parity == 0:
                raise
            blocked = str(exc)
            continue
        for weight, rows in spaces:
            full = np.zeros((len(rows), alg.dim), dtype=np.int64)
            full[:, idx] = rows
            weights.append(weight)
            vectors.append(full)
            parities.append(parity)
    return WeightSplit(len(torus), tuple(weights), tuple(vectors), tuple(parities), blocked)


def _eig_split(p: int, mats, dim: int):
    """Simultaneous eigenspaces of commuting diagonalizable operators on
    F_p^dim, as (weight, echelon rows) in ascending weight order."""
    spaces: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.eye(dim, dtype=np.int64))]
    for m in mats:
        refined = []
        for weight, rows in spaces:
            action = (m @ rows.T)[np.argmax(rows != 0, axis=1), :] % p  # coordinates over the echelon rows
            if np.any((m @ rows.T - rows.T @ action) % p):
                raise NotDiagonalizable("eigenspace is not invariant")
            diagonal = np.diag(action)
            if not (action - np.diag(diagonal)).any():  # rows already weight vectors: group them
                refined += [(weight + (int(lam),), rows[diagonal == lam]) for lam in sparse.distinct(diagonal)]
                continue
            found = 0
            for lam in range(p):
                ker = fp.kernel_basis((action - lam * np.eye(len(rows), dtype=np.int64)) % p, p)
                if len(ker):
                    sub_rows = fp.rref(ker @ rows % p, p)[0][: len(ker)]
                    refined.append((weight + (lam,), sub_rows))
                    found += len(ker)
            if found != len(rows):
                raise NotDiagonalizable("operator is not diagonalizable over F_p")
        spaces = refined
    return spaces


# -- odd-part irreducibility ----------------------------------------------------


def odd_part_irreducible(alg: ModularSuperAlgebra, split: WeightSplit) -> Report:
    """Decide irreducibility of the odd part on the torus weights of `split`.

    A submodule is torus-stable, so it is a sum of weight spaces.  When every
    odd weight has multiplicity 1, the submodules are the spans of weight
    sets closed in the weight graph, which has an edge lam -> mu when some
    even basis vector sends v_lam to a vector with a nonzero v_mu
    coefficient; the odd part is irreducible exactly when the graph is
    strongly connected.  A larger multiplicity, or a torus that does not act
    diagonally, leaves the verdict unproven, never passed, with its witness:
    the weights of a closed proper subset (`closed_weights`), the weight
    whose multiplicity blocked the proof (`weight`, `multiplicity`), or why
    there is no odd weight split (`no_split`)."""
    if split.odd_blocked:
        return Report("irreducibility", False, {"no_split": split.odd_blocked})
    odd = split.spaces(1)
    for weight, rows in odd:
        if len(rows) > 1:
            return Report("irreducibility", False, {"weight": weight, "multiplicity": len(rows)})
    if not odd:
        return Report("irreducibility", True)
    n, odd_idx = len(odd), np.flatnonzero(alg.parity == 1)
    vecs = np.vstack([rows for _, rows in odd])
    even = np.eye(alg.dim, dtype=np.int64)[alg.parity == 0]
    to_weights = np.zeros((alg.dim, n), dtype=np.int64)  # odd coordinates -> coefficients over the weight vectors
    to_weights[odd_idx] = fp.inverse(vecs[:, odd_idx], alg.p)
    coeffs = alg.brackets(even, vecs).dot(to_weights) % alg.p  # row a*n + b: [even_a, v_b]
    reach = coeffs.reshape(-1, n, n).any(axis=0) | np.eye(n, dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):  # transitive closure
        reach = grown
    if reach.all():
        return Report("irreducibility", True)
    start = int(np.flatnonzero(~reach.all(axis=1))[0])
    return Report("irreducibility", False, {"closed_weights": [odd[j][0] for j in np.flatnonzero(reach[start])]})


def certify_even_route(ss: SemisimplifiedAlgebra, target: TargetSpec) -> Certificate:
    """Certificate for a target identified through its even part: Cartan-type
    recognition, odd-part irreducibility (both on one weight split under the
    Cartan torus) and the output's axiom reports stand in for the three checks."""
    alg = ss.algebra
    require_target_characteristic(alg, target)
    split = None
    try:
        split = weight_split(alg, cartan_torus_images(ss))
        label, _, dim = recognize_even_type(alg, split)
        type_ok = label == target.even_type and dim == target.superdim[0]
    except (NotDiagonalizable, UnrecognizedType) as exc:
        label, type_ok = str(exc), False
    even_type = Report("even_type", type_ok, None if type_ok else {"even_type": label, "expected": target.even_type})
    irreducible = (odd_part_irreducible(alg, split) if split is not None
                   else Report("irreducibility", False, {"no_split": label}))
    axioms = next((r for r in ss.checks.values() if not r), Report("axioms", True))
    return Certificate(target.name, alg.p, superdim(alg), target.superdim,
                       even_type, irreducible, axioms, {"even_type": label})


# -- even-part Cartan-type recognition ----------------------------------------


def _resolve_pairing(p: int, eigs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """True integer Cartan pairings <lam, mu^v> = r - q from their mod-p
    eigenvalues and upward string lengths q, for strings of length <= 3
    (everything except the rank-2 triple edge): r ranges over 0..2-q."""
    r = np.arange(3)
    fits = (r <= 2 - q[..., None]) & ((r - q[..., None]) % p == eigs[..., None])
    bad = np.flatnonzero(~fits.any(axis=-1))
    if len(bad):
        k = bad[0]
        raise UnrecognizedType(f"up-string {q.flat[k]} inconsistent with eigenvalue {eigs.flat[k]}")
    return np.argmax(fits, axis=-1) - q


def _multiples(p: int, products: sparse.Coo, vectors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """c with row r of the reduced `products` equal to c[r] times row
    targets[r] of `vectors` (zero where targets[r] is -1); NotDiagonalizable
    if a row is no such multiple.  Each row of `vectors` leads with a 1."""
    lead = np.argmax(vectors != 0, axis=1)
    t = np.maximum(targets, 0)
    at_lead = products.col == lead[t[products.row]]
    c = np.zeros(len(t), dtype=np.int64)
    c[products.row[at_lead]] = products.data[at_lead]
    c *= targets >= 0
    if sparse.from_dense(vectors).take_rows(t).scale_rows(c, p) != products:
        raise NotDiagonalizable("a bracket of weight vectors leaves its weight space")
    return c


def recognize_even_type(alg: ModularSuperAlgebra, split: WeightSplit) -> tuple[str, int, int]:
    """Cartan type of the even part from its torus weight split: roots, root
    strings, integer coroot pairings, simple roots as indecomposable
    positives, catalog match.

    The brackets come in two batched calls over the root vectors u_lam.
    [u_mu, u_lam] lies in the one-dimensional weight space mu + lam, so the
    up-string of lam along mu has length 2 exactly when [u_mu, u_lam] and
    [u_mu, u_{mu+lam}] are both nonzero.  The coroot h_mu = [u_mu, u_-mu]
    acts on each u_lam by a scalar, the eigenvalue.  A bracket off its weight
    space raises NotDiagonalizable."""
    p = alg.p
    zero = (0,) * split.rank
    cartan_dim = 0
    weight_vec: dict[tuple[int, ...], np.ndarray] = {}
    for weight, rows in split.spaces(0):
        if weight == zero:
            cartan_dim = len(rows)
            continue
        if len(rows) != 1:
            raise UnrecognizedType(f"weight {weight} has multiplicity {len(rows)}")
        weight_vec[weight] = rows[0]
    if not weight_vec:
        raise UnrecognizedType("no nonzero weights")
    # roots are numbered in ascending weight order from here on
    roots = sorted(weight_vec)
    n = len(roots)
    index = {lam: j for j, lam in enumerate(roots)}
    neg = [index.get(tuple((-x) % p for x in lam)) for lam in roots]
    if None in neg:
        raise UnrecognizedType("weights are not closed under negation")

    # coroot-normalized eigenvalue pairing pair[l][m] = <root_l, root_m^v>;
    # the true integer is pinned by the upward string length measured through
    # brackets (residue arithmetic on weights would alias distinct lattice vectors)
    umat = np.stack([weight_vec[lam] for lam in roots])
    ups = alg.brackets(umat, umat)  # row m*n + l = [u_m, u_l]
    opposite = np.arange(n) * n + neg
    coroots = ups.take_rows(opposite).toarray()
    targets = np.array([index.get(tuple((x + y) % p for x, y in zip(mu, lam)), -1) for mu in roots for lam in roots])
    off = np.ones(n * n, dtype=np.int64)
    off[opposite] = 0
    up = _multiples(p, ups.scale_rows(off, p), umat, targets).reshape(n, n) != 0
    up[np.arange(n), neg] = True  # the coroots, nonzero as checked next
    scalars = _multiples(p, alg.brackets(coroots, umat), umat, np.tile(np.arange(n), n)).reshape(n, n)
    ratio = np.diag(scalars)
    if not ratio.all():
        raise UnrecognizedType("coroot does not act as a nonzero scalar on its root space")
    eigs = 2 * fp.inverses(ratio, p)[:, None] * scalars % p
    targets = targets.reshape(n, n)
    beyond = np.take_along_axis(up, np.maximum(targets, 0), axis=1) & (targets >= 0)
    q = up.astype(np.int64) + (up & beyond)
    skip = np.eye(n, dtype=bool)
    skip[np.arange(n), neg] = True  # the pairings with +-mu, set next
    pair = _resolve_pairing(p, np.where(skip, 0, eigs), np.where(skip, 0, q)).T
    pair[np.arange(n), np.arange(n)] = 2
    pair[np.arange(n), neg] = -2
    if not np.array_equal(pair[neg], -pair):
        raise UnrecognizedType("pairings are not odd under negation")
    # row lam, the pairings <lam, mu^v> over every root mu, is lam in integer
    # coordinates: each column is linear and the coroots span the dual of the
    # torus.  Ordering the rows by their last nonzero entry is compatible
    # with sums, so it picks a positive system, whose simple roots are the
    # positive roots that are no sum of two.
    positive = [lam for lam, row in enumerate(pair) if row[np.flatnonzero(row)[-1]] > 0]
    rows = {pair[lam].tobytes() for lam in positive}
    simple = [lam for lam in positive if not any(d.tobytes() in rows for d in pair[lam] - pair[positive])]
    # no count check against the rank: every positive root is a sum of
    # simple ones, and the simple roots are independent once their Cartan
    # matrix matches a catalog one, which is nonsingular
    cartan = pair[np.ix_(simple, simple)].T  # a_ij = <alpha_j, alpha_i^v>
    rank = len(simple)
    label = _match_type(cartan, rank)
    expected_roots = 2 * len(positive_roots(catalog_gcm(label.lower())).positive)
    if expected_roots != n or cartan_dim != rank:
        raise UnrecognizedType("weight counts do not match the recognized type")
    return label, rank, int(np.count_nonzero(alg.parity == 0))


def _match_type(cartan: np.ndarray, rank: int) -> str:
    """The first catalog name of `rank`, in the order a, b, ..., g, whose
    Cartan matrix is `cartan` up to a simultaneous permutation."""
    for kind in "abcdefg":
        try:
            ref = catalog_gcm(f"{kind}{rank}").matrix()
        except BadSpec:  # no such catalog name, as d2 or f3
            continue
        if _extends(cartan, ref, []):
            return f"{kind}{rank}".upper()
    raise UnrecognizedType(f"no catalog match for Cartan matrix {cartan.tolist()}")


def _extends(cartan: np.ndarray, ref: np.ndarray, perm: list[int]) -> bool:
    """Whether the nodes perm of cartan, matched to ref's first len(perm)
    nodes, extend to a permutation with cartan[perm, perm] == ref: by
    backtracking, ref's next node against each unmatched node whose entries
    with the nodes matched so far agree."""
    k = len(perm)
    if k == len(ref):
        return True
    fits = ((cartan[:, perm] == ref[k, :k]).all(axis=1) & (cartan[perm].T == ref[:k, k]).all(axis=1)
            & (np.diag(cartan) == ref[k, k]))
    fits[perm] = False
    return any(_extends(cartan, ref, perm + [int(c)]) for c in np.flatnonzero(fits))
