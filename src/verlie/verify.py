"""Certificates that a semisimplified algebra is a named target superalgebra.

Isomorphism is certified, never searched: superdimension match, the
contragredient relations for labeled generator images, generation, and the
odd-cube axiom together pin the target.  The characteristic-5 construction
is certified through its even part instead (Cartan-type recognition plus an
irreducible odd module), matching how that algebra is identified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import fp, sparse
from .errors import MissingTags, NotDiagonalizable, UnrecognizedType
from .roots import GCM, attached_node, catalog_gcm, derive_tilde, positive_roots, validate_gcm
from .semisimplify import SemisimplifiedAlgebra
from .superalgebra import (
    ModularSuperAlgebra,
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
    odd_dim: int | None = None

    @property
    def rank(self) -> int | None:
        return self.gcm.n if self.gcm else None


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
        TargetSpec(name="el(5;5)", p=5, superdim=(55, 32), gcm=None, even_type="B5", odd_dim=32),
    )


def target_by_name(name: str) -> TargetSpec:
    for t in target_catalog():
        if t.name == name:
            return t
    raise KeyError(f"unknown target {name!r}")


def tilde_target(name: str, ss: SemisimplifiedAlgebra, subset, sdim=None) -> TargetSpec:
    """Target whose relation matrix is derived from the source algebra and
    subset; its superdimension is `sdim`, or else the named catalog entry's."""
    gcm = derive_tilde(ss.realization.algebra.origin.gcm, subset)
    return TargetSpec(name=name, p=ss.p, superdim=sdim or target_by_name(name).superdim, gcm=gcm)


# -- generator images ----------------------------------------------------------


@dataclass
class GeneratorImages:
    """e/f/h image triples in target-node order, with the target parities."""

    e: list[np.ndarray]
    f: list[np.ndarray]
    h: list[np.ndarray]
    parity: list[int]
    nodes: list[int] = field(default_factory=list)  # source-diagram labels, where known

    @property
    def rank(self) -> int:
        return len(self.e)

    def all_vectors(self) -> list[np.ndarray]:
        return list(self.e) + list(self.f) + list(self.h)

    def as_dict(self) -> dict[str, np.ndarray]:
        out = {}
        for idx in range(self.rank):
            out[f"e{idx + 1}"] = self.e[idx]
            out[f"f{idx + 1}"] = self.f[idx]
            out[f"h{idx + 1}"] = self.h[idx]
        return out


def generator_images(ss: SemisimplifiedAlgebra, subset) -> GeneratorImages:
    """Images of the Chevalley generators from the tagged chains of a
    structured decomposition, ordered by surviving node label."""
    integral = ss.realization.algebra.origin
    if integral is None:
        raise MissingTags("needs a Chevalley-basis source algebra")
    tags = ss.tagged_basis()
    gcm = integral.gcm
    subset = tuple(sorted(subset))
    attached = {attached_node(gcm, i) for i in subset}
    survivors = [k for k in range(1, gcm.n + 1) if k not in subset]
    eye = np.eye(ss.algebra.dim, dtype=np.int64)
    e_vecs, f_vecs, h_vecs, parity = [], [], [], []
    for node in survivors:
        for kind, bucket in (("e", e_vecs), ("f", f_vecs), ("h", h_vecs)):
            if (kind, node) not in tags:
                raise MissingTags(f"no chain tagged {kind}{node}")
            bucket.append(eye[tags[(kind, node)]])
        parity.append(1 if node in attached else 0)
    return GeneratorImages(e=e_vecs, f=f_vecs, h=h_vecs, parity=parity, nodes=survivors)


def functorial_generator_images(ss: SemisimplifiedAlgebra, subset) -> GeneratorImages:
    """Generator images computed as functorial projections of the canonical
    split chains, independent of how the decomposition was chosen: the odd
    triple per attached node j is (image e_j, image [f_i, f_j], image
    h_j - h_i), the even triples come from the untouched generators."""
    integral = ss.realization.algebra.origin
    if integral is None:
        raise MissingTags("needs a Chevalley-basis source algebra")
    alg = ss.realization.algebra
    gcm = integral.gcm
    subset = tuple(sorted(subset))
    attached = {attached_node(gcm, i): i for i in subset}
    eye = np.eye(alg.dim, dtype=np.int64)
    e_vecs, f_vecs, h_vecs, parity = [], [], [], []
    survivors = [k for k in range(1, gcm.n + 1) if k not in subset]
    for node in survivors:
        e_vecs.append(ss.image(eye[integral.generator_index("e", node)]))
        parity.append(int(node in attached))
        if node in attached:
            i = attached[node]
            ff = alg.bracket(eye[integral.generator_index("f", i)],
                             eye[integral.generator_index("f", node)])
            hdiff = (eye[integral.generator_index("h", node)]
                     - eye[integral.generator_index("h", i)]) % alg.p
            f_vecs.append(ss.image(ff))
            h_vecs.append(ss.image(hdiff))
        else:
            f_vecs.append(ss.image(eye[integral.generator_index("f", node)]))
            h_vecs.append(ss.image(eye[integral.generator_index("h", node)]))
    return GeneratorImages(e=e_vecs, f=f_vecs, h=h_vecs, parity=parity, nodes=survivors)


def custom_plan_g36(ss: SemisimplifiedAlgebra) -> GeneratorImages:
    """Hand-built generator images for the rank-8 source with element
    e_1 + e_2 + e_6 + e_8: three odd generators from chains headed by
    e_3, e_4, e_5 (and f-counterparts headed by [f_1,f_3], [f_2,f_4],
    -[f_5,f_6]), one even generator from the singleton [e_6,e_7] - [e_8,e_7]."""
    alg = ss.realization.algebra
    if alg.gens is None or alg.dim != 248:
        raise ValueError("custom plan expects the rank-8 catalog algebra")
    eye = np.eye(alg.dim, dtype=np.int64)
    g = alg.gens
    expected = (g["e1"] + g["e2"] + g["e6"] + g["e8"]) % alg.p
    if ss.realization.element is None or not np.array_equal(ss.realization.element, expected):
        raise ValueError("custom plan expects the element e1 + e2 + e6 + e8")
    br = alg.bracket
    f9 = br(g["f1"], g["f3"])
    f10 = br(g["f2"], g["f4"])
    f13 = br(g["f5"], g["f6"])
    e14 = br(g["e6"], g["e7"])
    e15 = (-br(g["e8"], g["e7"])) % alg.p
    f14 = br(g["f6"], g["f7"])
    f15 = (-br(g["f8"], g["f7"])) % alg.p
    e_vecs = [ss.image(g["e3"]), ss.image(g["e4"]), ss.image(g["e5"]),
              ss.image((e14 + e15) % alg.p)]
    f_vecs = [ss.image(f9), ss.image(f10), ss.image((-f13) % alg.p),
              ss.image((-(f14 + f15)) % alg.p)]
    h_vecs = [ss.image(g["h3"]), ss.image(g["h4"]), ss.image(g["h5"]),
              ss.image((g["h6"] - g["h7"] + g["h8"]) % alg.p)]
    return GeneratorImages(e=e_vecs, f=f_vecs, h=h_vecs, parity=[1, 1, 1, 0], nodes=[3, 4, 5, 0])


# -- relation and generation checks -------------------------------------------


@dataclass
class RelationReport:
    ok: bool
    failures: list[dict]

    def to_json_dict(self) -> dict:
        return {"pass": self.ok, "failures": self.failures}


def check_relations(alg: ModularSuperAlgebra, gens: GeneratorImages, target: TargetSpec) -> RelationReport:
    """[e_i, f_j] = d_ij h_i, [h_i, e_j] = a_ij e_j, [h_i, f_j] = -a_ij f_j,
    [h_i, h_j] = 0, and the generator parities match the target's."""
    failures: list[dict] = []
    if target.gcm is None or gens.rank != target.gcm.n:
        return RelationReport(False, [{"relation": "rank", "expected": target.gcm.n if target.gcm else None,
                                       "actual": gens.rank}])
    for i in range(gens.rank):
        for vec, label in ((gens.e[i], "e"), (gens.f[i], "f")):
            if not alg.is_homogeneous(vec) or not vec.any() or alg.vector_parity(vec) != target.gcm.parity[i]:
                failures.append({"relation": "parity", "generator": f"{label}{i + 1}"})
        if gens.h[i].any() and alg.vector_parity(gens.h[i]) != 0:
            failures.append({"relation": "parity", "generator": f"h{i + 1}"})
    r, p = gens.rank, alg.p
    e, f, h = (np.array(vecs, dtype=np.int64).reshape(r, alg.dim) for vecs in (gens.e, gens.f, gens.h))
    a = target.gcm.matrix()[:, :, None]
    # [x_i, y_j] at [i, j] against its expected value, one brackets call per kind
    wanted = {"ef": np.eye(r, dtype=np.int64)[:, :, None] * h[:, None], "he": a * e, "hf": -a * f,
              "hh": np.zeros((r, r, alg.dim), dtype=np.int64)}
    bad = {kind: ((alg.brackets(x, y).toarray().reshape(r, r, alg.dim) - wanted[kind]) % p).any(axis=2)
           for kind, x, y in (("ef", e, f), ("he", h, e), ("hf", h, f), ("hh", h, h))}
    failures += [{"relation": kind, "i": i + 1, "j": j + 1}
                 for i in range(r) for j in range(r) for kind in bad if bad[kind][i, j]]
    return RelationReport(not failures, failures)


def check_generation(alg: ModularSuperAlgebra, gens: GeneratorImages) -> bool:
    return generated_subalgebra(alg, gens.all_vectors()).dim == alg.dim


# -- certificates --------------------------------------------------------------


@dataclass
class Certificate:
    """The four facts a verdict follows from, and the verdict they support."""

    target: str
    p: int
    actual_superdim: tuple[int, int]
    expected_superdim: tuple[int, int]
    relations_pass: bool
    generation_pass: bool
    odd_cubes_pass: bool
    details: dict = field(default_factory=dict)
    witness: dict | None = None  # why an unproven fact failed, where its check says; not in the JSON

    @property
    def superdim_match(self) -> bool:
        return self.actual_superdim == self.expected_superdim

    @property
    def conclusion(self) -> str:
        """Refuted on a superdimension mismatch, Verified when every fact
        holds, Inconclusive otherwise."""
        if not self.superdim_match:
            return "Refuted"
        if self.relations_pass and self.generation_pass and self.odd_cubes_pass:
            return "Verified"
        return "Inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "p": self.p,
            "superdim": list(self.actual_superdim),
            "expected_superdim": list(self.expected_superdim),
            "superdim_match": self.superdim_match,
            "relations": self.relations_pass,
            "generation": self.generation_pass,
            "odd_cubes": self.odd_cubes_pass,
            "conclusion": self.conclusion,
            **({"details": self.details} if self.details else {}),
        }


def certify(ss_or_alg, gens: GeneratorImages, target: TargetSpec) -> Certificate:
    """Certificate for a characteristic-3 target given labeled generator images."""
    alg = ss_or_alg.algebra if isinstance(ss_or_alg, SemisimplifiedAlgebra) else ss_or_alg
    if target.p != alg.p:
        raise ValueError("target characteristic differs from the algebra's")
    relations = check_relations(alg, gens, target)
    generation = check_generation(alg, gens)
    cubes = check_odd_cubes(alg)
    details = {"relation_failures": relations.failures} if relations.failures else {}
    return Certificate(target.name, alg.p, superdim(alg), target.superdim,
                       relations.ok, generation, cubes.ok, details)


def subquotient_certificate(ss: SemisimplifiedAlgebra, gens: GeneratorImages, target: TargetSpec):
    """Certificate for the generator-generated subquotient (mod odd cubes)
    rather than the full semisimplification; used where the two differ."""
    from .superalgebra import gen_subquotient

    sq = gen_subquotient(ss.algebra, gens.as_dict())
    rank = gens.rank
    gens_q = GeneratorImages(
        e=[sq.generators[f"e{i + 1}"] for i in range(rank)],
        f=[sq.generators[f"f{i + 1}"] for i in range(rank)],
        h=[sq.generators[f"h{i + 1}"] for i in range(rank)],
        parity=list(gens.parity),
        nodes=list(gens.nodes),
    )
    cert = certify(sq.algebra, gens_q, target)
    cert.details["full_superdim"] = list(superdim(ss.algebra))
    cert.details["subquotient"] = True
    return cert, sq


def cartan_torus_images(ss: SemisimplifiedAlgebra) -> np.ndarray:
    """Images of the Cartan elements killed by the derivation: a maximal
    commuting family of surviving singleton chains inside the Cartan."""
    integral = ss.realization.algebra.origin
    if integral is None:
        raise ValueError("needs a Chevalley-basis source algebra")
    alg = ss.realization.algebra
    n = integral.rank
    cartan = np.zeros((alg.dim, n), dtype=np.int64)
    for i in range(1, n + 1):
        cartan[integral.generator_index("h", i), i - 1] = 1
    killed = fp.kernel_basis((ss.realization.der @ cartan) % alg.p, alg.p)
    images = [ss.image(cartan @ combo % alg.p) for combo in killed]
    sub = Subspace.from_vectors(images, ss.algebra.dim, alg.p) if images else Subspace.zero(ss.algebra.dim, alg.p)
    return sub.rows


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

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(rows) for rows in self.vectors)

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
    for t in torus:
        if alg.vector_parity(t) != 0:
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
            pivots = [int(np.nonzero(r)[0][0]) for r in rows]
            action = (m @ rows.T)[pivots, :] % p  # coordinates over the echelon rows
            if np.any((m @ rows.T - rows.T @ action) % p):
                raise NotDiagonalizable("eigenspace is not invariant")
            diagonal = np.diag(action)
            if not (action - np.diag(diagonal)).any():  # rows already weight vectors: group them
                refined += [(weight + (int(lam),), rows[diagonal == lam]) for lam in np.unique(diagonal)]
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


@dataclass(frozen=True)
class Irreducibility:
    """Whether the odd part is proven irreducible under the even part.  An
    unproven verdict is falsy and carries its witness: the weights of a
    closed proper subset (`closed_weights`), the weight whose multiplicity
    blocked the proof (`weight`, `multiplicity`), or why there is no odd
    weight split (`no_split`)."""

    proven: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.proven


def odd_part_irreducible(alg: ModularSuperAlgebra, split: WeightSplit) -> Irreducibility:
    """Decide irreducibility of the odd part on the torus weights of `split`.

    A submodule is torus-stable, so it is a sum of weight spaces.  When every
    odd weight has multiplicity 1, the submodules are the spans of weight
    sets closed in the weight graph, which has an edge lam -> mu when some
    even basis vector sends v_lam to a vector with a nonzero v_mu
    coefficient; the odd part is irreducible exactly when the graph is
    strongly connected.  A larger multiplicity, or a torus that does not act
    diagonally, leaves the verdict unproven, never True."""
    if split.odd_blocked:
        return Irreducibility(False, {"no_split": split.odd_blocked})
    odd = split.spaces(1)
    for weight, rows in odd:
        if len(rows) > 1:
            return Irreducibility(False, {"weight": weight, "multiplicity": len(rows)})
    if not odd:
        return Irreducibility(True)
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
        return Irreducibility(True)
    start = int(np.flatnonzero(~reach.all(axis=1))[0])
    return Irreducibility(False, {"closed_weights": [odd[j][0] for j in np.flatnonzero(reach[start])]})


def certify_even_route(ss: SemisimplifiedAlgebra, target: TargetSpec) -> Certificate:
    """Certificate for a target identified through its even part: Cartan-type
    recognition stands in for the relation check, irreducibility of the odd
    part for generation; both read one weight split under the Cartan torus."""
    alg = ss.algebra
    split = None
    try:
        split = weight_split(alg, cartan_torus_images(ss))
        label, _, dim = recognize_even_type(alg, split)
        type_ok = label == target.even_type and dim == target.superdim[0]
    except (NotDiagonalizable, UnrecognizedType) as exc:
        label, type_ok = str(exc), False
    irreducible = odd_part_irreducible(alg, split) if split is not None else Irreducibility(False, {"no_split": label})
    axioms = ss.checks["super_jacobi"].ok and check_odd_cubes(alg).ok
    return Certificate(target.name, alg.p, superdim(alg), target.superdim,
                       type_ok, irreducible.proven, axioms, {"even_type": label}, irreducible.witness)


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
    strings, a rational embedding, simple roots as indecomposable positives,
    catalog match.

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
    eigs = 2 * np.array([fp.inv_scalar(r, p) for r in ratio])[:, None] * scalars % p
    targets = targets.reshape(n, n)
    beyond = np.take_along_axis(up, np.maximum(targets, 0), axis=1) & (targets >= 0)
    q = up.astype(np.int64) + (up & beyond)
    skip = np.eye(n, dtype=bool)
    skip[np.arange(n), neg] = True  # the pairings with +-mu are fixed by the norms
    pair = _resolve_pairing(p, np.where(skip, 0, eigs), np.where(skip, 0, q)).T.tolist()
    # norms by ratio propagation: (lam,lam)/(mu,mu) = <lam,mu^v>/<mu,lam^v>
    norms: dict[int, Fraction] = {0: Fraction(2)}
    queue = [0]
    while queue:
        mu = queue.pop(0)
        if neg[mu] not in norms:
            norms[neg[mu]] = norms[mu]
            queue.append(neg[mu])
        for lam in range(n):
            if lam in norms:
                continue
            nl, nm = pair[lam][mu], pair[mu][lam]
            if nl and nm:
                norms[lam] = norms[mu] * nl / nm
                queue.append(lam)
    if len(norms) != n:
        raise UnrecognizedType("root graph is not connected")

    def gram(lam, mu) -> Fraction:
        if lam == mu:
            return norms[lam]
        if lam == neg[mu]:
            return -norms[lam]
        return pair[lam][mu] * norms[mu] / 2

    # rational coordinates over a greedily chosen root basis: a root joins
    # while the Gram matrix stays nonsingular, that is while its Schur
    # complement over the basis is nonzero; `inv`, the inverse Gram matrix
    # of the basis, grows by bordering
    basis: list[int] = []
    inv: list[list[Fraction]] = []
    for cand in range(n):
        g_col = [gram(x, cand) for x in basis]
        g_row = [gram(cand, x) for x in basis]
        col = [sum(v * g for v, g in zip(vals, g_col)) for vals in inv]  # inv @ gram(basis, cand)
        row = [sum(g * vals[j] for g, vals in zip(g_row, inv)) for j in range(len(basis))]  # gram(cand, basis) @ inv
        schur = gram(cand, cand) - sum(g * c for g, c in zip(g_row, col))
        if schur:
            inv = [[v + c * r / schur for v, r in zip(vals, row)] + [-c / schur] for vals, c in zip(inv, col)]
            inv.append([-r / schur for r in row] + [1 / schur])
            basis.append(cand)
    rank = len(basis)
    # coordinates x of each root: gram(basis, basis) x = gram(root, basis)
    coords = [tuple(sum(v * gram(lam, x) for v, x in zip(vals, basis)) for vals in inv) for lam in range(n)]
    # lexicographic order from the last coordinate: positive when the last
    # nonzero coordinate is
    positive = []
    for lam, cs in enumerate(coords):
        last = next((c for c in reversed(cs) if c), 0)
        if last == 0:
            raise UnrecognizedType("degenerate positivity functional")
        if last > 0:
            positive.append(lam)
    pos_coords = {coords[lam] for lam in positive}
    simple = []
    for lam in positive:
        decomposable = any(
            tuple(a - b for a, b in zip(coords[lam], coords[mu])) in pos_coords
            for mu in positive
            if mu != lam
        )
        if not decomposable:
            simple.append(lam)
    simple.sort(key=lambda lam: coords[lam])
    if len(simple) != rank:
        raise UnrecognizedType(f"{len(simple)} simple roots for rank {rank}")
    cartan = [[2 if i == j else pair[simple[j]][simple[i]] for j in range(rank)] for i in range(rank)]
    label = _match_type(cartan, rank)
    expected_roots = 2 * len(positive_roots(catalog_gcm(label.lower())).positive)
    if expected_roots != n or cartan_dim != rank:
        raise UnrecognizedType("weight counts do not match the recognized type")
    return label, rank, int(np.count_nonzero(alg.parity == 0))


def _match_type(cartan, rank: int) -> str:
    candidates = []
    if rank == 2:
        candidates += ["a2", "b2", "c2", "g2"]
    if rank >= 1:
        candidates.append(f"a{rank}")
    if rank >= 2:
        candidates += [f"b{rank}", f"c{rank}"]
    if rank >= 3:
        candidates.append(f"d{rank}")
    if rank == 4:
        candidates.append("f4")
    if rank in (6, 7, 8):
        candidates.append(f"e{rank}")
    got = np.array(cartan, dtype=np.int64)
    for name in candidates:
        try:
            ref = catalog_gcm(name).matrix()
        except ValueError:
            continue
        if ref.shape != got.shape:
            continue
        for perm in permutations(range(rank)):
            if np.array_equal(got[np.ix_(perm, perm)], ref):
                return name.upper()
    raise UnrecognizedType(f"no catalog match for Cartan matrix {cartan}")
