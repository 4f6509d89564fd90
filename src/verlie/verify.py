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

from . import fp
from .errors import MissingTags, NotDiagonalizable, UnrecognizedType
from .roots import GCM, attached_node, catalog_gcm, derive_tilde, positive_roots, validate_gcm
from .semisimplify import SemisimplifiedAlgebra
from .superalgebra import (
    ModularSuperAlgebra,
    Subspace,
    check_odd_cubes,
    check_super_jacobi,  # noqa: F401  (unused, `ss.checks` holds the report; perfbench/spans.py wraps it here)
    closure,
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


def tilde_target(name: str, ss: SemisimplifiedAlgebra, subset) -> TargetSpec:
    """Target whose relation matrix is derived from the source algebra and
    subset, with the expected superdimension of the named catalog entry."""
    gcm = derive_tilde(ss.realization.algebra.origin.gcm, subset)
    return TargetSpec(name=name, p=ss.p, superdim=target_by_name(name).superdim, gcm=gcm)


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
    a = target.gcm

    def expect(kind: str, i: int, j: int, actual: np.ndarray, wanted: np.ndarray):
        if not np.array_equal(actual % alg.p, wanted % alg.p):
            failures.append({"relation": kind, "i": i + 1, "j": j + 1})

    for i in range(gens.rank):
        for vec, label in ((gens.e[i], "e"), (gens.f[i], "f")):
            if not alg.is_homogeneous(vec) or not vec.any() or alg.vector_parity(vec) != target.gcm.parity[i]:
                failures.append({"relation": "parity", "generator": f"{label}{i + 1}"})
        if gens.h[i].any() and alg.vector_parity(gens.h[i]) != 0:
            failures.append({"relation": "parity", "generator": f"h{i + 1}"})
    for i in range(gens.rank):
        for j in range(gens.rank):
            ef = alg.bracket(gens.e[i], gens.f[j])
            expect("ef", i, j, ef, gens.h[i] if i == j else np.zeros(alg.dim, dtype=np.int64))
            he = alg.bracket(gens.h[i], gens.e[j])
            expect("he", i, j, he, a.a(i + 1, j + 1) * gens.e[j])
            hf = alg.bracket(gens.h[i], gens.f[j])
            expect("hf", i, j, hf, -a.a(i + 1, j + 1) * gens.f[j])
            hh = alg.bracket(gens.h[i], gens.h[j])
            expect("hh", i, j, hh, np.zeros(alg.dim, dtype=np.int64))
    return RelationReport(not failures, failures)


def check_generation(alg: ModularSuperAlgebra, gens: GeneratorImages) -> bool:
    return generated_subalgebra(alg, gens.all_vectors()).dim == alg.dim


# -- certificates --------------------------------------------------------------


@dataclass
class Certificate:
    target: str
    p: int
    actual_superdim: tuple[int, int]
    expected_superdim: tuple[int, int]
    superdim_match: bool
    relations_pass: bool
    generation_pass: bool
    odd_cubes_pass: bool
    conclusion: str  # Verified | Refuted | Inconclusive
    details: dict = field(default_factory=dict)

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


def _conclude(superdim_match: bool, relations: bool, generation: bool, cubes: bool) -> str:
    if superdim_match and relations and generation and cubes:
        return "Verified"
    if not superdim_match:
        return "Refuted"
    return "Inconclusive"


def certify(ss_or_alg, gens: GeneratorImages, target: TargetSpec) -> Certificate:
    """Certificate for a characteristic-3 target given labeled generator images."""
    alg = ss_or_alg.algebra if isinstance(ss_or_alg, SemisimplifiedAlgebra) else ss_or_alg
    if target.p != alg.p:
        raise ValueError("target characteristic differs from the algebra's")
    actual = superdim(alg)
    match = actual == target.superdim
    relations = check_relations(alg, gens, target)
    generation = check_generation(alg, gens)
    cubes = check_odd_cubes(alg)
    return Certificate(
        target=target.name,
        p=alg.p,
        actual_superdim=actual,
        expected_superdim=target.superdim,
        superdim_match=match,
        relations_pass=relations.ok,
        generation_pass=generation,
        odd_cubes_pass=cubes.ok,
        conclusion=_conclude(match, relations.ok, generation, cubes.ok),
        details={"relation_failures": relations.failures} if relations.failures else {},
    )


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


def odd_part_irreducible(alg: ModularSuperAlgebra) -> bool:
    """No proper nonzero even-submodule: the even action on any single odd
    basis vector generates the whole odd part."""
    odd_idx = np.nonzero(alg.parity == 1)[0]
    eye = np.eye(alg.dim, dtype=np.int64)
    even = eye[alg.parity == 0]

    def images(frontier, _):
        return alg.brackets(even, frontier)

    return all(closure(Subspace.from_vectors([eye[start]], alg.dim, alg.p), images).dim == len(odd_idx)
               for start in odd_idx)


def certify_even_route(ss: SemisimplifiedAlgebra, target: TargetSpec) -> Certificate:
    """Certificate for a target identified through its even part: Cartan-type
    recognition stands in for the relation check, irreducibility of the odd
    part for generation."""
    alg = ss.algebra
    actual = superdim(alg)
    match = actual == target.superdim
    torus = cartan_torus_images(ss)
    try:
        label, rank, dim = recognize_even_type(alg, torus)
        type_ok = label == target.even_type and dim == target.superdim[0]
    except (NotDiagonalizable, UnrecognizedType) as exc:
        label, type_ok = str(exc), False
    irreducible = odd_part_irreducible(alg)
    axioms = ss.checks["super_jacobi"].ok and check_odd_cubes(alg).ok
    return Certificate(
        target=target.name,
        p=alg.p,
        actual_superdim=actual,
        expected_superdim=target.superdim,
        superdim_match=match,
        relations_pass=type_ok,
        generation_pass=irreducible,
        odd_cubes_pass=axioms,
        conclusion=_conclude(match, type_ok, irreducible, axioms),
        details={"even_type": label},
    )


# -- even-part Cartan-type recognition ----------------------------------------


def _eig_split(alg: ModularSuperAlgebra, mats, dim_e: int):
    """Simultaneous eigenspaces of commuting diagonalizable operators."""
    p = alg.p
    spaces: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.eye(dim_e, dtype=np.int64))]
    for m in mats:
        refined = []
        for weight, rows in spaces:
            pivots = [int(np.nonzero(r)[0][0]) for r in rows]
            action = (m @ rows.T)[pivots, :] % p  # coordinates over the echelon rows
            if np.any((m @ rows.T - rows.T @ action) % p):
                raise NotDiagonalizable("eigenspace is not invariant")
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


def _resolve_pairing(p: int, eig: int, q: int) -> int:
    """True integer Cartan pairing <lam, mu^v> = r - q from its mod-p
    eigenvalue and the upward string length q, for strings of length <= 3
    (everything except the rank-2 triple edge): r ranges over 0..2-q."""
    for r in range(0, 3 - q):
        if (r - q) % p == eig:
            return r - q
    raise UnrecognizedType(f"up-string {q} inconsistent with eigenvalue {eig}")


def recognize_even_type(alg: ModularSuperAlgebra, torus) -> tuple[str, int, int]:
    """Cartan type of the even part from the joint eigenvalue data of a
    commuting family acting diagonally: weights, root strings, a rational
    embedding, simple roots as indecomposable positives, catalog match."""
    p = alg.p
    torus = np.atleast_2d(fp.normalize(torus, p))
    even_idx = [int(i) for i in np.nonzero(alg.parity == 0)[0]]
    dim_e = len(even_idx)
    for t in torus:
        if alg.vector_parity(t) != 0:
            raise ValueError("torus vectors must be even")
    for a in range(len(torus)):
        for b in range(a + 1, len(torus)):
            if alg.bracket(torus[a], torus[b]).any():
                raise ValueError("torus vectors must commute")
    mats = [alg.ad(t)[np.ix_(even_idx, even_idx)] for t in torus]
    spaces = _eig_split(alg, mats, dim_e)
    zero = tuple(0 for _ in torus)
    cartan_dim = 0
    weight_vec: dict[tuple[int, ...], np.ndarray] = {}
    for weight, rows in spaces:
        if weight == zero:
            cartan_dim = len(rows)
            continue
        if len(rows) != 1:
            raise UnrecognizedType(f"weight {weight} has multiplicity {len(rows)}")
        full = np.zeros(alg.dim, dtype=np.int64)
        full[even_idx] = rows[0]
        weight_vec[weight] = full
    roots = set(weight_vec)
    if not roots:
        raise UnrecognizedType("no nonzero weights")
    for w in roots:
        if tuple((-x) % p for x in w) not in roots:
            raise UnrecognizedType("weights are not closed under negation")

    def wneg(a):
        return tuple((-x) % p for x in a)

    # coroot-normalized eigenvalue pairing n[lam][mu] = <lam, mu^v>; the true
    # integer is pinned by the upward string length measured through brackets
    # (residue arithmetic on weights would alias distinct lattice vectors)
    root_list = sorted(roots)
    umat = np.stack([weight_vec[lam] for lam in root_list], axis=1)  # (dim, nroots)
    pairing: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for mu in root_list:
        u, v = weight_vec[mu], weight_vec[wneg(mu)]
        h = alg.bracket(u, v)
        hu = alg.bracket(h, u)
        pos = int(np.nonzero(u)[0][0])
        ratio = (int(hu[pos]) * fp.inv_scalar(int(u[pos]), p)) % p
        if not np.array_equal(hu % p, ratio * u % p) or ratio == 0:
            raise UnrecognizedType("coroot does not act as a nonzero scalar on its root space")
        h = (2 * fp.inv_scalar(ratio, p) * h) % p
        ad_mu = alg.ad(u)
        up1 = (ad_mu @ umat) % p  # column j: [u_mu, u_lam_j]
        up2 = (ad_mu @ up1) % p
        hw = (alg.ad(h) @ umat) % p
        for j, lam in enumerate(root_list):
            if lam in (mu, wneg(mu)):
                continue
            w = weight_vec[lam]
            wpos = int(np.nonzero(w)[0][0])
            eig = (int(hw[wpos, j]) * fp.inv_scalar(int(w[wpos]), p)) % p
            if not np.array_equal(hw[:, j] % p, eig * w % p):
                raise NotDiagonalizable("coroot action is not scalar on a root space")
            q = 2 if up2[:, j].any() else (1 if up1[:, j].any() else 0)
            pairing[(lam, mu)] = _resolve_pairing(p, eig, q)
    # norms by ratio propagation: (lam,lam)/(mu,mu) = <lam,mu^v>/<mu,lam^v>
    ordered = sorted(roots)
    norms: dict[tuple[int, ...], Fraction] = {ordered[0]: Fraction(2)}
    queue = [ordered[0]]
    while queue:
        mu = queue.pop(0)
        neg = wneg(mu)
        if neg not in norms:
            norms[neg] = norms[mu]
            queue.append(neg)
        for lam in ordered:
            if lam in norms or (lam, mu) not in pairing:
                continue
            nl, nm = pairing[(lam, mu)], pairing[(mu, lam)]
            if nl and nm:
                norms[lam] = norms[mu] * nl / nm
                queue.append(lam)
    if set(norms) != roots:
        raise UnrecognizedType("root graph is not connected")

    def gram(lam, mu) -> Fraction:
        if lam == mu:
            return norms[lam]
        if lam == wneg(mu):
            return -norms[lam]
        return Fraction(pairing[(lam, mu)]) * norms[mu] / 2

    # rational coordinates over a greedily chosen root basis
    basis: list[tuple[int, ...]] = []
    for cand in ordered:
        trial = basis + [cand]
        g = [[gram(x, y) for y in trial] for x in trial]
        if len(_frac_rref(g)[1]) == len(trial):
            basis = trial
    rank = len(basis)
    # solve gram(basis, basis) x = gram(basis, lam) for every root at once
    lams = list(roots)
    solved, _ = _frac_rref([[gram(x, y) for y in basis] + [gram(lam, x) for lam in lams] for x in basis])
    coords = {lam: tuple(row[rank + t] for row in solved) for t, lam in enumerate(lams)}
    scale = Fraction(10_000)
    positive = []
    for lam, cs in coords.items():
        phi = sum(c * scale**i for i, c in enumerate(cs))
        if phi == 0:
            raise UnrecognizedType("degenerate positivity functional")
        if phi > 0:
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
    cartan = [[2 if i == j else pairing[(simple[j], simple[i])] for j in range(rank)] for i in range(rank)]
    label = _match_type(cartan, rank)
    expected_roots = 2 * len(positive_roots(catalog_gcm(label.lower())).positive)
    if expected_roots != len(roots) or cartan_dim != rank:
        raise UnrecognizedType("weight counts do not match the recognized type")
    return label, rank, dim_e


def _frac_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, and the pivot columns."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                factor = m[r][c]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append(c)
    return m, pivots


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
