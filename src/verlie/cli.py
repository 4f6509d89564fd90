"""Command-line front end.

Subcommands: roots, decompose, semisimplify, certify, table, swaps.
Exit codes: 0 success, 2 certificate refuted or table mismatch, 3 input
error, 4 internal assertion (a constructed bracket failed its axioms).
All JSON payloads carry "schema": 1 and are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import errors, repalpha
from .chevalley import catalog_algebra, chevalley_basis, reduce_mod_p
from .repalpha import (
    block_counts,
    boundary_subset,
    jordan_decompose,
    parse_element,
    realize,
    structured_decompose,
)
from .roots import (
    Coloring,
    catalog_gcm,
    derive_tilde,
    diagram_ascii,
    diagram_json,
    exact_int,
    positive_roots,
    swap_orbit,
    validate_gcm,
)
from .semisimplify import semisimplify
# check_*: unused, `ss.checks` holds the reports; perfbench/spans.py wraps these names here
from .superalgebra import check_odd_cubes, check_super_jacobi, check_super_skew, superdim  # noqa: F401
from .table import CERTIFY, TABLE, RowSpec, run_table
from .verify import require_plan_g36_element, require_target_characteristic, target_by_name, target_catalog

SCHEMA = 1


def _emit(payload: dict, path: str | None):
    if path:  # no text is built without a path
        Path(path).write_text(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True) + "\n")


def _load_algebra(spec: str, p: int | None):
    """Catalog name, built at p (3 if p is None); or a JSON file {name?, cartan: [[...]], parity?: [...], p?},
    built at its own p, else at p, else at 3, and refused if its p and p differ."""
    if not spec.endswith(".json"):
        return catalog_algebra(spec, 3 if p is None else p)
    try:
        data = json.loads(Path(spec).read_text())
    except json.JSONDecodeError as exc:
        raise errors.BadSpec(str(exc)) from None
    if not isinstance(data, dict):
        raise errors.BadSpec(f"{spec} must hold a JSON object, not a {type(data).__name__}")
    if unknown := set(data) - {"name", "cartan", "parity", "p"}:
        raise errors.BadSpec(f"{spec} has an unknown key {min(unknown)!r}")
    gcm = validate_gcm(data.get("cartan"), data.get("parity"))
    if not gcm.all_even:
        raise errors.VerlieError("input Cartan matrix must be purely even")
    own = exact_int(data.get("p", 3 if p is None else p), "p")
    if p not in (None, own):
        raise errors.BadSpec(f"p is {own} in {spec} but -p is {p}")
    return reduce_mod_p(chevalley_basis(gcm), own)


def _element_vector(args, alg):
    """The element of --element or the sum of e_i over --subset; both must agree when given."""
    exprs = ["+".join(f"e{i}" for i in _parse_subset(args.subset))] if args.subset else []
    exprs += [args.element] if args.element else []
    if not exprs:
        raise errors.VerlieError("one of --element or --subset is required")
    vecs = [parse_element(expr, alg)[1] for expr in exprs]
    if not np.array_equal(vecs[0], vecs[-1]):
        raise errors.VerlieError("--element and --subset disagree")
    return vecs[-1]


def _parse_subset(text: str) -> tuple[int, ...]:
    tokens = [tok for tok in text.replace(" ", "").split(",") if tok]
    if bad := [tok for tok in tokens if not (tok.isascii() and tok.isdigit())]:  # node numbers are runs of digits
        raise errors.BadSpec(f"--subset must list node numbers, not {bad[0]!r}")
    return tuple(sorted(map(int, tokens)))


def _realized(args):
    alg = _load_algebra(args.algebra, args.p)
    return alg, realize(alg, _element_vector(args, alg))


def _decomposed(args):
    """Realize the element; decompose along --subset when one is given,
    generically otherwise."""
    alg, realization = _realized(args)
    if args.subset:
        return alg, realization, structured_decompose(realization, _parse_subset(args.subset))
    return alg, realization, jordan_decompose(realization)


def cmd_roots(args) -> int:
    gcm = catalog_gcm(args.algebra)
    rs = positive_roots(gcm)
    listing = [{"coords": list(r.coords), "height": r.height} for r in rs.positive]
    print(f"{args.algebra}: {len(listing)} positive roots, max height {listing[-1]['height']}")
    for entry in listing:
        print(f"  height {entry['height']:>2}  {entry['coords']}")
    print(diagram_ascii(gcm))
    _emit({"command": "roots", "algebra": args.algebra, "roots": listing,
           "diagram": diagram_json(gcm)}, args.json)
    return 0


def cmd_decompose(args) -> int:
    alg, realization, decomp = _decomposed(args)
    counts = block_counts(decomp)
    print(f"{args.algebra} p={alg.p}: block counts {counts} (degree {realization.degree})")
    chains = []
    for i, chain in enumerate(decomp.chains):
        tag = f"{chain.tag[0]}{chain.tag[1]}" if chain.tag else None
        chains.append({"index": i, "length": chain.length, "tag": tag,
                       "vectors": chain.vectors.tolist()})
        if tag:
            print(f"  chain {i}: length {chain.length} tag {tag}")
    _emit({"command": "decompose", "algebra": args.algebra, "p": alg.p,
           "element": args.element or args.subset, "block_counts": list(counts),
           "chains": chains}, args.json)
    return 0


def cmd_semisimplify(args) -> int:
    alg, realization, decomp = _decomposed(args)
    ss = semisimplify(realization, decomp)
    sdim, counts = superdim(ss.algebra), block_counts(decomp)
    checks = {name: report.ok for name, report in ss.checks.items()}
    print(f"{args.algebra} p={alg.p}: superdimension ({sdim[0]}|{sdim[1]})")
    print(f"  block counts {counts}")
    print(f"  checks: {checks}")
    _emit({"command": "semisimplify", "algebra": args.algebra, "p": alg.p,
           "element": args.element or args.subset,
           "block_counts": list(counts),
           "superdim": list(sdim), "checks": checks,
           "algebra_out": ss.to_json_dict()}, args.json)
    return 0


def cmd_certify(args) -> int:
    target, subset, star_sdim = args.target, None, None
    if args.plan and target not in (None, "g(3,6)"):
        raise errors.VerlieError("--plan g36 certifies against g(3,6) only")
    if not (args.subset or args.plan or target == "el(5;5)"):
        raise errors.VerlieError("certification needs --subset (or --plan g36 / --target 'el(5;5)')")
    alg, realization = _realized(args)
    # the route, its setting checked before any decomposition runs
    if args.plan:
        route, target = "custom-g36", "g(3,6)"
        require_plan_g36_element(realization)
    elif target == "el(5;5)":
        route = "el55"
        require_target_characteristic(alg, target_by_name(target))
    else:
        subset = boundary_subset(realization, _parse_subset(args.subset))
        # a star row's target is certified on the generator subquotient, for that row's Cartan matrix and subset
        stars = {(catalog_gcm(spec.algebra), spec.subset, spec.target): spec.star_sdim
                 for spec in TABLE if spec.route == "star" and spec.target}
        if star_sdim := stars.get((alg.origin.gcm, subset, target)):
            route = "star"
        else:  # a maint target is a catalog one, inferred when not given
            route, target = "maint", target_by_name(target or _infer_target(args.algebra, alg.origin.gcm, subset)).name
    decomp = jordan_decompose(realization)
    ss = semisimplify(realization, decomp)
    element = args.element or args.subset
    cert = CERTIFY[route](ss, RowSpec(args.algebra, alg.p, (element,), route, subset, target, star_sdim=star_sdim))
    print(f"{args.algebra} vs {cert.target}: {cert.conclusion} "
          f"(superdim ({cert.actual_superdim[0]}|{cert.actual_superdim[1]}))")
    if cert.conclusion != "Verified":  # why: the first failing report, else the superdimension mismatch
        why = cert.witness or {"superdim": list(cert.actual_superdim), "expected": list(cert.expected_superdim)}
        print(f"  witness: {json.dumps(why, sort_keys=True)}")
    _emit({**cert.to_json_dict(), "command": "certify", "algebra": args.algebra, "element": element,
           "block_counts": list(block_counts(decomp))}, args.json)
    return 0 if cert.conclusion == "Verified" else 2


def _infer_target(algebra: str, gcm, subset: tuple[int, ...]) -> str:
    """The catalog target whose matrix is derived from the subset, or else
    from the first member of its swap orbit that has one: every legal
    recoloring gives the same output."""
    names = {t.gcm: t.name for t in target_catalog() if t.gcm}
    for nodes in (subset, *(c.sorted_black() for c in swap_orbit(Coloring(gcm, frozenset(subset))))):
        try:
            name = names.get(derive_tilde(gcm, nodes))
        except ValueError:  # an orbit member that is no admissible subset
            continue
        if name:
            return name
    raise errors.VerlieError(f"no catalog target for {algebra} with subset {subset}; pass --target")


def cmd_table(args) -> int:
    rows = run_table()
    for row in rows:
        sdim = f"({row.sdim[0]}|{row.sdim[1]})"
        status = "ok" if row.ok else "MISMATCH: " + "; ".join(row.mismatches)
        print(f"{row.spec.algebra:>3} p={row.spec.p} {', '.join(row.spec.elements):<26} "
              f"{str(row.counts):<22} {sdim:>9}  {row.spec.target or '-':<9} {row.conclusion:<18} [{status}]")
    all_ok = all(row.ok for row in rows)
    print("table:", "all rows match" if all_ok else "MISMATCHES PRESENT")
    _emit({"command": "table", "rows": [row.to_json_dict() for row in rows], "ok": all_ok}, args.json)
    return 0 if all_ok else 2


def cmd_swaps(args) -> int:
    gcm = catalog_gcm(args.algebra)
    subset = _parse_subset(args.subset)
    orbit = swap_orbit(Coloring(gcm, frozenset(subset)))
    alg = catalog_algebra(args.algebra, args.p)
    members = []
    for coloring in orbit:
        nodes = coloring.sorted_black()
        vec = parse_element("+".join(f"e{i}" for i in nodes), alg)[1] if nodes else np.zeros(alg.dim, dtype=np.int64)
        counts = repalpha.rank_count_vector(realize(alg, vec))
        members.append({"black": list(nodes), "block_counts": list(counts)})
        print(f"  {set(nodes) if nodes else '{}'}: {counts}")
    agree = all(m["block_counts"] == members[0]["block_counts"] for m in members)
    print(f"orbit size {len(members)}; block counts agree: {agree}")
    _emit({"command": "swaps", "algebra": args.algebra, "subset": list(subset),
           "orbit": members, "counts_agree": agree}, args.json)
    return 0 if agree else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="verlie",
        description="Exact construction and certification of modular Lie superalgebras "
                    "by semisimplifying Lie algebras with nilpotent derivations.")
    sub = parser.add_subparsers(dest="command", required=True)

    roots = sub.add_parser("roots", help="positive roots of a catalog diagram")
    roots.add_argument("algebra")
    roots.add_argument("--json")
    roots.set_defaults(func=cmd_roots)

    def common(p):
        p.add_argument("--algebra", required=True, help="catalog name or algebra-spec JSON file")
        p.add_argument("-p", type=int, help="odd prime characteristic (default: a spec file's p, else 3)")
        p.add_argument("--element", help="element expression, e.g. 'e1+e2' or '[e8,[e6,e7]]'")
        p.add_argument("--subset", help="comma-separated boundary nodes, e.g. '1,2'")
        p.add_argument("--json", help="write the JSON payload to this path")

    dec = sub.add_parser("decompose", help="Jordan chain decomposition")
    common(dec)
    dec.set_defaults(func=cmd_decompose)

    ssp = sub.add_parser("semisimplify", help="semisimplified superalgebra with axiom checks")
    common(ssp)
    ssp.set_defaults(func=cmd_semisimplify)

    cert = sub.add_parser("certify", help="certificate against a named target")
    common(cert)
    cert.add_argument("--target", help="target name, e.g. 'g(1,6)'")
    cert.add_argument("--plan", choices=["g36"], help="use a hand-built generator plan")
    cert.set_defaults(func=cmd_certify)

    tab = sub.add_parser("table", help="recompute the whole results table")
    tab.add_argument("--json")
    tab.set_defaults(func=cmd_table)

    swp = sub.add_parser("swaps", help="legal-swap orbit with block-count invariance")
    swp.add_argument("--algebra", required=True)
    swp.add_argument("--subset", required=True)
    swp.add_argument("-p", type=int, default=3)
    swp.add_argument("--json")
    swp.set_defaults(func=cmd_swaps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.InternalError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except (errors.VerlieError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
