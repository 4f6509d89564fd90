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

from . import errors
from .chevalley import catalog_algebra, chevalley_basis, reduce_mod_p
from .repalpha import block_counts, jordan_decompose, parse_element, rank_count_vector, realize, structured_decompose
from .roots import (
    Coloring,
    catalog_gcm,
    derive_tilde,
    diagram_ascii,
    diagram_json,
    positive_roots,
    swap_orbit,
    validate_gcm,
)
from .semisimplify import semisimplify
# check_super_*: unused, `ss.checks` holds the reports; perfbench/spans.py wraps these names here
from .superalgebra import check_odd_cubes, check_super_jacobi, check_super_skew, superdim  # noqa: F401
from .table import certify_route, run_table
from .verify import target_catalog

SCHEMA = 1


def _emit(payload: dict, path: str | None):
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    return payload


def _load_algebra(spec: str, p: int):
    """Catalog name, or a JSON file {name?, cartan: [[...]], parity: [...], p}."""
    if spec.endswith(".json"):
        data = json.loads(Path(spec).read_text())
        gcm = validate_gcm(data["cartan"], data.get("parity"))
        if not gcm.all_even:
            raise errors.VerlieError("input Cartan matrix must be purely even")
        return reduce_mod_p(chevalley_basis(gcm), int(data.get("p", p)))
    return catalog_algebra(spec, p)


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
    return tuple(sorted(int(tok) for tok in text.replace(" ", "").split(",") if tok))


def _decomposed(args, structured: bool = True):
    """Realize the element; decompose along --subset when one is given and
    `structured`, generically otherwise."""
    alg = _load_algebra(args.algebra, args.p)
    realization = realize(alg, _element_vector(args, alg))
    if structured and args.subset:
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
    sdim = superdim(ss.algebra)
    checks = {name: report.ok for name, report in ss.checks.items()}
    checks["odd_cubes"] = check_odd_cubes(ss.algebra).ok
    print(f"{args.algebra} p={alg.p}: superdimension ({sdim[0]}|{sdim[1]})")
    print(f"  block counts {block_counts(decomp)}")
    print(f"  checks: {checks}")
    _emit({"command": "semisimplify", "algebra": args.algebra, "p": alg.p,
           "element": args.element or args.subset,
           "block_counts": list(block_counts(decomp)),
           "superdim": list(sdim), "checks": checks,
           "algebra_out": ss.to_json_dict()}, args.json)
    return 0


def cmd_certify(args) -> int:
    star_sdim = None
    if args.plan == "g36":
        route = "custom-g36"
    elif args.target == "el(5;5)":
        route = "el55"
    elif not args.subset:
        raise errors.VerlieError("certification needs --subset (or --plan g36 / --target 'el(5;5)')")
    elif args.target == "sl(3|1)":
        route, star_sdim = "star", (9, 6)
    else:
        route = "maint"
    alg, realization, decomp = _decomposed(args, structured=route in ("maint", "star"))
    ss = semisimplify(realization, decomp)
    subset = _parse_subset(args.subset) if args.subset else None
    target = args.target
    if route == "maint" and not target:
        # the structured decomposition has checked that alg is a Chevalley reduction
        target = _infer_target(args.algebra, alg.origin.gcm, subset)
    cert = certify_route(ss, route, subset, target, star_sdim)
    payload = cert.to_json_dict()
    payload.update({"command": "certify", "algebra": args.algebra,
                    "element": args.element or args.subset,
                    "block_counts": list(block_counts(decomp))})
    print(f"{args.algebra} vs {cert.target}: {cert.conclusion} "
          f"(superdim ({cert.actual_superdim[0]}|{cert.actual_superdim[1]}))")
    _emit(payload, args.json)
    return 0 if cert.conclusion == "Verified" else 2


def _infer_target(algebra: str, gcm, subset: tuple[int, ...]) -> str:
    def catalog_match(nodes):
        try:
            tilde = derive_tilde(gcm, nodes)
        except ValueError:
            return None
        for t in target_catalog():
            if t.gcm and t.gcm.entries == tilde.entries and t.gcm.parity == tilde.parity:
                return t.name
        return None

    name = catalog_match(subset)
    if name:
        return name
    # the same output arises from every legal recoloring; look for an orbit
    # member whose derived matrix is catalogued
    for coloring in swap_orbit(Coloring(gcm, frozenset(subset))):
        name = catalog_match(coloring.sorted_black())
        if name:
            return name
    raise errors.VerlieError(f"no catalog target for {algebra} with subset {subset}; pass --target")


def cmd_table(args) -> int:
    rows = run_table()
    payload_rows = []
    all_ok = True
    for row in rows:
        sdim = f"({row.sdim[0]}|{row.sdim[1]})"
        status = "ok" if row.ok else "MISMATCH: " + "; ".join(row.mismatches)
        print(f"{row.spec.algebra:>3} p={row.spec.p} {', '.join(row.spec.elements):<26} "
              f"{str(row.counts):<22} {sdim:>9}  {row.spec.target or '-':<9} {row.conclusion:<18} [{status}]")
        payload_rows.append(row.to_json_dict())
        all_ok = all_ok and row.ok
    print("table:", "all rows match" if all_ok else "MISMATCHES PRESENT")
    _emit({"command": "table", "rows": payload_rows, "ok": all_ok}, args.json)
    return 0 if all_ok else 2


def cmd_swaps(args) -> int:
    gcm = catalog_gcm(args.algebra)
    subset = _parse_subset(args.subset)
    orbit = swap_orbit(Coloring(gcm, frozenset(subset)))
    alg = catalog_algebra(args.algebra, args.p)
    members = []
    reference = None
    for coloring in orbit:
        nodes = coloring.sorted_black()
        vec = parse_element("+".join(f"e{i}" for i in nodes), alg)[1] if nodes else np.zeros(alg.dim, dtype=np.int64)
        counts = rank_count_vector(realize(alg, vec).powers, alg.p)
        members.append({"black": list(nodes), "block_counts": list(counts)})
        reference = reference or counts
        print(f"  {set(nodes) if nodes else '{}'}: {counts}")
    agree = all(tuple(m["block_counts"]) == reference for m in members)
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
        p.add_argument("-p", type=int, default=3, help="odd prime characteristic")
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
    except errors.JacobiViolation as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except (errors.VerlieError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
