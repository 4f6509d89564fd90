"""Spans recorded from outside the program.

A `Tracer` replaces functions of the `verlie` modules, at the names their
callers look them up under, with wrappers that record one span per call:
name, start, end, the enclosing span and a few sizes read off the arguments
and the result.  Spans stay in memory until the run writes them out.
`layer_metrics` turns them into per-layer self times, call counts and sizes.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _nnz(alg) -> int:
    """Nonzero structure constants, which is the nnz of the sparse ad tensor."""
    return sum(len(comps) for comps in alg.constants.values())


def _rref_sizes(args, out):
    rows, cols = np.shape(args[0])
    return {"rows": rows, "cols": cols, "rank": len(out[1])}


def _alg_sizes(args, out):
    return {"dim": out.dim, "nnz": _nnz(out)}


def _decomp_sizes(args, out):
    return {"chains": len(out.chains)}


def _ss_sizes(args, out):
    return {"out_dim": out.algebra.dim, "out_nnz": _nnz(out.algebra)}


def _orbit_sizes(args, out):
    return {"members": len(out)}


def _module(name: str):
    # `verlie.semisimplify` is the function the package re-exports, not the module
    return importlib.import_module(f"verlie.{name}")


def setup_targets():
    """(owner, attribute, span name, sizes) wrapped while algebras are built."""
    return [
        (_module("chevalley"), "catalog_algebra", "chevalley.catalog_algebra", _alg_sizes),
        (_module("roots"), "swap_orbit", "roots.swap_orbit", _orbit_sizes),
    ]


def pass_targets():
    """(owner, attribute, span name, sizes) wrapped during a traced pass.

    Each public function is wrapped under every name a caller uses for it,
    so `table.semisimplify` and `cli.semisimplify` both land in one layer.
    """
    fp, rep, ss, sa, ver, tab, cli = map(
        _module, ("fp", "repalpha", "semisimplify", "superalgebra", "verify", "table", "cli"))
    out = [
        (fp, "rref", "fp.rref", _rref_sizes),
        (fp, "kernel_basis", "fp.kernel_basis", None),
        (fp, "inverse", "fp.inverse", None),
        (rep.ChainDecomposition, "validate", "repalpha.validate", None),
        (rep, "rank_count_vector", "repalpha.rank_count_vector", None),
        (sa.ModularSuperAlgebra, "ad", "superalgebra.ad", None),
        (sa.Subspace, "extended", "superalgebra.subspace_extended", None),
        (sa, "generated_subalgebra", "superalgebra.generated_subalgebra", None),
        (sa, "gen_subquotient", "superalgebra.gen_subquotient", None),
        (ver, "check_relations", "verify.check_relations", None),
        (ver, "check_generation", "verify.check_generation", None),
        (ver, "odd_part_irreducible", "verify.odd_part_irreducible", None),
        (cli, "_emit", "cli.emit", None),
    ]
    for owner in (rep, tab, cli):
        out += [
            (owner, "realize", "repalpha.realize", None),
            (owner, "jordan_decompose", "repalpha.decompose", _decomp_sizes),
        ]
    for owner in (tab, cli):
        out += [
            (owner, "structured_decompose", "repalpha.decompose", _decomp_sizes),
            (owner, "semisimplify", "semisimplify.semisimplify", _ss_sizes),
            (owner, "check_super_skew", "superalgebra.super_skew", None),
            (owner, "check_super_jacobi", "superalgebra.super_jacobi", None),
            (owner, "check_odd_cubes", "superalgebra.odd_cubes", None),
        ]
    out += [
        (ss, "check_super_skew", "superalgebra.super_skew", None),
        (ss, "check_super_jacobi", "superalgebra.super_jacobi", None),
        (ver, "check_super_jacobi", "superalgebra.super_jacobi", None),
        (ver, "check_odd_cubes", "superalgebra.odd_cubes", None),
        (ver, "generated_subalgebra", "superalgebra.generated_subalgebra", None),
        (ver, "certify", "verify.certify", None),
        (tab, "certify", "verify.certify", None),
        (ver, "recognize_even_type", "verify.recognize_even_type", None),
        (tab, "recognize_even_type", "verify.recognize_even_type", None),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.reduced_rows = 0  # rows handed to Subspace.reduce / reduce_rows
        self.useful_rows = 0  # rows those calls left nonzero
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **sizes):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **sizes}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, sizes):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if sizes is not None:
                rec.update(sizes(args, out))
            return out

        if hasattr(fn, "cache_clear"):  # keep an lru_cache clearable while wrapped
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _count_reduce(self, fn):
        def wrapper(sub, v):
            out = fn(sub, v)
            if out.ndim == 1:
                self.reduced_rows += 1
                self.useful_rows += bool(out.any())
            else:
                self.reduced_rows += out.shape[0]
                self.useful_rows += int(np.count_nonzero(out.any(axis=1)))
            return out

        return wrapper

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self, targets, subspace=None):
        """Wrap the targets (and count Subspace reductions) inside the block."""
        try:
            for owner, attr, name, sizes in targets:
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name, sizes))
            if subspace is not None:
                for attr in ("reduce", "reduce_rows"):
                    self._patch(subspace, attr, self._count_reduce(getattr(subspace, attr)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: `.s` is time inside the layer (a call nested in a
    call of the same layer counts once), `.self_s` subtracts the time of
    child spans, `.calls` counts calls; sizes are summed."""
    spans = tracer.spans
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    sizes = defaultdict(int)
    ss_ad_calls = 0
    for s, d, c in zip(spans, dur, child):
        name = s["name"]
        calls[name] += 1
        self_s[name] += d - c
        ancestors = []
        parent = s["parent"]
        while parent is not None:
            ancestors.append(spans[parent]["name"])
            parent = spans[parent]["parent"]
        if name not in ancestors:
            total[name] += d
        if name == "superalgebra.ad" and "semisimplify.semisimplify" in ancestors:
            ss_ad_calls += 1
        for key in ("dim", "nnz", "chains", "out_dim", "out_nnz", "members"):
            if key in s:
                sizes[(name, key)] += s[key]
        if name == "fp.rref":
            sizes[(name, "work")] += s["rows"] * s["cols"] * s["rank"]

    def t(name):
        return total.get(name, 0.0)

    m = {
        "chevalley.catalog_algebra.s": (t("chevalley.catalog_algebra"), "s"),
        "chevalley.dim": (sizes[("chevalley.catalog_algebra", "dim")], "count"),
        "chevalley.nnz": (sizes[("chevalley.catalog_algebra", "nnz")], "count"),
        "roots.swap_orbit.s": (t("roots.swap_orbit"), "s"),
        "roots.orbit_members": (sizes[("roots.swap_orbit", "members")], "count"),
        "fp.rref.calls": (calls["fp.rref"], "count"),
        "fp.rref.self_s": (self_s["fp.rref"], "s"),
        "fp.rref.work": (sizes[("fp.rref", "work")], "count"),
        "fp.kernel_basis.calls": (calls["fp.kernel_basis"], "count"),
        "fp.inverse.self_s": (self_s["fp.inverse"], "s"),
        "fp.inverse.s": (t("fp.inverse"), "s"),
        "repalpha.realize.s": (t("repalpha.realize"), "s"),
        "repalpha.decompose.self_s": (self_s["repalpha.decompose"], "s"),
        "repalpha.decompose.calls": (calls["repalpha.decompose"], "count"),
        "repalpha.chains": (sizes[("repalpha.decompose", "chains")], "count"),
        "repalpha.rank_count_vector.s": (t("repalpha.rank_count_vector"), "s"),
        "repalpha.validate.s": (t("repalpha.validate"), "s"),
        "semisimplify.semisimplify.self_s": (self_s["semisimplify.semisimplify"], "s"),
        "semisimplify.out_dim": (sizes[("semisimplify.semisimplify", "out_dim")], "count"),
        "semisimplify.out_nnz": (sizes[("semisimplify.semisimplify", "out_nnz")], "count"),
        "semisimplify.ad.calls": (ss_ad_calls, "count"),
        "superalgebra.ad.calls": (calls["superalgebra.ad"], "count"),
        "superalgebra.ad.s": (t("superalgebra.ad"), "s"),
        "superalgebra.subspace_extended.calls": (calls["superalgebra.subspace_extended"], "count"),
        "superalgebra.reduce.useful_ratio": (
            tracer.useful_rows / tracer.reduced_rows if tracer.reduced_rows else 0.0, "ratio"),
    }
    for name in ("super_jacobi", "super_skew", "odd_cubes", "generated_subalgebra", "gen_subquotient"):
        m[f"superalgebra.{name}.s"] = (t(f"superalgebra.{name}"), "s")
    for name in ("check_relations", "check_generation", "recognize_even_type", "odd_part_irreducible", "certify"):
        m[f"verify.{name}.s"] = (t(f"verify.{name}"), "s")
    for name in sorted(total):
        if name.startswith("table.row."):
            m[f"{name}.s"] = (total[name], "s")
    m["cli.emit.s"] = (t("cli.emit"), "s")
    return m


def row_accounting(tracer: Tracer, row_span: str) -> tuple[float, dict[str, float]]:
    """A row's traced duration and the self time of each layer inside it.
    The row span's own entry is the time spent outside every wrapped layer."""
    spans = tracer.spans
    root = next(s["id"] for s in spans if s["name"] == row_span)
    inside = {root}
    self_s = defaultdict(float)
    self_s[row_span] = spans[root]["end"] - spans[root]["start"]
    for s in spans[root + 1:]:  # children are recorded after their parent
        if s["parent"] in inside:
            inside.add(s["id"])
            d = s["end"] - s["start"]
            self_s[s["name"]] += d
            self_s[spans[s["parent"]]["name"]] -= d
    return spans[root]["end"] - spans[root]["start"], dict(self_s)
