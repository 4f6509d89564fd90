"""The three workloads.  Each is a closed loop: one caller, and the next
operation starts when the previous one returns.

A workload builds its catalog algebras in `setup`, draws the inputs of one
pass from a seeded `random.Random` in `draw`, and runs them in `run_pass`,
which times every operation and checks its output against the digest
pinned in `digests.json`.  An operation fails on an exception, a wrong exit
code, a table row that is not ok, or a digest that differs from the pin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from verlie import chevalley, cli, repalpha, roots
from verlie import table as table_mod

DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Op:
    key: str  # the input, so repeats can be counted
    seconds: float
    ok: bool


@dataclass
class PassResult:
    wall: float
    ops: list[Op] = field(default_factory=list)


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def build_algebras(algebras) -> None:
    """Build each catalog algebra anew, from cleared caches, with its sparse ad tensor."""
    chevalley.catalog_algebra.cache_clear()
    chevalley.integral_catalog.cache_clear()
    for name, p in algebras:
        alg = chevalley.catalog_algebra(name, p)
        alg.ad(np.zeros(alg.dim, dtype=np.int64))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Table:
    """`verlie table --json`: one pass is the 16 rows of the results table."""

    name = "table"

    def __init__(self, digests: dict, workdir: Path):
        self.pins = digests["table"]
        self.out = workdir / "table.json"
        self.algebras = sorted({(s.algebra, s.p) for s in table_mod.TABLE})

    @staticmethod
    def slug(algebra: str, p: int, element: str) -> str:
        return f"{algebra}-{element.replace('+', '-')}-p{p}"

    def setup(self) -> None:
        build_algebras(self.algebras)

    def draw(self, rng) -> tuple:
        return table_mod.TABLE  # fixed by the paper's results table

    def run_pass(self, specs, tracer=None) -> PassResult:
        # a timed pass never sees a row computed earlier
        table_mod.run_row.cache_clear()
        table_mod.row_pipeline.cache_clear()
        run_row = table_mod.run_row
        done: dict[str, Op] = {}

        def timed_row(spec):
            key = self.slug(spec.algebra, spec.p, spec.elements[0])
            t0 = perf_counter()
            try:
                with _span(tracer, f"table.row.{key}"):
                    row = run_row(spec)
            except Exception:
                done[key] = Op(key, perf_counter() - t0, False)
                raise
            done[key] = Op(key, perf_counter() - t0, row.ok)
            return row

        self.out.unlink(missing_ok=True)
        sink = io.StringIO()
        table_mod.run_row = timed_row
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(["table", "--json", str(self.out)])
        except Exception:
            rc = None
        finally:
            wall = perf_counter() - t0
            table_mod.run_row = run_row
        rows_ok = self._check_output() if rc == 0 else {}
        result = PassResult(wall)
        for spec in specs:
            key = self.slug(spec.algebra, spec.p, spec.elements[0])
            op = done.get(key, Op(key, 0.0, False))
            result.ops.append(Op(key, op.seconds, op.ok and rows_ok.get(key, False)))
        return result

    def _check_output(self) -> dict[str, bool]:
        """Row key -> digest matches.  A file that differs from the pin while
        every row matches fails every row."""
        got = self.digests(self.out.read_bytes())
        ok = {key: digest == self.pins["rows"].get(key) for key, digest in got["rows"].items()}
        if got["file"] != self.pins["file"] and all(ok.values()):
            ok = dict.fromkeys(ok, False)
        return ok

    def digests(self, data: bytes) -> dict:
        """Digests of the payload file and of each row, as `digests.json` keeps them."""
        rows = {self.slug(r["algebra"], r["p"], r["elements"][0]):
                sha256(json.dumps(r, sort_keys=True, separators=(",", ":")).encode())
                for r in json.loads(data)["rows"]}
        return {"file": sha256(data), "rows": rows}

    def pin(self) -> dict:
        self.setup()
        table_mod.run_row.cache_clear()
        table_mod.row_pipeline.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["table", "--json", str(self.out)]) != 0:
                raise RuntimeError("the table does not match at this commit")
        return self.digests(self.out.read_bytes())


class Orbits:
    """Distinct legal-swap-orbit members of the admissible subsets at p=3:
    parse, realize, decompose and count blocks, as `verlie swaps` does."""

    name = "orbits"
    P = 3
    # Members drawn per algebra and pass: all of f4, e6 and e7 (so the median
    # operation is an e7 member on every seed) and half of the 50 of e8, which
    # makes one pass outlast the measuring window, so no member repeats.
    DRAWN = {"f4": 7, "e6": 21, "e7": 32, "e8": 25}

    def __init__(self, digests: dict, workdir: Path, drawn: dict[str, int] | None = None):
        self.pins = digests["orbits"]
        self.drawn = dict(drawn or self.DRAWN)
        self.pool: dict[str, list[tuple[int, ...]]] = {}

    @staticmethod
    def key(algebra: str, nodes) -> str:
        return f"{algebra}|" + "+".join(f"e{i}" for i in nodes)

    def setup(self) -> None:
        build_algebras([(name, self.P) for name in self.drawn])
        self.pool = {}
        for name in self.drawn:
            gcm = roots.catalog_gcm(name)
            members = set()
            for subset in roots.admissible_subsets(gcm):
                if subset:
                    members.update(c.sorted_black() for c in roots.swap_orbit(roots.Coloring(gcm, frozenset(subset))))
            self.pool[name] = sorted(members)

    def draw(self, rng) -> list[tuple[str, tuple[int, ...]]]:
        picks = [(name, nodes) for name, count in self.drawn.items()
                 for nodes in rng.sample(self.pool[name], count)]
        rng.shuffle(picks)
        return picks

    @classmethod
    def run_op(cls, algebra: str, nodes):
        alg = chevalley.catalog_algebra(algebra, cls.P)
        _, vec = repalpha.parse_element("+".join(f"e{i}" for i in nodes), alg)
        decomp = repalpha.jordan_decompose(repalpha.realize(alg, vec))
        return repalpha.block_counts(decomp), decomp

    @staticmethod
    def digest(counts, decomp) -> str:
        h = hashlib.sha256(json.dumps(list(counts)).encode())
        for chain in decomp.chains:
            vectors = np.ascontiguousarray(chain.vectors, dtype="<i8")
            h.update(json.dumps([list(vectors.shape), chain.tag]).encode())
            h.update(vectors.tobytes())
        return "sha256:" + h.hexdigest()

    def run_pass(self, picks, tracer=None) -> PassResult:
        result = PassResult(0.0)
        t_pass = perf_counter()
        for algebra, nodes in picks:
            key = self.key(algebra, nodes)
            t0 = perf_counter()
            try:
                with _span(tracer, "orbits.op"):
                    counts, decomp = self.run_op(algebra, nodes)
            except Exception:
                result.ops.append(Op(key, perf_counter() - t0, False))
                continue
            seconds = perf_counter() - t0
            result.ops.append(Op(key, seconds, self.digest(counts, decomp) == self.pins.get(key)))
        result.wall = perf_counter() - t_pass
        return result

    def pin(self) -> dict:
        self.setup()
        return {self.key(name, nodes): self.digest(*self.run_op(name, nodes))
                for name, members in self.pool.items() for nodes in members}


class Small:
    """In-process `verlie semisimplify --json` on small algebras, where the
    fixed cost of each call dominates."""

    name = "small"
    ALGEBRAS = ("g2", "f4", "a4", "a5", "b3", "b4", "c3", "c4", "d4", "gl3", "sl4")
    PRIMES = (3, 5, 7)

    def __init__(self, digests: dict, workdir: Path, per_pair: int | None = None):
        self.pins = digests["small"]
        self.out = workdir / "small.json"
        # Elements drawn per (algebra, prime) and pass; by default all of them,
        # 267 calls in seed-drawn order, so that the slowest calls (f4) are in
        # every pass and op_max_s does not depend on the seed.
        self.per_pair = per_pair
        self.algebras = [(a, p) for a in self.ALGEBRAS for p in self.PRIMES]
        self.pool: dict[tuple[str, int], list[str]] = {}

    @staticmethod
    def key(algebra: str, p: int, element: str) -> str:
        return f"{algebra}|{p}|{element}"

    def setup(self) -> None:
        build_algebras(self.algebras)
        self.pool = {}
        for a, p in self.algebras:
            alg = chevalley.catalog_algebra(a, p)
            n = sum(1 for g in alg.gens if g.startswith("e"))
            singles = [f"e{i}" for i in range(1, n + 1)]
            pairs = [f"e{i}+e{j}" for i, j in itertools.combinations(range(1, n + 1), 2)]
            self.pool[(a, p)] = singles + pairs

    def draw(self, rng) -> list[tuple[str, int, str]]:
        picks = [(a, p, e) for (a, p), elements in self.pool.items()
                 for e in rng.sample(elements, min(self.per_pair or len(elements), len(elements)))]
        rng.shuffle(picks)
        return picks

    def run_op(self, algebra: str, p: int, element: str) -> int:
        return cli.main(["semisimplify", "--algebra", algebra, "-p", str(p), "--element", element,
                         "--json", str(self.out)])

    def digest(self, rc: int) -> str:
        return sha256(self.out.read_bytes()) if rc == 0 else f"exit:{rc}"

    def run_pass(self, picks, tracer=None) -> PassResult:
        result = PassResult(0.0)
        sink = io.StringIO()
        t_pass = perf_counter()
        for algebra, p, element in picks:
            key = self.key(algebra, p, element)
            self.out.unlink(missing_ok=True)
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), _span(tracer, "small.op"):
                    rc = self.run_op(algebra, p, element)
            except Exception:
                result.ops.append(Op(key, perf_counter() - t0, False))
                continue
            seconds = perf_counter() - t0
            result.ops.append(Op(key, seconds, self.digest(rc) == self.pins.get(key)))
        result.wall = perf_counter() - t_pass
        return result

    def pin(self) -> dict:
        self.setup()
        out = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for (a, p), elements in self.pool.items():
                for e in elements:
                    self.out.unlink(missing_ok=True)
                    rc = self.run_op(a, p, e)
                    if rc not in (0, 3):
                        raise RuntimeError(f"{a} p={p} {e}: exit code {rc}")
                    out[self.key(a, p, e)] = self.digest(rc)
        return out


WORKLOADS = {cls.name: cls for cls in (Table, Orbits, Small)}
