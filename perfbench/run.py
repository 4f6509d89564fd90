"""verlie benchmark.

    python3 perfbench/run.py --workload {table,orbits,small} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `src/`.
Set-up (import, then building every catalog algebra the workload uses) is
repeated five times and its median reported.  An untraced run then repeats
passes until S seconds have passed, at least one; a traced run makes one
untraced and one traced pass over the same inputs and reports per-layer
metrics and the difference of their wall times.  The last line of standard
output is one JSON object with the metrics `BENCHMARK.json` lists for the
mode; the lines before it, and `.perfbench/results/`, hold everything else.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
P90_MIN_OPS = 100  # a p90 needs at least ten operations beyond it


def import_program() -> float | None:
    """Import verlie from this checkout's `src/`; the seconds it took, or None."""
    src = ROOT / "src"
    if not (src / "verlie" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import verlie

    seconds = time.perf_counter() - t0
    if Path(verlie.__file__).resolve().parent != (src / "verlie").resolve():
        return None
    return seconds


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def timing_metrics(passes, setup_s: float) -> dict[str, tuple[float, str]]:
    ops = [op for p in passes for op in p.ops]
    times = [op.seconds for op in ops]
    by_input = defaultdict(list)
    for op in ops:
        by_input[op.key].append(op.seconds)
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        # the slowest input, by the median of its times when a run repeats it
        "op_max_s": (max(statistics.median(t) for t in by_input.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (sum(not op.ok for op in ops) / len(ops), "ratio"),
        "repeat_share": (1 - len(by_input) / len(ops), "ratio"),
    }
    if min(len(p.ops) for p in passes) >= P90_MIN_OPS:
        m["op_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
    return m


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Run one workload; returns the metrics of both kinds and the run record."""
    from spans import Tracer, layer_metrics, pass_targets, row_accounting, setup_targets
    from verlie.superalgebra import Subspace

    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(reps)
    rng = random.Random(seed)
    record = {"workload": workload.name, "trace": int(trace), "setup_reps_s": reps, "import_s": import_s}
    layers = {}
    if not trace:
        passes = []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < seconds:
            passes.append(workload.run_pass(workload.draw(rng)))
    else:
        tracer = Tracer()
        with tracer.installed(setup_targets()):
            workload.setup()
        batch = workload.draw(rng)
        passes = [workload.run_pass(batch)]
        with tracer.installed(pass_targets(), subspace=Subspace):
            traced = workload.run_pass(batch, tracer)
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = (traced.wall - passes[0].wall, "s")
        record["traced_wall_s"] = traced.wall
        record["traced_failed"] = sum(not op.ok for op in traced.ops)
        if workload.name == "table":
            row, by_layer = row_accounting(tracer, "table.row.e8-e1-p3")
            record["e8-e1-p3"] = {"traced_s": row, "self_s_by_layer": by_layer}
        (WORKDIR / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(WORKDIR / "spans" / f"{workload.name}-seed{seed}.jsonl")
        passes.append(traced)
    end_to_end = timing_metrics(passes[:1] if trace else passes, setup_s)
    record.update({
        "passes": len(passes),
        "ops_per_pass": [len(p.ops) for p in passes],
        "attempted": sum(len(p.ops) for p in passes),
        "failed": sum(not op.ok for p in passes for op in p.ops),
        "failed_ops": sorted({op.key for p in passes for op in p.ops if not op.ok}),
    })
    return {"end_to_end": end_to_end, "per_layer": layers, "record": record}


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the record."""
    lines = []
    for kind in ("end_to_end", "per_layer"):
        for name, (value, unit) in result[kind].items():
            lines.append(f"{kind:<10} {name:<40} {value:>16.6g} {unit}")
    rec = result["record"]
    if "e8-e1-p3" in rec:
        row = rec["e8-e1-p3"]
        by_layer = sorted(row["self_s_by_layer"].items(), key=lambda kv: -kv[1])
        lines.append(f"e8-e1-p3 traced {row['traced_s']:.3f} s = sum of layer self times "
                     f"{sum(v for _, v in by_layer):.3f} s:")
        lines += [f"  {name:<40} {v:>9.3f} s {100 * v / row['traced_s']:5.1f}%" for name, v in by_layer]
    lines.append("record " + json.dumps(rec, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Single-threaded BLAS: steadier on a shared machine, and verlie's
    # int64 products do not use BLAS.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = import_program()
    if import_s is None:
        print(f"error: no verlie source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](workloads.load_digests(), WORKDIR)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), import_s)
    result["record"]["environment"] = environment(args.seed)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": result[kind][m["name"]][0], "unit": m["unit"]} for m in benchmark[kind]}
    rec = result["record"]
    out = {"correct": rec["failed"] == 0, "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}
    (WORKDIR / "results").mkdir(exist_ok=True)
    (WORKDIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "output": out}, indent=1, sort_keys=True) + "\n")
    print("\n".join(report(result)))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
