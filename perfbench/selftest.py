"""Self-test of the harness.

    python3 perfbench/selftest.py

Runs each workload at its smallest size (the table's inputs are fixed, so it
runs whole) in traced mode, which also makes an untraced pass, and checks
that every metric `BENCHMARK.json` lists is printed with its unit and that
no operation fails.  Then it checks that a wrong pinned digest and a raised
exception each count as failed operations.  Takes about three minutes;
exits 1 if a check fails.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys

import run

FORCED = "forced by the self-test"


@contextlib.contextmanager
def raise_once(owner, attr: str):
    """Make the first call of owner.attr raise; later calls run normally."""
    original = owner.__dict__[attr]
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError(FORCED)
        return original(*args, **kwargs)

    setattr(owner, attr, failing)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def main() -> int:
    import_s = run.import_program()
    if import_s is None:
        print("error: run from the root of a checkout with src/verlie", file=sys.stderr)
        return 2
    import workloads

    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pins = workloads.load_digests()
    run.WORKDIR.mkdir(exist_ok=True)
    smallest = {
        "table": lambda digests: workloads.Table(digests, run.WORKDIR),
        "orbits": lambda digests: workloads.Orbits(digests, run.WORKDIR, drawn={"f4": 1, "e6": 1, "e7": 1, "e8": 1}),
        "small": lambda digests: workloads.Small(digests, run.WORKDIR, per_pair=1),
    }
    # first call raises: the table command aborts, one orbit member or CLI call fails
    forced = {
        "table": (importlib.import_module("verlie.table"), "semisimplify"),
        "orbits": (importlib.import_module("verlie.repalpha"), "jordan_decompose"),
        "small": (importlib.import_module("verlie.cli"), "semisimplify"),
    }
    failures = []

    def check(label: str, ok: bool):
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    def measure(name, digests, trace):
        return run.measure(smallest[name](digests), seed=1, seconds=0, trace=trace, import_s=import_s)

    for name in smallest:
        result = measure(name, pins, trace=True)
        printed = {tuple(line.split()[:2]): line.split()[-1] for line in run.report(result)}
        for kind in ("end_to_end", "per_layer"):
            for metric in benchmark[kind]:
                unit = printed.get((kind, metric["name"]))
                check(f"{name}: {kind} {metric['name']} printed in {metric['unit']}", unit == metric["unit"])
        rec = result["record"]
        check(f"{name}: {rec['attempted']} operations, none failed", rec["attempted"] > 0 and rec["failed"] == 0)

        wrong = json.loads(json.dumps(pins))
        if name == "table":
            wrong["table"]["rows"]["f4-e1-p3"] = "sha256:" + "0" * 64
        else:
            wrong[name] = {key: "sha256:" + "0" * 64 for key in wrong[name]}
        rec = measure(name, wrong, trace=False)["record"]
        check(f"{name}: wrong pinned digest fails {rec['failed']}/{rec['attempted']}", rec["failed"] > 0)

        with raise_once(*forced[name]):
            rec = measure(name, pins, trace=False)["record"]
        check(f"{name}: raised exception fails {rec['failed']}/{rec['attempted']}", rec["failed"] > 0)

    print(f"selftest: {len(failures)} check(s) failed" if failures else "selftest: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
