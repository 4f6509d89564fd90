"""Pin the output digests every seed can draw: the whole `table` payload and
each of its rows, every `orbits` pool member, every `small` input.

    python3 perfbench/pin.py

Writes `perfbench/digests.json`.  Pins record the outputs of the commit they
are made at; re-pin only for a change that is meant to alter an output.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if run.import_program() is None:
        print("error: run from the root of a checkout with src/verlie", file=sys.stderr)
        return 2
    import workloads

    run.WORKDIR.mkdir(exist_ok=True)
    empty = {"table": {"file": None, "rows": {}}, "orbits": {}, "small": {}}
    digests = {name: cls(empty, run.WORKDIR).pin() for name, cls in workloads.WORKLOADS.items()}
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print({name: len(d["rows"]) if name == "table" else len(d) for name, d in digests.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
