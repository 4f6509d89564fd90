"""The benchmark tracer wraps verlie's functions by name, looked up in each
owner's own namespace.  A function that moves, or a name a module stops
importing, breaks the traced runs of `perfbench/`; this catches it without
running them."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("targets", ["setup_targets", "pass_targets"])
def test_traced_names_resolve(targets):
    spans = load_spans()
    listed = getattr(spans, targets)()
    assert listed
    for owner, attr, name, _ in listed:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} ({name})"
