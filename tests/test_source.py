"""The package holds the pipeline: every top-level function and class of
`src/verlie` is used somewhere in `src/` besides its own definition and the
re-exports of `__init__.py`.  Helpers that only the tests call live in
`tests/`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "verlie"

# entry points kept for callers outside the pipeline
ALLOWED = {
    "realize_derivation",  # realizes an outer derivation, checked by Leibniz
}


def test_every_top_level_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            used = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if used:
                uses.setdefault(used, []).append((name, node.lineno))
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in ALLOWED
              and not any(where != name or not node.lineno <= line <= node.end_lineno
                          for where, line in uses.get(node.name, []))]
    assert not unused, f"defined in src/ but used only outside it: {', '.join(unused)}"
