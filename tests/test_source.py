"""The package holds the pipeline: every top-level function and class of
`src/verlie`, and every method and property of its classes, is used
somewhere in `src/` besides its own definition and the re-exports of
`__init__.py`.  Helpers that only the tests call live in `tests/`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "verlie"

# entry points kept for callers outside the pipeline
ALLOWED = {
    "realize_derivation",  # realizes an outer derivation, checked by Leibniz
    "from_json_dict",  # the reader that checks the format to_json_dict writes
    "constants",  # both (i, j) -> {k: c} views: perfbench's _nnz and the tests read them
    "reduce",  # Subspace.reduce: patched by perfbench, until the program keeps its own trace
}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _unused(trees: dict[str, ast.Module], defs) -> list[str]:
    """The definitions (file name, node) whose name is read nowhere in src/ outside their own body."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            used = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if used:
                uses.setdefault(used, []).append((name, node.lineno))
    return [f"{name}:{node.name}" for name, node in defs if node.name not in ALLOWED
            and not any(where != name or not node.lineno <= line <= node.end_lineno
                        for where, line in uses.get(node.name, []))]


def test_every_top_level_definition_is_used_in_src():
    trees = _trees()
    unused = _unused(trees, [(name, node) for name, tree in trees.items() for node in tree.body
                             if isinstance(node, (ast.FunctionDef, ast.ClassDef))])
    assert not unused, f"defined in src/ but used only outside it: {', '.join(unused)}"


def test_every_method_and_property_is_used_in_src():
    """Dunder methods are called by Python itself and are not counted."""
    trees = _trees()
    unused = _unused(trees, [(name, member) for name, tree in trees.items() for node in tree.body
                             if isinstance(node, ast.ClassDef) for member in node.body
                             if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")])
    assert not unused, f"class members defined in src/ but used only outside it: {', '.join(unused)}"
