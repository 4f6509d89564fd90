"""The package holds the pipeline: every top-level function and class of
`src/verlie`, and every method and property of its classes, is used
somewhere in `src/` besides its own definition and the re-exports of
`__init__.py`.  Helpers that only the tests call live in `tests/`.

A top-level name is used when `src/` reads it at all; a method or property
only when `src/` reads it as an attribute, `.name`, since a bare local of
the same name is not a use.  When another class of `src/` also defines the
name, as a field or a member, an attribute read does not say whose it is,
so such a member names its reader in SHARED."""

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

# "Class.member" -> "file:function" of src/ that reads the member, for each member whose
# name another class of src/ also defines
SHARED = {
    "Certificate.conclusion": "cli.py:cmd_certify",
    "Certificate.to_json_dict": "table.py:run_row",
    "Certificate.witness": "cli.py:cmd_certify",
    "ChainDecomposition.dim": "repalpha.py:validate",
    "IntegralLieAlgebra.rank": "chevalley.py:reduce_mod_p",
    "IntegralLieAlgebra.tensor": "chevalley.py:reduce_mod_p",
    "ModularSuperAlgebra.parities": "verify.py:check_relations",
    "ModularSuperAlgebra.to_json_dict": "semisimplify.py:to_json_dict",
    "RootSystem.rank": "roots.py:symmetrizer",
    "SemisimplifiedAlgebra.p": "verify.py:tilde_target",
    "SemisimplifiedAlgebra.to_json_dict": "cli.py:cmd_semisimplify",
    "Subspace.dim": "verify.py:check_generation",
    "TableRow.to_json_dict": "cli.py:cmd_table",
}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _reads(tree: ast.AST, attributes_only: bool) -> list[tuple[str, int]]:
    """(name, line) of every name read in the tree: attribute reads `.name`,
    and bare names too unless attributes_only."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and not attributes_only:
            out.append((node.id, node.lineno))
    return out


def _unused(trees: dict[str, ast.Module], defs, attributes_only: bool = False) -> list[str]:
    """The definitions (file name, node) whose name is read nowhere in src/ outside their own body."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for used, line in _reads(tree, attributes_only):
            uses.setdefault(used, []).append((name, line))
    return [f"{name}:{node.name}" for name, node in defs if node.name not in ALLOWED
            and not any(where != name or not node.lineno <= line <= node.end_lineno
                        for where, line in uses.get(node.name, []))]


def _members(trees: dict[str, ast.Module]) -> list[tuple[str, ast.ClassDef, ast.FunctionDef]]:
    """(file name, class, member) of every method and property; dunder
    methods are called by Python itself and are not counted."""
    return [(name, node, member) for name, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef) for member in node.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")]


def _class_names(node: ast.ClassDef) -> set[str]:
    """The names a class defines in its body: fields, assignments and members."""
    out = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
            out.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            out.add(item.target.id)
        elif isinstance(item, ast.Assign):
            out.update(target.id for target in item.targets if isinstance(target, ast.Name))
    return out


def _shared(trees: dict[str, ast.Module]) -> set[str]:
    """"Class.member" for each member whose name another class of src/ defines."""
    classes = [node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)]
    return {f"{node.name}.{member.name}" for _, node, member in _members(trees) if member.name not in ALLOWED
            and any(other is not node and member.name in _class_names(other) for other in classes)}


def test_every_top_level_definition_is_used_in_src():
    trees = _trees()
    unused = _unused(trees, [(name, node) for name, tree in trees.items() for node in tree.body
                             if isinstance(node, (ast.FunctionDef, ast.ClassDef))])
    assert not unused, f"defined in src/ but used only outside it: {', '.join(unused)}"


def test_every_method_and_property_is_used_in_src():
    trees = _trees()
    unused = _unused(trees, [(name, member) for name, _, member in _members(trees)], attributes_only=True)
    assert not unused, f"class members defined in src/ but used only outside it: {', '.join(unused)}"


def test_every_shared_member_names_its_reader_in_src():
    """SHARED lists exactly the members whose name another class also
    defines, and each reader named there reads `.member`."""
    trees = _trees()
    assert set(SHARED) == _shared(trees)
    for owned, reader in SHARED.items():
        member = owned.split(".")[1]
        name, function = reader.split(":")
        bodies = [node for node in ast.walk(trees[name]) if isinstance(node, ast.FunctionDef) and node.name == function]
        reads = [used for body in bodies for used, _ in _reads(body, attributes_only=True)]
        assert member in reads, f"{reader} reads no .{member}"
