import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.pipelines import row_key
from verlie import cli, errors
from verlie.cli import main
from verlie.roots import admissible_subsets, catalog_gcm
from verlie.superalgebra import Report, Subspace
from verlie.table import CERTIFY, TABLE, run_row


def test_roots_command(capsys):
    assert main(["roots", "g2"]) == 0
    out = capsys.readouterr().out
    assert "6 positive roots, max height 5" in out


def test_roots_unknown_name(capsys):
    assert main(["roots", "zz9"]) == 3


def test_decompose_gl3(capsys, tmp_path):
    path = tmp_path / "out.json"
    assert main(["decompose", "--algebra", "gl3", "-p", "3", "--element", "e2",
                 "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["block_counts"] == [2, 2, 1]


def test_an_internal_fault_exits_4(monkeypatch, capsys):
    """A failed consistency check of the program's own results exits 4 with
    `internal assertion failed`, not as a refused input and not with a
    traceback: here one wrong rank fails the rank-formula check."""
    from tests.test_repalpha import one_rank_off
    from verlie import repalpha

    monkeypatch.setattr(repalpha, "_heads", one_rank_off(repalpha._heads))
    assert main(["decompose", "--algebra", "gl3", "-p", "3", "--element", "e2"]) == 4
    err = capsys.readouterr().err
    assert err == "internal assertion failed: chain counts disagree with the rank formula\n"


# a fault planted in the star route's subquotient: the superalgebra name it
# replaces, the replacement, and the message it ends with
STAR_FAULTS = {
    "seed span read back as a subalgebra": (
        "generated_subalgebra", lambda alg, vectors: Subspace.from_vectors(vectors, alg.dim, alg.p),
        "subspace is not bracket-closed"),
    "seeds outside their subalgebra": (
        "generated_subalgebra", lambda alg, vectors: Subspace.from_vectors([], alg.dim, alg.p),
        "vector not inside the subalgebra"),
    "subalgebra failing super Jacobi": (
        "check_super_jacobi", lambda alg: Report("super_jacobi", False, {"i": 0, "j": 0, "k": 0}),
        "generated subalgebra fails its cube prerequisites: {'requires': 'super_jacobi'}"),
}


@pytest.mark.parametrize("fault", STAR_FAULTS)
def test_a_fault_in_the_star_subquotient_exits_4(fault, monkeypatch, capsys):
    """The subquotient of the star route is built from a checked output, so
    a span that is not bracket-closed, a seed outside the subalgebra it
    generates, or a subalgebra that fails the prerequisites of its cube rows
    is a fault of the program: exit 4, not a refused input."""
    from verlie import superalgebra

    name, fake, message = STAR_FAULTS[fault]
    monkeypatch.setattr(superalgebra, name, fake)
    assert main(["certify", "--algebra", "f4", "--subset", "1", "--target", "sl(3|1)"]) == 4
    assert capsys.readouterr().err == f"internal assertion failed: {message}\n"


def test_decompose_requires_element(capsys):
    assert main(["decompose", "--algebra", "f4"]) == 3


def test_decompose_element_subset_consistency(capsys):
    assert main(["decompose", "--algebra", "f4", "--element", "e4", "--subset", "4"]) == 0
    assert main(["decompose", "--algebra", "f4", "--element", "e1", "--subset", "4"]) == 3


@pytest.mark.parametrize("command", ["decompose", "semisimplify"])
def test_structured_subset_with_empty_complement(command, capsys, tmp_path):
    path = tmp_path / "out.json"
    assert main([command, "--algebra", "a2", "-p", "3", "--subset", "1", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["block_counts"] == [1, 2, 1]
    if command == "semisimplify":
        assert data["superdim"] == [1, 2]
        assert data["checks"] == {"super_skew": True, "super_jacobi": True, "odd_cubes": True}


def test_semisimplify_f4(capsys, tmp_path):
    path = tmp_path / "ss.json"
    assert main(["semisimplify", "--algebra", "f4", "--subset", "4", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(21|14)" in out
    data = json.loads(path.read_text())
    assert data["superdim"] == [21, 14]
    assert data["checks"] == {"super_skew": True, "super_jacobi": True, "odd_cubes": True}
    assert data["algebra_out"]["parity"].count(1) == 14


def test_certify_verified_and_inferred_target(capsys):
    assert main(["certify", "--algebra", "e6", "--subset", "2"]) == 0
    out = capsys.readouterr().out
    assert "g(2,6)" in out and "Verified" in out


def test_certify_refuted_exit_code(capsys):
    assert main(["certify", "--algebra", "e6", "--subset", "2", "--target", "g(3,3)"]) == 2


def test_certify_star_target(capsys):
    assert main(["certify", "--algebra", "f4", "--subset", "1", "--target", "sl(3|1)"]) == 0
    assert "(9|6)" in capsys.readouterr().out


def test_star_target_is_refused_for_another_algebra_or_subset(capsys, tmp_path):
    """sl(3|1) is the star target of f4 with subset 1 only: e6 with subset 2,
    or f4 with subset 4, naming it is refused before any decomposition, and
    a spec file holding f4's Cartan matrix takes the star route."""
    for algebra, subset in (("e6", "2"), ("f4", "4")):
        assert main(["certify", "--algebra", algebra, "--subset", subset, "--target", "sl(3|1)"]) == 3
        captured = capsys.readouterr()
        assert "sl(3|1)" in captured.err and not captured.out
    spec = tmp_path / "f4.json"
    spec.write_text(json.dumps({"cartan": [list(row) for row in catalog_gcm("f4").entries]}))
    assert main(["certify", "--algebra", str(spec), "--subset", "1", "--target", "sl(3|1)"]) == 0
    assert "(9|6)" in capsys.readouterr().out


def test_swaps_f4(capsys, tmp_path):
    path = tmp_path / "swaps.json"
    assert main(["swaps", "--algebra", "f4", "--subset", "4", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["counts_agree"] is True
    assert sorted(tuple(m["black"]) for m in data["orbit"]) == [(3,), (4,)]


def test_swaps_counts_through_the_module(monkeypatch, capsys):
    """`swaps` reaches rank_count_vector as an attribute of verlie.repalpha,
    so a wrapper set there (as the benchmark tracer sets one) sees every
    orbit member."""
    from verlie import repalpha

    calls = []
    original = repalpha.rank_count_vector
    monkeypatch.setattr(repalpha, "rank_count_vector", lambda *args: calls.append(args) or original(*args))
    assert main(["swaps", "--algebra", "f4", "--subset", "4"]) == 0
    assert len(calls) == 2


def test_json_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["decompose", "--algebra", "g2", "--element", "e2", "--json", str(a)]) == 0
    assert main(["decompose", "--algebra", "g2", "--element", "e2", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["roots", "g2"],
    ["decompose", "--algebra", "g2", "-p", "101", "--element", "e1"],
    ["semisimplify", "--algebra", "g2", "-p", "101", "--element", "e1"],
    ["certify", "--algebra", "f4", "--subset", "1", "--target", "sl(3|1)"],
    ["swaps", "--algebra", "f4", "--subset", "1"],
])
def test_commands_without_json_build_no_json_text(argv, monkeypatch, capsys):
    """Without --json no payload text is built: at g2's largest accepted
    prime that text held the p entries of each count vector, and building it
    took most of the run's time and memory."""
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called without --json")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    assert main(argv) == 0


def test_algebra_spec_file(tmp_path, capsys):
    spec = {"name": "c3", "cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "p": 3}
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(spec))
    assert main(["decompose", "--algebra", str(path), "--element", "e1"]) == 0
    out = capsys.readouterr().out
    assert "block counts" in out


@pytest.mark.parametrize("spec,field", [
    ({"cartan": [[2, -1.5], [-1, 2]], "p": 3}, "cartan[0][1]"),
    ({"cartan": [[2, -1], [False, 2]], "p": 3}, "cartan[1][0]"),
    ({"cartan": [[2, -1], ["-1", 2]], "p": 3}, "cartan[1][0]"),
    ({"cartan": [[2, -1], [-1, 2]], "parity": [0, 0.0], "p": 3}, "parity[1]"),
    ({"cartan": [[2, -1], [-1, 2]], "parity": [True, 0], "p": 3}, "parity[0]"),
    ({"cartan": [[2, -1], [-1, 2]], "parity": ["0", 0], "p": 3}, "parity[0]"),
    ({"cartan": [[2, -1], [-1, 2]], "p": 3.5}, "p must"),
    ({"cartan": [[2, -1], [-1, 2]], "p": 3.0}, "p must"),
    ({"cartan": [[2, -1], [-1, 2]], "p": True}, "p must"),
    ({"cartan": [[2, -1], [-1, 2]], "p": "3"}, "p must"),
    ([[2, -1], [-1, 2]], "JSON object"),
], ids=["cartan-float", "cartan-bool", "cartan-string", "parity-float", "parity-bool", "parity-string", "p-float",
        "p-integral-float", "p-bool", "p-string", "not-an-object"])
def test_spec_file_values_are_read_exactly(spec, field, tmp_path, capsys):
    """A spec file whose Cartan entries, parity or p are not exact integers,
    or that is not a JSON object, exits 3 with an error naming the field."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["semisimplify", "--algebra", str(path), "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert field in captured.err and not captured.out


def test_empty_cartan_matrix_is_refused(tmp_path, capsys):
    """A spec file with an empty Cartan matrix exits 3 naming cartan, not
    with the empty max() of the root system build."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"cartan": []}))
    assert main(["decompose", "--algebra", str(path), "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert "cartan must have at least one row" in captured.err and not captured.out


@pytest.mark.parametrize("command", ["decompose", "swaps"])
@pytest.mark.parametrize("subset", ["1.5", "1,true"], ids=["fraction", "bool"])
def test_subset_tokens_are_read_exactly(subset, command, capsys):
    """--subset lists node numbers as runs of digits: a fraction or a word
    exits 3 naming --subset, not with int()'s message."""
    assert main([command, "--algebra", "f4", "--subset", subset]) == 3
    captured = capsys.readouterr()
    assert "--subset must list node numbers" in captured.err and not captured.out


@pytest.mark.parametrize("name", ["glx", "gl1.5", "gl", "a²", "gl²", "sl²", "a٦"],
                         ids=["gl-word", "gl-fraction", "gl-no-rank", "a-superscript", "gl-superscript",
                              "sl-superscript", "a-arabic-indic-digit"])
def test_catalog_ranks_are_ascii_digit_runs(name, capsys):
    """A catalog name's rank is a run of ASCII digits: any other name exits 3
    as an unknown catalog name, neither with int()'s message nor built as
    the algebra its Unicode digit stands for."""
    assert main(["decompose", "--algebra", name, "-p", "3", "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert f"unknown catalog name {name!r}" in captured.err and not captured.out


@pytest.mark.parametrize("flags,spec_p,p", [([], None, 3), (["-p", "5"], None, 5), ([], 5, 5), (["-p", "5"], 5, 5)],
                         ids=["neither", "flag-only", "file-only", "both-agree"])
def test_spec_file_runs_at_its_p_else_at_the_flag_else_at_3(flags, spec_p, p, tmp_path, capsys):
    spec = {"cartan": [[2, -1], [-1, 2]], **({"p": spec_p} if spec_p else {})}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(spec))
    assert main(["decompose", "--algebra", str(path), "--element", "e1", *flags]) == 0
    assert capsys.readouterr().out.startswith(f"{path} p={p}:")


def test_spec_file_p_and_flag_that_differ_are_refused(tmp_path, capsys):
    """A spec file's p and -p that disagree exit 3 naming p, rather than the
    file's p running in silence."""
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "p": 3}))
    assert main(["semisimplify", "--algebra", str(path), "-p", "5", "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: p is 3 in {path} but -p is 5\n" and not captured.out


def test_spec_file_without_cartan_is_refused(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "x", "p": 3}))
    assert main(["decompose", "--algebra", str(path), "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: cartan must be a list of rows, not None\n" and not captured.out


def test_spec_file_with_an_unknown_key_is_refused(tmp_path, capsys):
    """Only name, cartan, parity and p are read; any other key, such as a
    misspelt parity, exits 3 naming it."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "parities": [0, 0], "p": 3}))
    assert main(["decompose", "--algebra", str(path), "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} has an unknown key 'parities'\n" and not captured.out


@pytest.mark.parametrize("element", ["(" * 400 + "e1" + ")" * 400, "[e1," * 400 + "e2" + "]" * 400],
                         ids=["parentheses", "brackets"])
def test_element_nested_400_deep_is_a_parse_error(element, capsys):
    assert main(["decompose", "--algebra", "g2", "--element", element]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: nested too deeply (at position ") and not captured.out


def test_element_nested_300_deep_runs_from_the_command_line(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["decompose", "--algebra", "g2", "--element", "(" * 300 + "e1" + ")" * 300]
    out = subprocess.run([sys.executable, "-m", "verlie.cli", *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.startswith("g2 p=3: block counts (5, 0, 3)"), out.stderr


def test_certify_refuses_an_unknown_target_before_decomposing(monkeypatch, capsys):
    """A maint target outside the catalog exits 3 with a typed message, not
    a KeyError's repr after the whole pipeline has run."""
    def refuse(*_):
        raise AssertionError("decomposed an input that certify refuses")

    monkeypatch.setattr(cli, "jordan_decompose", refuse)
    assert main(["certify", "--algebra", "e6", "--subset", "2", "--target", "foo"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: unknown target 'foo'\n" and not captured.out


def test_custom_plan_certify(capsys):
    assert main(["certify", "--algebra", "e8", "--element", "e1+e2+e6+e8", "--plan", "g36"]) == 0
    assert "g(3,6)" in capsys.readouterr().out and main is not None


@pytest.mark.parametrize("argv,message", [
    (["--algebra", "gl3", "--subset", "1"], "Chevalley-basis algebra"),
    (["--algebra", "e6", "-p", "5", "--subset", "2"], "characteristic 3"),
    (["--algebra", "e6", "-p", "5", "--subset", "2", "--target", "g(2,6)"], "characteristic 3"),
    (["--algebra", "e6", "--subset", "3"], "not an admissible subset"),
    (["--algebra", "f4", "--element", "e4", "--plan", "g36"], "rank-8 catalog algebra"),
    (["--algebra", "e8", "--element", "e1", "--plan", "g36"], "element e1 + e2 + e6 + e8"),
    (["--algebra", "e8", "--element", "e1+e2+e6+e8", "--plan", "g36", "--target", "g(2,3)"],
     "--plan g36 certifies against g(3,6) only"),
    (["--algebra", "f4", "--element", "e1", "--target", "el(5;5)"], "characteristic differs"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_certify_outside_its_routes_is_an_input_error(argv, message, monkeypatch, capsys):
    """Each route checks its own setting first, before any decomposition: the
    boundary-node routes the subset and characteristic, the hand plan its
    algebra, element and target, the even route the target's characteristic."""
    def refuse(*_):
        raise AssertionError("decomposed an input that certify refuses")

    monkeypatch.setattr(cli, "jordan_decompose", refuse)
    assert main(["certify", *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


# spec files that REFUSED commands name, written to the working directory of each run
REFUSED_SPECS = {"nonsquare.json": '{"cartan": [[2, -1, 0], [-1, 2]]}',
                 "parity.json": '{"cartan": [[2, -1], [-1, 2]], "parity": [0]}',
                 "notjson.json": '{"cartan": [[2, -1], [-1, 2]'}

# inputs refused by a typed error, with its message; each exited 3 with the same message
# when the error was a bare ValueError (or, for the file that is not JSON, json's own)
REFUSED = [
    (["swaps", "--algebra", "f4", "--subset", "9"], errors.IllegalSwap, "node 9 out of range"),
    (["swaps", "--algebra", "f4", "--subset", "1,2"], errors.IllegalSwap, "black nodes 1, 2 are adjacent"),
    (["decompose", "--algebra", "gl0", "--element", "e1"], errors.BadSpec, "rank must be positive"),
    (["decompose", "--algebra", "sl1", "--element", "e1"], errors.BadSpec, "rank must be at least 2"),
    (["roots", "d2"], errors.BadSpec, "rank too small for type d"),
    (["decompose", "--algebra", "d2", "--element", "e1"], errors.BadSpec, "rank too small for type d"),
    (["roots", "zz"], errors.BadSpec, "unknown catalog name 'zz'"),
    (["decompose", "--algebra", "zz", "--element", "e1"], errors.BadSpec, "unknown catalog name 'zz'"),
    (["decompose", "--algebra", "nonsquare.json", "--element", "e1"], errors.BadSpec, "Cartan matrix must be square"),
    (["decompose", "--algebra", "parity.json", "--element", "e1"], errors.BadSpec,
     "parity vector must be 0/1 of matching length"),
    (["decompose", "--algebra", "notjson.json", "--element", "e1"], errors.BadSpec,
     "Expecting ',' delimiter: line 1 column 29 (char 28)"),
    (["certify", "--algebra", "f4", "--element", "e4", "--plan", "g36"], errors.PreconditionViolated,
     "custom plan expects the rank-8 catalog algebra"),
    (["certify", "--algebra", "e8", "--element", "e1", "--plan", "g36"], errors.PreconditionViolated,
     "custom plan expects the element e1 + e2 + e6 + e8"),
    (["certify", "--algebra", "f4", "--element", "e1", "--target", "el(5;5)"], errors.PreconditionViolated,
     "target characteristic differs from the algebra's"),
    # refused only after semisimplifying, when the even route looks for the Cartan torus
    (["certify", "--algebra", "gl3", "-p", "5", "--element", "e1", "--target", "el(5;5)"],
     errors.PreconditionViolated, "needs a Chevalley-basis source algebra"),
]


@pytest.mark.parametrize("argv,kind,message", REFUSED, ids=[" ".join(argv) for argv, _, _ in REFUSED])
def test_refused_inputs_raise_typed_errors(argv, kind, message, tmp_path, monkeypatch, capsys):
    """Each refusal exits 3 with its message and nothing on stdout, and the
    command raises it in-process as the VerlieError subclass named."""
    for name, text in REFUSED_SPECS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(errors.VerlieError) as raised:
        args.func(args)
    assert type(raised.value) is kind and str(raised.value) == message


def test_certify_prints_why_a_certificate_is_not_verified(capsys):
    """A verdict other than Verified is followed by the first failing report's
    witness, or by the superdimensions when every report passes; a Verified
    one by nothing.  The payload keeps its bytes (GOLDEN pins them)."""
    assert main(["certify", "--algebra", "f4", "--subset", "1", "--target", "g(1,6)"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "f4 vs g(1,6): Refuted (superdim (15|8))", '  witness: {"dim": 15, "expected": 23}']
    assert main(["certify", "--algebra", "e6", "--subset", "2", "--target", "g(3,3)"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "e6 vs g(3,3): Refuted (superdim (35|20))", '  witness: {"expected": [22, 16], "superdim": [35, 20]}']
    assert main(["certify", "--algebra", "e6", "--subset", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["e6 vs g(2,6): Verified (superdim (35|20))"]


# one table row per certificate route, and the `certify` flags that reach it
ROUTE_ROWS = [
    ("maint", "e6@e2|p=3", ["--algebra", "e6", "--subset", "2"]),
    ("star", "f4@e1|p=3", ["--algebra", "f4", "--subset", "1", "--target", "sl(3|1)"]),
    ("custom-g36", "e8@e1+e2+e6+e8|p=3", ["--algebra", "e8", "--element", "e1+e2+e6+e8", "--plan", "g36"]),
    ("el55", "e8@e2+e3+e4|p=5", ["--algebra", "e8", "-p", "5", "--element", "e2+e3+e4", "--target", "el(5;5)"]),
]


@pytest.mark.parametrize("route,key,argv", ROUTE_ROWS, ids=[row[0] for row in ROUTE_ROWS])
def test_each_route_gives_one_certificate_through_certify_and_table(route, key, argv, tmp_path):
    spec = next(spec for spec in TABLE if row_key(spec) == key)
    assert spec.route == route
    path = tmp_path / "cert.json"
    assert main(["certify", *argv, "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    certificate = json.loads(json.dumps(run_row(spec).certificate))
    assert {k: payload[k] for k in certificate} == certificate


def test_every_table_route_is_a_certificate_route_or_run_by_the_row():
    assert {route for route, _, _ in ROUTE_ROWS} == set(CERTIFY)
    assert {spec.route for spec in TABLE} <= set(CERTIFY) | {"even", "superdim"}


def test_table_command(capsys, tmp_path):
    path = tmp_path / "table.json"
    assert main(["table", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "all rows match" in out
    data = json.loads(path.read_text())
    assert data["ok"] is True and len(data["rows"]) == 16


@pytest.mark.parametrize("command", ["decompose", "semisimplify"])
@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9])
def test_bad_modulus_exit_code(command, p, capsys):
    assert main([command, "--algebra", "g2", "-p", str(p), "--element", "e2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not an odd prime" in err and "Traceback" not in err


def test_non_nilpotent_element_exit_code(capsys):
    assert main(["decompose", "--algebra", "g2", "--element", "h1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not nilpotent" in err and "Traceback" not in err


@pytest.mark.parametrize("element,message", [
    ("e99 + *", "error: expected a generator, bracket, or parenthesis (at position 6)"),
    ("e99 + e1", "error: algebra has no generator e99"),
])
def test_bad_element_exit_code(element, message, capsys):
    assert main(["decompose", "--algebra", "g2", "--element", element]) == 3
    assert capsys.readouterr().err.strip() == message


def test_modulus_beyond_accumulation_bound_exit_code(capsys):
    assert main(["decompose", "--algebra", "g2", "-p", "4294967311", "--element", "e1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("name,subset", [("c3", "1"), ("f4", "4")])
def test_certify_spec_file_infers_target_like_catalog(name, subset, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"cartan": [list(row) for row in catalog_gcm(name).entries], "p": 3}))
    codes, outputs = [], []
    for algebra in (name, str(path)):
        codes.append(main(["certify", "--algebra", algebra, "--subset", subset]))
        captured = capsys.readouterr()
        outputs.append((captured.out + captured.err).replace(algebra, "<algebra>"))
    assert codes[0] == codes[1] and outputs[0] == outputs[1]
    assert "unknown catalog name" not in outputs[1]


# 30 catalog names, and the target inferred for each admissible subset that
# resolves (22 of the 78 non-empty ones); every other subset is refused
INFER_NAMES = ["g2", "f4", "e6", "e7", "e8", *(f"{kind}{n}" for kind, low in (("a", 2), ("b", 2), ("c", 3), ("d", 4))
                                                for n in range(low, 9))]
INFERRED_TARGETS = {
    ("f4", (4,)): "g(1,6)",
    **{("e6", subset): "g(2,6)" for subset in ((1,), (2,), (6,))},
    **{("e6", subset): "g(3,3)" for subset in ((1, 2), (1, 6), (2, 6))},
    ("e6", (1, 2, 6)): "g(2,3)",
    **{("e7", subset): "g(4,6)" for subset in ((1,), (2,), (7,))},
    **{("e7", subset): "el(5;3)" for subset in ((1, 2), (1, 7), (2, 7))},
    ("e7", (1, 2, 7)): "g(4,3)",
    **{("e8", subset): "g(8,6)" for subset in ((1,), (2,), (8,))},
    **{("e8", subset): "g(6,6)" for subset in ((1, 2), (1, 8), (2, 8))},
    ("e8", (1, 2, 8)): "g(8,3)",
}


def test_inferred_target_pinned_on_every_admissible_subset():
    """The target certify infers from the subset or its swap orbit, or the
    refusal that asks for --target, on every non-empty admissible subset."""
    answers, refused = {}, 0
    for name in INFER_NAMES:
        gcm = catalog_gcm(name)
        for subset in filter(None, admissible_subsets(gcm)):
            try:
                answers[name, subset] = cli._infer_target(name, gcm, subset)
            except errors.VerlieError as exc:
                assert str(exc) == f"no catalog target for {name} with subset {subset}; pass --target"
                refused += 1
    assert answers == INFERRED_TARGETS and refused == 78 - 22


def test_semisimplify_checks_each_fact_once(monkeypatch, tmp_path):
    """One `semisimplify` call runs the super Jacobi scan once and the chain
    check once: the CLI reads the reports `semisimplify` keeps, and the
    decomposition checked against the realization's own D when it was made is
    not checked again."""
    from verlie import repalpha, superalgebra

    calls = {"jacobi": 0, "validate": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(superalgebra, "jacobi_witness", "jacobi")
    counting(repalpha.ChainDecomposition, "validate", "validate")
    path = tmp_path / "out.json"
    assert main(["semisimplify", "--algebra", "f4", "-p", "5", "--element", "e1", "--json", str(path)]) == 0
    assert calls == {"jacobi": 1, "validate": 1}
    checks = json.loads(path.read_text())["checks"]
    assert checks == {"super_skew": True, "super_jacobi": True, "odd_cubes": True}


def test_parser_keeps_no_state_between_calls(tmp_path):
    """The parser is built once per process; a call's flags and subcommand do
    not reach the next call, whose payload matches its pin."""
    from tests.test_cli_golden import GOLDEN
    from verlie.cli import build_parser

    assert build_parser() is build_parser()
    first = build_parser().parse_args(["semisimplify", "--algebra", "g2", "-p", "5", "--element", "e1",
                                       "--json", "x.json"])
    second = build_parser().parse_args(["decompose", "--algebra", "f4", "--subset", "4"])
    assert (first.p, first.json, first.element) == (5, "x.json", "e1")
    assert (second.p, second.json, second.element, second.subset) == (None, None, None, "4")
    assert second.func.__name__ == "cmd_decompose" and not hasattr(second, "plan")
    pinned = {tuple(argv): (code, digest) for argv, code, digest in GOLDEN}
    order = [
        ["certify", "--algebra", "e6", "--subset", "2", "--target", "g(3,3)"],
        ["semisimplify", "--algebra", "g2", "-p", "5", "--element", "e1"],
        ["certify", "--algebra", "e6", "--subset", "2"],
        ["decompose", "--algebra", "f4", "--subset", "4"],
    ]
    for i, argv in enumerate(order):
        path = tmp_path / f"{i}.json"
        code, digest = pinned[tuple(argv)]
        assert main(argv + ["--json", str(path)]) == code
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, argv


def test_commands_import_no_masked_arrays(tmp_path):
    """A plain np.unique (no index or count outputs) imports numpy.ma on its
    first call, which costs a process over a megabyte of memory.  These
    commands reach every place that once called it: the cube rows of
    semisimplify's odd-cube check, the closure and the full odd-cube pieces
    of the star route's generator subquotient, and the eigenspace split of
    the even route."""
    commands = [["semisimplify", "--algebra", "g2", "-p", "5", "--element", "e1"],
                ["certify", "--algebra", "f4", "--subset", "1", "--target", "sl(3|1)"],
                ["certify", "--algebra", "e8", "-p", "5", "--element", "e2+e3+e4", "--target", "el(5;5)"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys\nfrom verlie.cli import main\n"
            f"codes = [main(argv + ['--json', {str(tmp_path / 'out.json')!r}]) for argv in {commands!r}]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0, 0], False]
