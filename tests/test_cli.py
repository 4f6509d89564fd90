import hashlib
import json

import pytest

from verlie.cli import main
from verlie.roots import catalog_gcm


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


def test_swaps_f4(capsys, tmp_path):
    path = tmp_path / "swaps.json"
    assert main(["swaps", "--algebra", "f4", "--subset", "4", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["counts_agree"] is True
    assert sorted(tuple(m["black"]) for m in data["orbit"]) == [(3,), (4,)]


def test_json_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["decompose", "--algebra", "g2", "--element", "e2", "--json", str(a)]) == 0
    assert main(["decompose", "--algebra", "g2", "--element", "e2", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_algebra_spec_file(tmp_path, capsys):
    spec = {"name": "c3", "cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "p": 3}
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(spec))
    assert main(["decompose", "--algebra", str(path), "--element", "e1"]) == 0
    out = capsys.readouterr().out
    assert "block counts" in out


def test_custom_plan_certify(capsys):
    assert main(["certify", "--algebra", "e8", "--element", "e1+e2+e6+e8", "--plan", "g36"]) == 0
    assert "g(3,6)" in capsys.readouterr().out and main is not None


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


def test_semisimplify_checks_each_fact_once(monkeypatch, tmp_path):
    """One `semisimplify` call runs the super Jacobi scan once and the full
    chain check once: the CLI reads the reports `semisimplify` keeps, and the
    decomposition validated by the decomposer is not checked again."""
    from verlie import repalpha, superalgebra

    calls = {"jacobi": 0, "sorted_jacobi": 0, "validate": 0, "check": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(superalgebra, "jacobi_witness", "jacobi")
    counting(superalgebra, "sorted_jacobi_witness", "sorted_jacobi")
    counting(repalpha.ChainDecomposition, "validate", "validate")
    counting(repalpha.ChainDecomposition, "_check", "check")
    path = tmp_path / "out.json"
    assert main(["semisimplify", "--algebra", "f4", "-p", "5", "--element", "e1", "--json", str(path)]) == 0
    # the skew report passed, so the one Jacobi scan sums sorted triples
    assert calls == {"jacobi": 0, "sorted_jacobi": 1, "validate": 2, "check": 1}
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
    assert (second.p, second.json, second.element, second.subset) == (3, None, None, "4")
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
