"""Pinned `--json` payloads: the SHA-256 of each command's JSON file and its
exit code.  The pins were recorded before the certificate routes were shared
between `certify` and `table`; any refactor must leave these bytes alone.
Never regenerate them to make a change pass."""

import hashlib
import json

import pytest

from verlie.cli import main

# spec files that GOLDEN commands name, written to the working directory of each run
SPEC_FILES = {"g2.json": '{"name": "g2", "cartan": [[2, -3], [-1, 2]], "p": 5}'}

GOLDEN = [
    (["roots", "g2"],
     0, "12af9cd5bb6c6e8e1b0552024f44d268d3e47b7425e6ca38de1a267398ed0697"),
    (["decompose", "--algebra", "gl3", "-p", "3", "--element", "e2"],
     0, "ff49a6322d044f5a14949559d6a7af02e681cab442353c1277841468fc7f8626"),
    (["decompose", "--algebra", "f4", "--subset", "4"],
     0, "7049a497c52a64e7fcae35032afb0c6b3d1b561bff79928ab0a256469f6a8245"),
    (["decompose", "--algebra", "e8", "-p", "5", "--element", "e2+e3+e4"],
     0, "6adb8c439baa99568924ba8925de7a1951ddaff9d4cea5f04ad937b25b7bbf22"),
    # the largest generic decomposition at p = 3: 190 chains, one 248 x 248 basis
    (["decompose", "--algebra", "e8", "--element", "e1"],
     0, "076ab73639dfca840fbc52ad57505af37082d360e528fbf4555ecf40f3faf5e6"),
    # the regular element at p = 61: one D-stable block of 248 coordinates, eliminated by its 59 levels
    (["decompose", "--algebra", "e8", "-p", "61", "--element", "e1+e2+e3+e4+e5+e6+e7+e8"],
     0, "831630211407de57aa43e9264137c3e45bb2e20f5aec818397133c6917ce7199"),
    # gl_n built by the one rule on elementary matrices
    (["decompose", "--algebra", "gl5", "-p", "7", "--element", "e1+e2+e3+e4"],
     0, "9dee29173e54216736f73c4a254322c9e75d0e1bfee6a35db19b2724c608bb8d"),
    (["semisimplify", "--algebra", "gl3", "-p", "3", "--element", "e2"],
     0, "c949f5e4452aa2e1b9a6b5d12231879b0f47a80a0148859a2964aa44e2ef931d"),
    (["semisimplify", "--algebra", "f4", "--subset", "4"],
     0, "23f07046ea9ac475772fcaf58de397955b485580dd5acc2c7881b48c7d54ea27"),
    # no chain survives: superdimension (0|0)
    (["semisimplify", "--algebra", "gl3", "-p", "3", "--element", "e1+e2"],
     0, "8cc89f5d23878edc40325eb64046a32b9db90486e58a3840e619f8e36c95f66b"),
    # sl_n read back as a subalgebra of gl_n: (2|2)
    (["semisimplify", "--algebra", "sl6", "-p", "5", "--element", "e1+e2+e4"],
     0, "08b70f8347cfeecae0ecdf346c9a3a77ebd4b0c9b66a512e7c7df4cc9d28f690"),
    # p = 5: the splitting vector sums four layers
    (["semisimplify", "--algebra", "g2", "-p", "5", "--element", "e1"],
     0, "0eaf0541d09eb7f56c6eea536baf0558b239d286cf89be73f4897c7b2e002dd0"),
    # the same algebra from a spec file, whose own p applies
    (["semisimplify", "--algebra", "g2.json", "--element", "e1"],
     0, "2205762820c8cbbccc0faa16a981921e02100d05be39319afabfc79d1d544697"),
    # p = 7, an odd part: (3|2), of degree 6 < p, so the head pick stops at the degree
    (["semisimplify", "--algebra", "f4", "-p", "7", "--element", "e1+e2+e4"],
     0, "8174019a212cda539cacc7e8a613fe3c28b2c2f57d386a929eef08d965a53893"),
    # maint route, target g(2,6) matched directly
    (["certify", "--algebra", "e6", "--subset", "2"],
     0, "5ff41ff12d1a852eb1a22f35d5c77b56456aededf9200bd9eee5e20bee625ea7"),
    # maint route, target found only on another member of the swap orbit
    (["certify", "--algebra", "e6", "--subset", "1"],
     0, "bfb6af19b2af0c914b3b17a48533f5f33a8e26c287e24558145ea92917bf7c34"),
    (["certify", "--algebra", "e6", "--subset", "2", "--target", "g(3,3)"],
     2, "5f39406d25d374f8c045650d9a27c95bbaf5a32cc0dd0dcb0e850c58d7958d40"),
    # star route: generator subquotient
    (["certify", "--algebra", "f4", "--subset", "1", "--target", "sl(3|1)"],
     0, "05dfbe2d3960822e41c762f8b5e30561727fedbcf80b36f1b8132163895b2e89"),
    # refuted: the printed witness, of its failing generation report, stays off the payload
    (["certify", "--algebra", "f4", "--subset", "1", "--target", "g(1,6)"],
     2, "17060a75b32c334d01a96b3d14bbdd02cd57f36f1ffb0181507463d8922a7c21"),
    (["certify", "--algebra", "e8", "--element", "e1+e2+e6+e8", "--plan", "g36"],
     0, "91dc696e786b3083c32508e6868a9a9b9fe20c2308d3b616e1c9f3160d6bed7f"),
    (["certify", "--algebra", "e8", "-p", "5", "--element", "e2+e3+e4", "--target", "el(5;5)"],
     0, "0ee61e0faacb4cc1c0880500f2e3991984b1a2c04250621e54ac7d2c1326411c"),
    (["swaps", "--algebra", "f4", "--subset", "4"],
     0, "b30ca28698dd353c1cf401dbe793588a9f63cab3b674a5b84a2db78aa5c39879"),
    # structured decomposition with two subset nodes
    (["decompose", "--algebra", "e6", "--subset", "1,2"],
     0, "79815df2a43571c0ffda404ec62440a3855b5ae81db1877a53777aa0314d4470"),
    # p = 7, nilpotent of degree 4
    (["decompose", "--algebra", "g2", "-p", "7", "--element", "e1"],
     0, "3c65174085b9f5c40bab0c8c753a066038005c4301400f3e0e44a738b5923834"),
    # chain tails that share a column, so the basis check eliminates their blocks
    (["decompose", "--algebra", "e6", "-p", "3", "--element", "e1+e2+e5"],
     0, "c920ecd68de28b40d83929dccac07fa852715e7b96d15e159de4476a13891fa8"),
    # the expression grammar end to end: a scaled term, a difference, a bracket, parentheses
    (["decompose", "--algebra", "e6", "-p", "3", "--element", "2*e1-[e2,e4]+(e6)"],
     0, "68a1a3d5b77b0c379b97baf68f7fea530d0e78f3cb959cfaf4bb43a89dc6acb6"),
    (["semisimplify", "--algebra", "b3", "-p", "5", "--element", "2*e1+[e2,e3]"],
     0, "e1ed9a8e700034fd034c58d1fd7639b3e09ecf986e5fc01982fc15d9fcce2949"),
    (["swaps", "--algebra", "e7", "--subset", "2,7"],
     0, "5a9b06c364943103757a85117f6b4dd119096b9ed63db8fbbadd4f72b3c6c5f3"),
    # all 16 rows of the results table, each certificate byte for byte
    (["table"],
     0, "9486fc34cd69dc8ad0e5a14d94f9def5f434155d7312580a904a56a92263d1e6"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_json_payload_pinned(argv, code, digest, tmp_path, monkeypatch, capsys):
    for name, text in SPEC_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "out.json"
    assert main(argv + ["--json", str(path)]) == code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_spec_file_payload_is_the_catalog_payload_but_for_its_name(tmp_path, monkeypatch, capsys):
    """g2.json holds g2's Cartan matrix and p = 5: its payload is the catalog
    g2 -p 5 payload, but for the algebra field, which names the file."""
    (tmp_path / "g2.json").write_text(SPEC_FILES["g2.json"])
    monkeypatch.chdir(tmp_path)
    payloads = []
    for i, source in enumerate([["g2.json"], ["g2", "-p", "5"]]):
        assert main(["semisimplify", "--algebra", *source, "--element", "e1", "--json", f"{i}.json"]) == 0
        payloads.append(json.loads((tmp_path / f"{i}.json").read_text()))
    assert [payload.pop("algebra") for payload in payloads] == ["g2.json", "g2"]
    assert payloads[0] == payloads[1]
