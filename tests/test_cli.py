import json

import pytest

from urysohn.cli import main

EQUILATERAL = {
    "labels": ["a", "b", "c"],
    "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
}

BROKEN = {
    "labels": ["a", "b", "c"],
    "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "space.json", EQUILATERAL)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_violations_exit_1(tmp_path, capsys):
    path = write(tmp_path, "space.json", BROKEN)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert json.loads(out)["violations"]


def test_parse_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "parse error" in err


def test_exponent_token_exit_2(tmp_path, capsys):
    doc = {"labels": ["a", "b"], "dist": [["0", "1e1000000000"], ["1", "0"]]}
    path = write(tmp_path, "space.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and not out
    assert "exponent" in err


def test_embed_round_trip(tmp_path, capsys):
    path = write(tmp_path, "space.json", EQUILATERAL)
    code, out, _ = run(capsys, "embed", path)
    assert code == 0
    images = json.loads(out)
    assert set(images) == {"a", "b", "c"}


def test_embed_invalid_space_exit_3(tmp_path, capsys):
    path = write(tmp_path, "space.json", BROKEN)
    code, _, err = run(capsys, "embed", path)
    assert code == 3
    assert "precondition" in err


def test_extend(tmp_path, capsys):
    problem = {
        "space": {
            "labels": ["y1", "theta"],
            "dist": [["0", "1"], ["1", "0"]],
        },
        "theta": "theta",
        "phi": {"y1": {}},
    }
    path = write(tmp_path, "problem.json", problem)
    code, out, _ = run(capsys, "extend", path)
    assert code == 0
    assert json.loads(out) == {"1": 1}


def test_hausdorff_example(tmp_path, capsys):
    left = write(tmp_path, "e.json", [{}])
    right = write(tmp_path, "f.json", [{}, {"1/2": 1}])
    code, out, _ = run(capsys, "hausdorff", left, right)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"ballmin": "1/2", "supinf": "1/2"}


def test_heirs(capsys):
    code, out, _ = run(
        capsys, "heirs", "--range", '["0","1"]', "--depth", "1", "--branching", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 3


def test_certify_lp_p1(capsys):
    code, out, _ = run(capsys, "certify-lp", "--p", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == ["1", "3/4", "3/4", "1"]
    assert doc["defect"] == "1/2"


def test_certify_lp_inf(capsys):
    code, out, _ = run(capsys, "certify-lp", "--p", "inf")
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == ["1/2", "1/2", "1/2", "1"]


def test_certify_lp_bad_exponent(capsys):
    code, _, err = run(capsys, "certify-lp", "--p", "3/2")
    assert code == 3


def test_petal_distance(tmp_path, capsys):
    path = write(tmp_path, "point.json", {"1": 2, "1/3": 1})
    code, out, _ = run(capsys, "petal-distance", path, "--range", '["0","1"]')
    assert code == 0
    doc = json.loads(out)
    assert doc == {"distance": "1/3", "nearest": {"1": 2}}


def test_check_small_scale(capsys):
    code, out, err = run(capsys, "check", "--scale", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["criteria"]) == 10
    assert err.count("[PASS]") == 10


def test_determinism(tmp_path, capsys):
    path = write(tmp_path, "space.json", EQUILATERAL)
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "embed", path)
        outputs.add(out)
    assert len(outputs) == 1
