import json

import pytest

from sphereprod.cli import main
from sphereprod.data import load_fixture_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_coeffs(tmp_path, obj):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_homology_boundary(tmp_path, capsys):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "2"}})
    code, out = run_cli(capsys, "homology", "--degrees", "2,2,2",
                        "--coeffs", coeffs)
    assert code == 0
    assert out["degrees"]["0"]["free_rank"] == 1
    assert out["degrees"]["3"]["torsion"] == ["2"]
    assert out["degrees"]["5"]["free_rank"] == 1


def test_homology_eta_and_generators(tmp_path, capsys):
    coeffs = write_coeffs(tmp_path,
                          {"c": {"12": "2", "13": "1", "23": "3"}})
    code, out = run_cli(capsys, "homology", "--degrees", "2,3,4",
                        "--coeffs", coeffs, "--which", "eta")
    assert code == 0
    assert out["top_multiplier"] == "1"   # 2*3*1 / lcm(2,1,3) = 6/6

    code, out = run_cli(capsys, "homology", "--degrees", "2,3,4",
                        "--coeffs", coeffs, "--which", "generators")
    assert code == 0
    assert out["top_degree"] == 8
    assert len(out["weighted_cycle"]["entries"]) == \
        len(out["weighted_cycle"]["labels"])


def test_realize_verify(tmp_path, capsys):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "1", "13": "1",
                                           "23": "1", "123": "5"}})
    code, out = run_cli(capsys, "realize", "--degrees", "3,3,3",
                        "--coeffs", coeffs, "--verify")
    assert code == 0
    assert out["verified"] is True
    assert out["provenance"]["top_constant"] == "5"
    assert out["ring"]["products"]["a12*a3"].count("5") == 1


def test_realize_rejects_small_degrees(tmp_path, capsys):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "1"}})
    code, out = run_cli(capsys, "realize", "--degrees", "1,2,3",
                        "--coeffs", coeffs)
    assert code == 1
    assert out["kind"] == "DegreeTooSmall"


def test_classify_shipped_fixtures(capsys):
    code, out = run_cli(capsys, "classify", "--input", "bad3.json")
    assert code == 0
    assert out["outcome"] == "not_weighted_certified"
    assert out["report"]["failures"]

    code, out = run_cli(capsys, "classify", "--input", "trivial.json")
    assert code == 0
    assert out["outcome"] == "weighted"
    assert out["coefficients"]["c"]["123"] == "1"


def test_verify_order_command(capsys):
    code, out = run_cli(capsys, "verify", "--input", "trivial.json")
    assert code == 0
    assert out["order"] is True


def test_verify_ring_command(tmp_path, capsys):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "2", "123": "4"}})
    code, out = run_cli(capsys, "verify", "--degrees", "3,3,3",
                        "--coeffs", coeffs)
    assert code == 0
    assert out["violations"] == []


def test_alt2_section_command(tmp_path, capsys):
    matrix = {"rows": 3, "cols": 3,
              "entries": [["1", "0", "4"], ["0", "1", "0"],
                          ["0", "0", "1"]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out = run_cli(capsys, "alt2-section", "--matrix", str(path))
    assert code == 0
    assert out["alt2_of_section"] == out["input"]


def test_selftest_command(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    assert out["ok"] is True
    assert out["failed"] == 0


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case, kind", [
    ("bad_json", "SphereProdError"),
    ("bad_degrees", "SphereProdError"),
    ("missing_generators", "InvalidOrderInput"),
    ("negative_bound", "SphereProdError"),
])
def test_malformed_input_gives_error_document(tmp_path, capsys, case, kind):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "2"}})
    order = _write(tmp_path, "order.json", json.dumps({"degrees": [2, 2, 3]}))
    argv = {
        "bad_json": ["realize", "--degrees", "2,2,2", "--coeffs",
                     _write(tmp_path, "bad.json", "{\"c\": {")],
        "bad_degrees": ["homology", "--degrees", "2,x,3",
                        "--coeffs", coeffs],
        "missing_generators": ["classify", "--input", order],
        "negative_bound": ["classify", "--input", "bad3.json",
                           "--height-bound", "-1"],
    }[case]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert set(out) == {"error", "kind"}
    assert out["kind"] == kind


@pytest.mark.parametrize("matrix", [
    {"rows": 3, "entries": [["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]},
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    {"rows": 3, "cols": 3, "entries": [["a", "0", "0"], ["0", "1", "0"],
                                       ["0", "0", "1"]]},
    {"rows": 3, "cols": 3, "entries": [["1", "0", "0"], ["0", "1"],
                                       ["0", "0", "1"]]},
    {"rows": 3, "cols": 3, "entries": [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]},
], ids=["missing_cols", "top_level_list", "non_integer_entry",
        "ragged_rows", "float_entry"])
def test_alt2_section_malformed_matrix(tmp_path, capsys, matrix):
    path = _write(tmp_path, "m.json", json.dumps(matrix))
    code, out = run_cli(capsys, "alt2-section", "--matrix", path)
    assert code == 1
    assert set(out) == {"error", "kind"}
    assert out["kind"] == "InvalidMatrixInput"


@pytest.mark.parametrize("entry", [0.1, 1.0, True],
                         ids=["float", "integral_float", "bool"])
def test_classify_rejects_non_exact_vector_entry(tmp_path, capsys, entry):
    # the x1 entry of the trivial order's degree-3 generator, normally "1"
    order = load_fixture_json("trivial.json")
    order["generators"][1]["vector"][1] = entry
    path = _write(tmp_path, "order.json", json.dumps(order))
    code, out = run_cli(capsys, "classify", "--input", path)
    assert code == 1
    assert set(out) == {"error", "kind"}
    assert out["kind"] == "InvalidOrderInput"


@pytest.mark.parametrize("generator, value", [
    (None, [3.9, 3, 3]),
    (1, 3.5),
    (None, [True, 3, 3]),
    (0, False),
], ids=["float_degree", "float_generator_degree", "bool_degree",
        "bool_generator_degree"])
def test_classify_rejects_non_integer_degree(tmp_path, capsys, generator,
                                             value):
    # int() would read 3.9 as 3, true as 1 and false as the unit's degree 0
    order = load_fixture_json("trivial.json")
    if generator is None:
        order["degrees"] = value
    else:
        order["generators"][generator]["degree"] = value
    path = _write(tmp_path, "order.json", json.dumps(order))
    code, out = run_cli(capsys, "classify", "--input", path)
    assert code == 1
    assert set(out) == {"error", "kind"}
    assert out["kind"] == "InvalidOrderInput"


@pytest.mark.parametrize("coeffs", [
    {"c": {"12": 2.7}},
    {"c": {"12": 2.0}},
    {"c": {"12": True}},
    {"c": {"12": [2]}},
    {"c": {"123": {"value": "2"}}},
    {"c": ["2", "1", "1"]},
    ["2", "1", "1"],
], ids=["float", "integral_float", "bool", "list", "object",
        "list_of_weights", "top_level_list"])
def test_realize_rejects_non_integer_weights(tmp_path, capsys, coeffs):
    path = write_coeffs(tmp_path, coeffs)
    code, out = run_cli(capsys, "realize", "--degrees", "2,3,4",
                        "--coeffs", path)
    assert code == 1
    assert set(out) == {"error", "kind"}
    assert out["kind"] == "InvalidCoefficientSequence"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--degrees", "2,2,2"])
    assert exc.value.code == 2


def test_deterministic_output(tmp_path, capsys):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "2", "23": "3"}})
    argv = ["homology", "--degrees", "2,3,2", "--coeffs", coeffs]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
