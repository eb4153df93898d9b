import json
import os

import pytest

import sphereprod.cli as cli
from sphereprod.cli import _dumps, main
from sphereprod.data import load_fixture_json

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    st = None


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


@pytest.mark.parametrize("command", ["homology", "realize", "verify"])
def test_negative_degrees_reach_the_domain_check(tmp_path, capsys, command):
    # a separate value that starts with a minus sign is still the triple
    coeffs = write_coeffs(tmp_path, {"c": {"12": "1"}})
    outputs = []
    for degrees in (["--degrees", "-2,3,4"], ["--degrees=-2,3,4"],
                    ["--deg", "-2,3,4"]):
        assert main([command] + degrees + ["--coeffs", coeffs]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["kind"] == "DegreeTooSmall"


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


@pytest.mark.parametrize("option", ["--input", "--coeffs", "--matrix"])
@pytest.mark.parametrize("bad", ["directory", "not_utf8"])
def test_unreadable_input_path_gives_error_document(tmp_path, capsys,
                                                    option, bad):
    if bad == "directory":
        path = tmp_path / "inputs"
        path.mkdir()
    else:
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = {
        "--input": ["classify", "--input", str(path)],
        "--coeffs": ["verify", "--degrees", "2,3,4", "--coeffs", str(path)],
        "--matrix": ["alt2-section", "--matrix", str(path)],
    }[option]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert set(out) == {"error", "kind"}
    assert str(path) in out["error"]


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


def _pinned_model_cases():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "model_pinned.json")
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("case", _pinned_model_cases(),
                         ids=lambda case: case["name"])
def test_model_commands_pinned(tmp_path, capsys, case):
    # full standard output, byte for byte, of homology (boundary, eta,
    # generators), realize --verify and verify --degrees/--coeffs at six
    # grid points: mixed odd and even degrees, c123 above the lcm of the
    # pairwise weights, and all-ones weights
    coeffs = write_coeffs(tmp_path, case["coeffs"])
    command = case["command"]
    argv = command[:1] + ["--degrees", case["degrees"],
                          "--coeffs", coeffs] + command[1:]
    assert main(argv) == 0
    assert capsys.readouterr().out == case["stdout"]


# -- the JSON writer ---------------------------------------------------------

def _reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def test_error_document_bytes(capsys):
    code = main(["classify", "--input", "bad3.json", "--height-bound", "-1"])
    assert code == 1
    assert capsys.readouterr().out == (
        '{\n'
        '  "error": "--height-bound must be non-negative",\n'
        '  "kind": "SphereProdError"\n'
        '}\n')


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[[[]]]]], (1, (2, [3])),
    [float("nan"), float("inf"), -0.0, 1e300], "\ud800\x7f\u2028",
    10 ** 100, -(10 ** 100),
], ids=repr)
def test_writer_matches_json_examples(obj):
    assert _dumps(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [[object()], {"k": {1, 2}}],
                         ids=["object", "set"])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _reference(obj)
    with pytest.raises(TypeError):
        _dumps(obj)


def test_writer_deep_nesting():
    obj = "leaf"
    for depth in range(200):
        obj = {"k": obj} if depth % 2 else [obj, depth]
    assert _dumps(obj) == _reference(obj)


if st is not None:
    _texts = st.one_of(
        st.text(),
        st.text(alphabet=st.sampled_from(
            '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600a ')))
    _scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(-(2 ** 300), 2 ** 300), _texts)
    _trees = st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children), st.lists(children).map(tuple),
            st.dictionaries(_texts, children)),
        max_leaves=60)

    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_writer_matches_json(obj):
        assert _dumps(obj) == _reference(obj)
else:
    def test_writer_property_needs_hypothesis():
        pytest.importorskip("hypothesis")


# -- one parser per process ----------------------------------------------------

def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main call; a usage error's
    SystemExit code stands in for the return value."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys,
                                                 monkeypatch):
    coeffs = write_coeffs(tmp_path, {"c": {"12": "2", "13": "3", "23": "4"}})
    homology = ["homology", "--degrees", "2,3,4", "--coeffs", coeffs]
    sequence = [
        homology + ["--which", "eta"],
        homology,
        ["classify", "--input", "bad3.json", "--height-bound", "3"],
        ["classify", "--input", "bad3.json"],
        ["verify", "--input", "trivial.json"],
        ["verify", "--degrees", "2,3,4", "--coeffs", coeffs],
        ["homology", "--degrees", "2,3,4"],
        homology + ["--which", "generators"],
        ["classify", "--input", "bad3.json", "--height-bound", "-1"],
        ["classify", "--input", "bad3.json"],
    ]
    alone = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(_call(capsys, argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 0, 2, 0, 1, 0]
    # the defaults an earlier call overrode are back in the later call
    assert alone[0][1] != alone[1][1] and alone[2][1] != alone[3][1]

    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    assert [_call(capsys, argv) for argv in sequence] == alone
    assert len(built) == 1
