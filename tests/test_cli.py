"""End-to-end tests of the command-line interface."""

import json

import pytest

from wallcross import cli
from wallcross.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_walls_t(capsys):
    code, doc = run_json(capsys, "walls", "--weights", "t", "--d", "2", "--n", "6")
    assert code == 0
    assert doc["count"] == 4
    assert {"I": [1, 2, 3], "k": 3} in doc["walls"]


def test_segment_t_to_nt(capsys):
    code, doc = run_json(
        capsys, "segment", "--from", "t", "--to", "nt", "--d", "2", "--n", "6"
    )
    assert code == 0
    assert len(doc["crossings"]) == 1
    crossing = doc["crossings"][0]
    assert crossing["u0"] == "(1 - 3*e)/(1 - 2*e)"
    assert crossing["wall"] == {"I": [4, 5, 6], "k": 1}
    assert crossing["point"]["entries"][3] == "1/3"


def test_chamber_predicates(capsys):
    code, doc = run_json(
        capsys, "chamber", "--first", "t", "--second", "nt", "--d", "2", "--n", "6"
    )
    assert code == 0
    assert doc["same_chamber"] is False


def test_stability_e_config(capsys):
    code, doc = run_json(
        capsys, "stability", "e_config", "--weights", "nt", "--d", "2", "--n", "6"
    )
    assert code == 0
    assert doc["status"] == "not-lc"
    assert doc["witness"] == {"codim": 1, "support": [4, 5, 6]}


def test_stability_from_file(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "n": 6,
                "hyperplanes": [
                    ["1", "0", "0"],
                    ["0", "1", "0"],
                    ["0", "0", "1"],
                    ["1", "1", "1"],
                    ["1", "2", "3"],
                    ["3", "1", "2"],
                ],
            }
        )
    )
    code, doc = run_json(capsys, "stability", str(path), "--weights", "nt")
    assert code == 0
    assert doc["status"] == "stable"


def test_weights_from_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(
        json.dumps({"d": 2, "n": 6, "entries": ["1", "1", "1", "e", "e", "e"]})
    )
    code, doc = run_json(capsys, "walls", "--weights", str(path))
    assert code == 0
    assert doc["count"] == 4


def test_ample_blowup(capsys):
    code, doc = run_json(capsys, "ample", "--model", "blowup", "--d", "2", "--n", "6")
    assert code == 0
    assert doc["ample"] is True
    assert doc["pairings"] == {"e": "1 - 3*e", "f": "e", "s": "1 - 2*e"}


def test_ample_pairing_surface(capsys, tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"matrix": [["0", "1"], ["1", "0"]], "divisor": ["1", "1"]}))
    code, doc = run_json(capsys, "ample", "--model", "pairing", str(path))
    assert code == 0
    assert doc["ample"] is True and doc["pairings"] == ["1", "1"]


def test_replace(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "truncation": 6,
                "members": [
                    ["t", "1", "2*t"],
                    ["2*t", "1", "5*t"],
                    ["t - t^2", "1 + t", "2*t"],
                ],
            }
        )
    )
    code, doc = run_json(capsys, "replace", str(path))
    assert code == 0
    assert doc["depth"] == 1
    assert doc["valid"] is True
    assert doc["n"] == 6
    assert sorted(map(sorted, doc["classes"])) == [[0, 2], [1]]


def test_mixedsub_lifting_file(capsys, tmp_path):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(["0", "0", "1", "0", "1", "0"]))
    code, doc = run_json(capsys, "mixedsub", "--d", "2", "--m", "2", "--lifting", str(path))
    assert code == 0
    assert doc["fine"] is True
    assert len(doc["cells"]) == 3
    assert doc["defect_cells"] == [
        {"boundary": "x+y=m", "cell": 0, "vertex": ["1", "1"]}
    ]
    assert doc["fiber_vertex"] is not None


@pytest.mark.parametrize("text", ["5", "null", '{"a": 1}'])
def test_mixedsub_lifting_must_be_a_list(capsys, tmp_path, text):
    path = tmp_path / "lift.json"
    path.write_text(text)
    code = main(["mixedsub", "--d", "2", "--m", "2", "--lifting", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "JSON list" in err


def test_mixedsub_random_deterministic(capsys):
    code1, out1 = run(capsys, "mixedsub", "--d", "2", "--m", "3", "--random", "9")
    code2, out2 = run(capsys, "mixedsub", "--d", "2", "--m", "3", "--random", "9")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_paper(capsys):
    code, doc = run_json(capsys, "verify-paper")
    assert code == 0
    assert doc["failed"] == 0
    assert doc["total"] >= 40
    names = [row["name"] for row in doc["identities"]]
    assert any("unique crossing" in name for name in names)


def test_output_file_round_trip(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["segment", "--from", "t", "--to", "nt", "--d", "1", "--n", "5", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["crossings"][0]["u0"] == "(1 - 3*e)/(1 - 2*e)"


def test_concrete_eps(capsys):
    code, doc = run_json(
        capsys, "walls", "--weights", "t", "--d", "2", "--n", "6", "--eps", "1/100"
    )
    assert code == 0
    assert doc["weights"]["entries"][3] == "1/100"
    assert doc["count"] == 4


def test_bad_input_exit_codes(capsys):
    assert main(["walls", "--weights", "missing.json"]) == 2
    assert main(["walls", "--weights", "t", "--d", "2", "--n", "4"]) == 2
    assert main(["stability", "e_config", "--weights", "nt"]) == 2  # missing d, n
    assert main(["walls", "--weights", "t", "--d", "2", "--n", "6", "--eps", "7"]) == 2


def test_malformed_json_never_raises(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["stability", str(path), "--weights", "nt"]) == 2
    path.write_text(json.dumps({"d": 2, "n": 6, "hyperplanes": [["1", "0"]]}))
    assert main(["stability", str(path), "--weights", "nt"]) == 2


def _one_line_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


WEIGHTS = {"d": 2, "n": 6, "entries": ["1", "1", "1", "e", "e", "e"]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"d": "abc"}, "'d' must be an integer"),
        ({"entries": [1, "1", "1", "e", "e", "e"]}, "weight entry 1 must be a string"),
        ({"entries": None}, "'entries' must be a JSON list"),
        ({"entries": {}}, "'entries' must be a JSON list"),
        ({"entries": ["1" * 5000] + ["1"] * 5}, "weight entry 1: integer literal"),
        ({"entries": ["e^65"] + ["1"] * 5}, "weight entry 1: exponent 65"),
    ],
)
def test_malformed_weight_documents(capsys, tmp_path, change, message):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**WEIGHTS, **change}))
    assert message in _one_line_error(capsys, ["walls", "--weights", str(path)])


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"d": "abc", "n": 4, "hyperplanes": [["1", "0", "0"]] * 4}, "'d' must be an integer"),
        ({"d": 2, "n": 4, "hyperplanes": [1, 2, 3, 4]}, "hyperplane 1 must be a JSON list"),
        ({"d": 2, "n": 4, "hyperplanes": [[1, 0, 0]] * 4}, "expected a rational number"),
        ([], "must be a JSON object"),
    ],
)
def test_malformed_arrangement_documents(capsys, tmp_path, doc, message):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    argv = ["stability", str(path), "--weights", "nt"]
    assert message in _one_line_error(capsys, argv)


def test_json_integer_past_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"d": %s, "n": 6, "entries": []}' % ("1" * 5000))
    assert "invalid JSON" in _one_line_error(capsys, ["walls", "--weights", str(path)])


def test_numeric_pairing_matrix_entries(capsys, tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"matrix": [[0, 1], [1, 0]], "divisor": ["1", "1"]}))
    err = _one_line_error(capsys, ["ample", "--model", "pairing", str(path)])
    assert "expected a rational number" in err


def test_size_guard_message_at_large_n(capsys):
    # 2^n past 4300 digits cannot be printed in full; the guard still reports.
    argv = ["walls", "--weights", "t", "--d", "1", "--n", "15000"]
    assert "n = 15000 would scan 2^15000 subsets" in _one_line_error(capsys, argv)
    argv = ["segment", "--from", "t", "--to", "nt", "--d", "1", "--n", "20000"]
    assert "capped at n <= 20" in _one_line_error(capsys, argv)


def _refuse_to_build(*args, **kwargs):
    raise RuntimeError("built an input that its size guard refuses")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["walls", "--weights", "t", "--d", "1", "--n", "21"], "capped at n <= 20"),
        (["segment", "--from", "t", "--to", "nt", "--d", "1", "--n", "21"], "capped at n <= 20"),
        (["chamber", "--first", "nt", "--second", "t", "--d", "1", "--n", "21"], "capped at n <= 20"),
        (["stability", "e_config", "--weights", "t", "--d", "1", "--n", "200000"], "n <= 16"),
        (["stability", "e_config", "--weights", "nt", "--d", "1", "--n", "17"], "n <= 16"),
        (["mixedsub", "--d", "1", "--m", "300000", "--random", "1"], "m <= 6"),
    ],
)
def test_guards_run_before_the_input_is_built(capsys, monkeypatch, argv, message):
    for name in ("t_weights", "nt_weights"):
        monkeypatch.setattr(cli.weights, name, _refuse_to_build)
    monkeypatch.setattr(cli.arr_mod, "e_configuration", _refuse_to_build)
    monkeypatch.setattr(cli, "Fraction", _refuse_to_build)
    assert message in _one_line_error(capsys, argv)


FAMILY = {"d": 2, "truncation": 3, "members": [["t", "1", "2*t"], ["2*t", "1", "5*t"]]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"members": 5}, "'members' must be a JSON list"),
        ({"members": [5]}, "member 1 must be a JSON list"),
        ({"members": [["t", 1, "2*t"]]}, "expected an expression string"),
        ({"d": None}, "'d' must be an integer"),
        ({"truncation": "three"}, "'truncation' must be an integer"),
        ({"truncation": 800}, "truncation order 800 exceeds the cap of 64"),
    ],
)
def test_malformed_family_documents(capsys, tmp_path, change, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**FAMILY, **change}))
    assert message in _one_line_error(capsys, ["replace", str(path)])
