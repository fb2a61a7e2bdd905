"""End-to-end tests of the command-line interface."""

import json
import random
import time

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


@pytest.mark.parametrize("height, shown", [(0.1, "0.1"), (True, "true")])
def test_mixedsub_lifting_refuses_floats_and_booleans(capsys, tmp_path, height, shown):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(["0", 0, "1", "0", height, "0"]))
    argv = ["mixedsub", "--d", "2", "--m", "2", "--lifting", str(path)]
    err = _one_line_error(capsys, argv)
    assert "lifting height 5 must be an integer or a rational string, got %s" % shown in err


def test_replace_normalises_the_family_once(capsys, tmp_path, monkeypatch):
    calls = []
    separate = cli.jets._separate

    def counted(family):
        calls.append(1)
        return separate(family)

    monkeypatch.setattr(cli.jets, "_separate", counted)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY))
    code, doc = run_json(capsys, "replace", str(path), "--n", "5")
    assert code == 0 and doc["depth"] == 1
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["walls", "--weights", "t", "--d", "2", "--n", "6", "--eps"], "--eps: expected one argument"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["walls", "--d", "2", "--n", "6"], "arguments are required: --weights"),
        (["mixedsub", "--d", "3", "--m", "2", "--random", "1"], "--d: invalid choice: 3"),
        (["walls", "--weights", "t", "--d", "2", "--n", "6", "a\nb"], "unrecognized arguments: a b"),
    ],
)
def test_argument_errors_return_2_with_one_line(capsys, argv, message):
    assert message in _one_line_error(capsys, argv)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replace", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wallcross replace")


def test_malformed_json_never_raises(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["stability", str(path), "--weights", "nt"]) == 2
    path.write_text(json.dumps({"d": 2, "n": 6, "hyperplanes": [["1", "0"]]}))
    assert main(["stability", str(path), "--weights", "nt"]) == 2


def _one_line_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"matrix": [], "divisor": []}, "needs at least one boundary curve"),
        ([[[0, 1], [1, 0]], ["1", "1"]], "surface document must be a JSON object"),
        ({"matrix": [["0", "1"], ["1", "0"]]}, "has no 'divisor' field"),
        ({"matrix": "0 1 1 0", "divisor": ["1", "1"]}, "field 'matrix' must be a JSON list"),
        ({"matrix": [["1"]], "divisor": "1"}, "field 'divisor' must be a JSON list"),
        ({"matrix": [["0", "1"], 1], "divisor": ["1", "1"]}, "matrix row 2 must be a JSON list"),
    ],
)
def test_malformed_surface_documents(capsys, tmp_path, doc, message):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    assert message in _one_line_error(capsys, ["ample", "--model", "pairing", str(path)])


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
        (["stability", "e_config", "--weights", "t", "--d", "2", "--n", "1000000"], "capped at 6,000,000"),
        (["stability", "e_config", "--weights", "nt", "--d", "13", "--n", "16"], "capped at 6,000,000"),
        (["mixedsub", "--d", "1", "--m", "300000", "--random", "1"], "m <= 6"),
        (["stability", "e_config", "--weights", "w.json", "--d", "13", "--n", "16"], "capped at 6,000,000"),
    ],
)
def test_guards_run_before_the_input_is_built(capsys, monkeypatch, argv, message):
    for name in ("t_weights", "nt_weights"):
        monkeypatch.setattr(cli.weights, name, _refuse_to_build)
    monkeypatch.setattr(cli.arr_mod, "e_configuration", _refuse_to_build)
    monkeypatch.setattr(cli, "Fraction", _refuse_to_build)
    assert message in _one_line_error(capsys, argv)


@pytest.mark.parametrize("weights", ["t", "nt", "file"])
def test_flat_guard_refuses_an_arrangement_document_at_once(capsys, tmp_path, monkeypatch, weights):
    # 16 linearly general hyperplanes in P^13: about 65,000 flats, refused
    # on its estimate before any flat is built.
    d, n = 13, 16
    rows = [[str((i + 1) ** k) for k in range(d + 1)] for i in range(n)]
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"d": d, "n": n, "hyperplanes": rows}))
    if weights == "file":
        weights = str(tmp_path / "w.json")
        entries = ["1"] * (d + 1) + ["e"] * (n - d - 1)
        (tmp_path / "w.json").write_text(json.dumps({"d": d, "n": n, "entries": entries}))
    monkeypatch.setattr(cli.arr_mod, "_lattice", _refuse_to_build)
    start = time.process_time()
    err = _one_line_error(capsys, ["stability", str(path), "--weights", weights])
    assert time.process_time() - start < 1
    assert "flat enumeration for d = 13, n = 16 is estimated at 14,635,072 integer" in err


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
        ({"truncation": 64, "members": [["t", "1", "2*t"]] * 6}, "capped at 65,536"),
        ({"truncation": 32, "members": [["t", "1", "2*t"]] * 22}, "22 members of 3 jets"),
    ],
)
def test_malformed_family_documents(capsys, tmp_path, change, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**FAMILY, **change}))
    assert message in _one_line_error(capsys, ["replace", str(path)])


def test_replace_refuses_d_1_before_separating(capsys, tmp_path, monkeypatch):
    calls = []
    separate = cli.jets._separate

    def counted(family):
        calls.append(1)
        return separate(family)

    monkeypatch.setattr(cli.jets, "_separate", counted)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"d": 1, "truncation": 3, "members": [["t", "1"], ["2*t", "1"]]}))
    assert "the broken-pair model needs d >= 2" in _one_line_error(capsys, ["replace", str(path)])
    assert calls == []


#: Entry texts that once left main as a traceback: deep nesting and a long
#: sign run (RecursionError), a digit int() refuses (ValueError) and powers
#: whose coefficients pass the digit limit of int-to-str conversion.
READER_SHAPES = [
    ("(" * 400 + "1/2" + ")" * 400, "parentheses nested deeper than 100"),
    ("1/2*" + "-" * 3001 + "1", "is outside (0, 1]"),
    ("1/2²", "unexpected character '²'"),
    ("1/(" + "9" * 1000 + ")^5", "could exceed 1000 digits"),
    ("1/2^64^64^4", "could exceed 1000 digits"),
]


@pytest.mark.parametrize(
    "text, message", READER_SHAPES, ids=["nesting", "sign run", "digit", "power", "power chain"]
)
def test_reader_shapes_exit_2_with_one_line(capsys, tmp_path, text, message):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"d": 1, "n": 4, "entries": [text, "1/3", "1/3", "1/3"]}))
    assert message in _one_line_error(capsys, ["walls", "--weights", str(path)])


def test_reader_takes_long_sign_runs_and_nesting_within_the_bound(capsys, tmp_path):
    entry = "(" * 100 + "1/2*" + "-" * 3000 + "1" + ")" * 100
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"d": 1, "n": 4, "entries": [entry, "1/3", "1/3", "1/3"]}))
    code, doc = run_json(capsys, "walls", "--weights", str(path))
    assert code == 0 and doc["weights"]["entries"][0] == "1/2"


def _pairing_document(rng, m, divisor):
    matrix = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            matrix[i][j] = matrix[j][i] = str(rng.randint(-1, 3))
    return {"matrix": matrix, "divisor": divisor}


def test_pairing_surface_past_the_work_guard_is_refused_at_once(capsys, tmp_path):
    # 100 curves with divisor entries 1/(1 + k*e), k in 1..40: a document of
    # this shape ran for minutes before the guard.
    doc = _pairing_document(random.Random(7), 100, ["1/(1 + %d*e)" % (1 + k % 40) for k in range(100)])
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    start = time.process_time()
    err = _one_line_error(capsys, ["ample", "--model", "pairing", str(path)])
    assert time.process_time() - start < 1
    assert "pairing surface of 100 curves (D = 41, W = 2) needs about" in err
    assert "capped at 20000000" in err


def test_ample_pairing_computes_each_degree_once(capsys, tmp_path, monkeypatch):
    calls = []
    degree = cli.blowup.PairingSurface.curve_degree

    def counted(surface, j, coeffs=None):
        calls.append(j)
        return degree(surface, j, coeffs)

    monkeypatch.setattr(cli.blowup.PairingSurface, "curve_degree", counted)
    doc = _pairing_document(random.Random(8), 3, ["1/2", "1 - e", "e"])
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "ample", "--model", "pairing", str(path))
    assert code == 0 and calls == [0, 1, 2]
    matrix = [[cli.parse_rat(x) for x in row] for row in doc["matrix"]]
    surface = cli.blowup.PairingSurface(matrix, [cli.parse_eps_rat(x) for x in doc["divisor"]])
    assert report["ample"] == cli.blowup.ample_from_pairing(surface)


#: Number texts outside the one number grammar.  Fraction() read all but the
#: fullwidth digit (and 1e4000000 took seconds); int() read 1_0 and the
#: non-ASCII digits.
NUMBER_SHAPES = ["1e4000000", "1_0", "0.5", "١/٣", "１"]


@pytest.mark.parametrize("shape", NUMBER_SHAPES)
@pytest.mark.parametrize(
    "argv",
    [
        ["walls", "--weights", "t", "--d", "2", "--n", "6", "--eps={}"],
        ["ample", "--model", "blowup", "--d", "2", "--n", "6", "--eps={}"],
        ["walls", "--weights", "t", "--d={}", "--n", "6"],
        ["ample", "--model", "blowup", "--d", "2", "--n={}"],
        ["mixedsub", "--d", "2", "--m={}", "--random", "1"],
        ["mixedsub", "--d", "2", "--m", "2", "--random={}"],
    ],
    ids=["walls eps", "ample eps", "d", "n", "m", "random"],
)
def test_number_shapes_in_flags_exit_2(capsys, argv, shape):
    start = time.process_time()
    _one_line_error(capsys, [a.format(shape) for a in argv])
    assert time.process_time() - start < 1


@pytest.mark.parametrize("shape", NUMBER_SHAPES)
@pytest.mark.parametrize("where", ["weights d", "weights n", "arrangement row", "family truncation",
                                   "pairing matrix", "lifting"])
def test_number_shapes_in_documents_exit_2(capsys, tmp_path, where, shape):
    path = tmp_path / "doc.json"
    if where.startswith("weights"):
        doc = {**WEIGHTS, where.split()[1]: shape}
        argv = ["walls", "--weights", str(path)]
    elif where == "arrangement row":
        doc = {"d": 2, "n": 4, "hyperplanes": [["1", "0", "0"], ["0", "1", "0"],
                                               ["0", "0", shape], ["1", "1", "1"]]}
        argv = ["stability", str(path), "--weights", "nt"]
    elif where == "family truncation":
        doc = {**FAMILY, "truncation": shape}
        argv = ["replace", str(path)]
    elif where == "pairing matrix":
        doc = {"matrix": [["0", shape], [shape, "0"]], "divisor": ["1", "1"]}
        argv = ["ample", "--model", "pairing", str(path)]
    else:
        doc = ["0", "0", "1", "0", shape, "0"]
        argv = ["mixedsub", "--d", "2", "--m", "2", "--lifting", str(path)]
    path.write_text(json.dumps(doc))
    start = time.process_time()
    _one_line_error(capsys, argv)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("d, n", [("٢", "6"), ("2", "1_0"), (" 2", "6"), ("+2", "6"), ("2.0", "6")])
def test_integer_fields_take_ascii_digits_only(capsys, tmp_path, d, n):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**WEIGHTS, "d": d, "n": n}))
    key = "'d'" if d != "2" else "'n'"
    assert "field %s must be an integer" % key in _one_line_error(capsys, ["walls", "--weights", str(path)])


def test_integer_fields_as_digit_strings(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**WEIGHTS, "d": "2", "n": "6"}))
    code, doc = run_json(capsys, "walls", "--weights", str(path))
    assert code == 0 and doc["count"] == 4


def test_integer_flag_errors_name_the_flag(capsys):
    err = _one_line_error(capsys, ["walls", "--weights", "t", "--d", "٢", "--n", "6"])
    assert "argument --d: not an integer: '٢'" in err
    err = _one_line_error(capsys, ["walls", "--weights", "t", "--d", "2", "--n", "1" * 1001])
    assert "argument --n: integer literal of 1001 digits exceeds the limit of 1000" in err


def test_eps_in_exponent_notation_is_refused_at_once(capsys):
    # Read by Fraction, this --eps ran 34 s of CPU before printing was refused.
    argv = ["stability", "e_config", "--d", "2", "--n", "6", "--weights", "nt", "--eps=1e-300000"]
    start = time.process_time()
    assert "trailing input" in _one_line_error(capsys, argv)
    assert time.process_time() - start < 1


def test_segment_with_long_coefficients_is_refused_at_once(capsys, tmp_path):
    # 8 entries a/b of about 990 digits each against t: this segment ran
    # about 20 s of CPU before its coefficient-size guard.
    rng = random.Random(5)
    entries = []
    for _ in range(8):
        den = rng.randrange(10**989, 10**990)
        entries.append("%d/%d" % (rng.randrange(den // 2 + 1, den), den))
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"d": 1, "n": 8, "entries": entries}))
    argv = ["segment", "--from", str(path), "--to", "t", "--d", "1", "--n", "8"]
    start = time.process_time()
    err = _one_line_error(capsys, argv)
    assert time.process_time() - start < 1
    assert "segment over 256 multiplicity vectors with sums of " in err
    assert "word products; capped at 10,000,000" in err


def _transcript(capsys, monkeypatch, calls, fresh):
    """(exit code, stdout, stderr) of each call of main, in one process, on
    one reused parser or on a freshly built parser per call."""
    monkeypatch.setattr(cli, "_PARSER", None)
    transcript = []
    for argv in calls:
        if fresh:
            monkeypatch.setattr(cli, "_PARSER", None)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = "SystemExit(%r)" % exc.code
        transcript.append((code,) + tuple(capsys.readouterr()))
    return transcript


def test_the_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path):
    files = {
        "w": WEIGHTS,
        "arr": {"d": 2, "n": 6, "hyperplanes": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                                                ["1", "1", "1"], ["1", "2", "3"], ["3", "1", "2"]]},
        "surface": {"matrix": [["0", "1"], ["1", "0"]], "divisor": ["1", "e"]},
        "family": FAMILY,
        "lift": ["0", "0", "1", "0", "1", "0"],
        "broken": {"d": 2, "n": 6, "hyperplanes": [["1", "0"]]},
    }
    path = {}
    for name, doc in files.items():
        path[name] = str(tmp_path / (name + ".json"))
        (tmp_path / (name + ".json")).write_text(json.dumps(doc))
    help_exit = "SystemExit(0)"
    calls = [
        (0, ["walls", "--weights", path["w"]]),
        (0, ["walls", "--weights", "t", "--d", "2", "--n", "6", "--eps", "1/100"]),
        (0, ["segment", "--from", "t", "--to", "nt", "--d", "2", "--n", "6"]),
        (0, ["chamber", "--first", path["w"], "--second", "nt", "--d", "2", "--n", "6"]),
        # stability <file> sets d and n on its namespace; the next call has none.
        (0, ["stability", path["arr"], "--weights", "nt"]),
        (2, ["stability", "e_config", "--weights", "nt"]),
        (0, ["stability", "e_config", "--weights", "nt", "--d", "2", "--n", "6"]),
        (0, ["ample", "--model", "blowup", "--d", "2", "--n", "6"]),
        (0, ["ample", "--model", "pairing", path["surface"]]),
        (2, ["ample", "--model", "pairing"]),
        (0, ["replace", path["family"], "--n", "5"]),
        (0, ["mixedsub", "--d", "2", "--m", "2", "--lifting", path["lift"]]),
        (0, ["mixedsub", "--d", "2", "--m", "3", "--random", "9"]),
        (2, ["mixedsub", "--d", "2", "--m", "2", "--lifting", path["lift"], "--random", "9"]),
        (2, ["mixedsub", "--d", "1", "--m", "2"]),
        (0, ["verify-paper"]),
        (help_exit, ["replace", "--help"]),
        (2, ["frobnicate"]),
        (2, ["walls", "--d", "2", "--n", "6"]),
        (2, ["walls", "--weights", "t", "--d", "٢", "--n", "6"]),
        (2, ["walls", "--weights", "t", "--d", "2", "--n", "6", "--eps"]),
        (2, ["stability", path["broken"], "--weights", "nt"]),
        (help_exit, ["--help"]),
        (0, ["walls", "--weights", "t", "--d", "2", "--n", "6"]),
    ]
    argvs = [argv for _, argv in calls]
    reused = _transcript(capsys, monkeypatch, argvs, fresh=False)
    assert reused == _transcript(capsys, monkeypatch, argvs, fresh=True)
    assert [code for code, _, _ in reused] == [code for code, _ in calls]
    assert "--d and --n are required" in reused[5][2]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    calls = [
        ["ample", "--model", "blowup", "--d", "2", "--n", "6"],
        ["walls", "--weights", "t", "--d", "2", "--n", "6"],
        ["walls", "--weights", "t", "--d", "x"],
        ["mixedsub", "--d", "1", "--m", "2", "--random", "3"],
        ["frobnicate"],
    ]
    codes = [main(calls[i % len(calls)]) for i in range(50)]
    capsys.readouterr()
    assert codes == [0, 0, 2, 0, 2] * 10
    assert len(builds) == 1
