"""Generated documents for `stability`, `replace`, `mixedsub --lifting`,
`ample --model pairing`, `walls`, `segment` and `chamber`, and generated
flags for `ample --model blowup`: every input ends in a report (exit 0) or
in one line on stderr (exit 2), never in a traceback.  Rationals, integer
fields and integer flags now and then take a number shape outside the one
number grammar (NUMBER_SHAPES).  On the arrangement documents the guard
accepts, the flat walk makes no more integer products than the guard's
estimate.

The run is derandomized and bounded, so it is the same on every machine.
"""

import json
import random

import pytest

from wallcross.arrangement import check_size, flats
from wallcross.cli import arrangement_from_json, main
from wallcross.errors import WallcrossError

from reference_linalg import flat_work

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Number texts outside the one number grammar: exponent notation with a
#: huge exponent, a digit separator, a decimal, Arabic-Indic digits and a
#: fullwidth digit.  Fraction() and int() read some of them.
NUMBER_SHAPES = ["1e4000000", "1_0", "0.5", "١/٣", "１"]

#: Entries that are not small integer strings: fractions, a zero
#: denominator, Q(e) text, malformed text, long literals, high powers, and
#: JSON values that are not strings at all.
ODD_ENTRIES = st.one_of(
    st.builds("{}/{}".format, st.integers(-7, 7), st.integers(-3, 7)),
    st.sampled_from(
        ["", " ", "abc", "1/0", "e", "1 - e", "0.5", "1e5", "2^64", "(1+e)^70",
         "1" * 999, "1" * 1001, "-" + "7" * 400, "((1)", "1/(1-1)"] + NUMBER_SHAPES
    ),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 1), max_size=2),
)

#: Values for the integer fields d and n that are not plain small integers.
ODD_INTS = st.one_of(
    st.integers(-3, 40),
    st.integers(10**20, 10**21),
    st.sampled_from(["3", " 4 ", "x", "", "9" * 5000, "-2", "+3"] + NUMBER_SHAPES),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.lists(st.integers(), max_size=1),
)


#: Values of an integer flag: mostly small, sometimes a number shape.
INT_FLAGS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(NUMBER_SHAPES))

#: Values of --eps: usually none, sometimes in (0, 1), out of it or a number shape.
EPS_FLAGS = st.sampled_from([None] * 12 + ["1/100", "1/7", "0", "x", "1e-300000"] + NUMBER_SHAPES)


def _with_shape(draw, values):
    """values, now and then with one of them replaced by a number shape."""
    if values and draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(NUMBER_SHAPES))
    return values


def _corrupt(draw, doc, rows_key):
    """Leave doc well formed or break one thing about it."""
    rows = doc[rows_key]
    ints = [key for key in ("d", "n", "truncation") if key in doc]
    nested = isinstance(rows[0], list)
    kind = draw(st.sampled_from(
        ["none"] * 8 + ints + ["row", "shape", "entry", "rows", "document"]
    ))
    if kind in ints:
        doc[kind] = draw(ODD_INTS)
    elif kind == "row" and nested:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.one_of(
            st.just(["0"] * len(rows[i])),
            st.lists(st.integers(-2, 2).map(str), max_size=6),
            ODD_ENTRIES,
        ))
    elif kind == "shape":
        if draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1))]
        else:
            rows.append(draw(st.sampled_from(rows)))
    elif kind in ("entry", "row"):
        i = draw(st.integers(0, len(rows) - 1))
        if nested:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(ODD_ENTRIES)
        else:
            rows[i] = draw(ODD_ENTRIES)
    elif kind == "rows":
        doc[rows_key] = draw(st.one_of(ODD_ENTRIES, st.dictionaries(st.text(max_size=2), st.integers())))
    elif kind == "document":
        return draw(st.one_of(st.sampled_from([[], {}, None, 5, "x"]), st.just(rows)))
    return doc


@st.composite
def arrangement_documents(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 3, d + 6))
    row = st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1).filter(any)
    row = row.map(lambda r: [str(x) for x in r])
    rows = draw(st.lists(row, min_size=n, max_size=n))
    _with_shape(draw, rows[draw(st.integers(0, n - 1))])
    size = draw(st.sampled_from(["small"] * 8 + ["past the flat guard", "long literals"]))
    if size == "past the flat guard":
        d, n = 13, 16
        rows = [[str((i + 1) ** k) for k in range(d + 1)] for i in range(n)]
    elif size == "long literals":
        rows = [[x + "0" * draw(st.integers(0, 300)) for x in r] for r in rows]
    return d, n, _corrupt(draw, {"d": d, "n": n, "hyperplanes": rows}, "hyperplanes")


WEIGHT_TEXTS = st.sampled_from(
    ["1", "1/2", "1/3", "2/3", "e", "1 - e", "(1 + e)/3", "1/(1 + 2*e)", "3/4 - e", "1/7"]
)


@st.composite
def weight_documents(draw, d, n):
    """A named weight vector or a weight document for (d, n)."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(["t", "nt"]))
    entries = draw(st.lists(WEIGHT_TEXTS, min_size=n, max_size=n))
    return _corrupt(draw, {"d": d, "n": n, "entries": entries}, "entries")


@st.composite
def stability_calls(draw):
    d, n, arrangement = draw(arrangement_documents())
    weights = draw(weight_documents(d, n))
    flags = []
    if draw(st.integers(0, 9)) == 0:
        flags += ["--d", draw(INT_FLAGS)]
    if draw(st.integers(0, 9)) == 0:
        flags += ["--n", draw(INT_FLAGS)]
    eps = draw(EPS_FLAGS)
    if eps is not None:
        flags += ["--eps=" + eps]
    return arrangement, weights, flags


#: 200 derandomized examples per subcommand: the same run on every machine.
FUZZ = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _exit_0_or_2(capsys, argv):
    """Run main on argv and check the exit contract; the report of exit 0,
    or None after exit 2."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return None
    assert err == ""
    return json.loads(out)


@FUZZ
@given(call=stability_calls())
def test_stability_documents_exit_0_or_2(capsys, tmp_path, call):
    arrangement, weights, flags = call
    arr_path = tmp_path / "arrangement.json"
    arr_path.write_text(json.dumps(arrangement))
    if isinstance(weights, str):
        spec = weights
    else:
        spec = str(tmp_path / "weights.json")
        (tmp_path / "weights.json").write_text(json.dumps(weights))
    report = _exit_0_or_2(capsys, ["stability", str(arr_path), "--weights", spec] + flags)
    if report is not None:
        assert report["status"] in ("stable", "not-lc", "not-positive")


@FUZZ
@given(drawn=arrangement_documents())
def test_flat_guard_bounds_the_products_of_the_walk(restrict_products, drawn):
    # Each document the guard accepts makes at most the estimated number of
    # integer products.
    try:
        arr = arrangement_from_json(drawn[2])
        check_size(arr.d, arr.n)
    except WallcrossError:
        return
    restrict_products[0] = 0
    flats(arr)
    assert restrict_products[0] <= flat_work(arr.d, arr.n)


@st.composite
def family_documents(draw):
    """A replace document: d + 1 jet texts per member, nearly always in the
    normal form (a_1(0) != 0, the other jets vanishing at t = 0), sometimes
    with a member repeated."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def jet(unit):
        coeffs = ["%d/%d" % (rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.97:
            coeffs[0] = rng.choice(["1", "-2", "3/2"]) if unit else "0"
        return " + ".join("%s*t^%d" % (c, k) for k, c in enumerate(coeffs))

    d = rng.choice((1, 2, 2, 3, 3))
    members = [[jet(j == 1) for j in range(d + 1)] for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.2:
        members.append(list(rng.choice(members)))
    doc = {"d": d, "truncation": rng.randint(2, 6), "members": members}
    return _corrupt(draw, doc, "members")


@FUZZ
@given(doc=family_documents(), n=st.sampled_from([None] * 6 + ["5", "7", "8"] + NUMBER_SHAPES),
       eps=EPS_FLAGS)
def test_replace_documents_exit_0_or_2(capsys, tmp_path, doc, n, eps):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    flags = (["--n", n] if n is not None else []) + (["--eps=" + eps] if eps else [])
    report = _exit_0_or_2(capsys, ["replace", str(path)] + flags)
    if report is not None:
        assert report["depth"] >= 1


HEIGHT_TEXTS = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(0, 10**6),
    st.builds("{}/{}".format, st.integers(0, 20), st.integers(1, 4)),
)


@st.composite
def mixedsub_calls(draw):
    """A lifting document for mixedsub, with --d and --m that nearly always
    match its length."""
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2, 3, 4] * 4 + [-1, 0, 7, 10**6]))
    size = (m if 1 <= m <= 4 else 1) * (d + 1)
    heights = _with_shape(draw, draw(st.lists(HEIGHT_TEXTS, min_size=size, max_size=size)))
    doc = _corrupt(draw, {"heights": heights}, "heights")
    lifting = doc["heights"] if isinstance(doc, dict) else doc
    d, m = (draw(st.sampled_from([str(x)] * 12 + NUMBER_SHAPES)) for x in (d, m))
    return d, m, lifting


@FUZZ
@given(call=mixedsub_calls())
def test_mixedsub_lifting_documents_exit_0_or_2(capsys, tmp_path, call):
    d, m, lifting = call
    path = tmp_path / "lifting.json"
    path.write_text(json.dumps(lifting))
    report = _exit_0_or_2(
        capsys, ["mixedsub", "--d", d, "--m", m, "--lifting", str(path)]
    )
    if report is not None:
        assert report["cells"] and report["fine"] in (True, False)


@st.composite
def surface_documents(draw):
    """A pairing-model surface: a symmetric intersection matrix and a Q(e)
    divisor, with one of the two sometimes broken."""
    size = draw(st.integers(1, 4))
    matrix = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = str(draw(st.integers(-2, 3)))
    _with_shape(draw, matrix[draw(st.integers(0, size - 1))])
    divisor = draw(st.lists(WEIGHT_TEXTS, min_size=size, max_size=size))
    broken = draw(st.sampled_from(["matrix", "divisor"]))
    return _corrupt(draw, {"matrix": matrix, "divisor": divisor}, broken)


@FUZZ
@given(doc=surface_documents(), eps=EPS_FLAGS)
def test_pairing_surface_documents_exit_0_or_2(capsys, tmp_path, doc, eps):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    flags = ["--eps=" + eps] if eps else []
    report = _exit_0_or_2(capsys, ["ample", "--model", "pairing", str(path)] + flags)
    if report is not None:
        assert report["ample"] in (True, False)
        assert len(report["pairings"]) == len(doc["divisor"])


#: Digits outside ASCII that str.isdigit accepts: superscript two,
#: Arabic-Indic two, Devanagari five, fullwidth one.
NON_ASCII_DIGITS = ["²", "٢", "५", "１"]


@st.composite
def entry_texts(draw):
    """A weight entry: a value in (0, 1] from WEIGHT_TEXTS, now and then one
    out of range, sometimes dressed in parentheses nested up to past the
    reader's bound, a run of signs, a chain of powers, or a non-ASCII digit."""
    if draw(st.sampled_from([False] * 24 + [True])):
        text = draw(st.sampled_from(["2", "0", "-1/2", "e - 1"]))
    else:
        text = draw(WEIGHT_TEXTS)
    shape = draw(st.sampled_from(["plain"] * 20 + ["parens", "signs", "powers", "digit"]))
    if shape == "parens":
        depth = draw(st.sampled_from([1, 2, 7, 40, 100, 100, 101, 400]))
        text = "(" * depth + text + ")" * depth
    elif shape == "signs":
        text = "-" * draw(st.sampled_from([0, 1, 2, 4, 2998, 3000, 3001])) + "(%s)" % text
    elif shape == "powers":
        exponents = st.sampled_from([0, 1, 1, 2, 2, 3, 8, 64, 65, -1])
        text = "(%s)" % text + "".join("^%d" % k for k in draw(st.lists(exponents, min_size=1, max_size=12)))
    elif shape == "digit":
        text = text + draw(st.sampled_from(["", "*", "/", "^"])) + draw(st.sampled_from(NON_ASCII_DIGITS))
    return text


@st.composite
def weight_specs(draw, d, n, corrupt):
    """A named weight vector, or a weight document for (d, n) whose entries
    come from entry_texts, sometimes corrupted if corrupt is set."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["t", "nt"]))
    doc = {"d": d, "n": n, "entries": draw(st.lists(entry_texts(), min_size=n, max_size=n))}
    return _corrupt(draw, doc, "entries") if corrupt else doc


@st.composite
def weight_calls(draw, roles):
    """(documents, flags) for one call: a weight spec for each role, only
    the first one corrupted, and the --d, --n, --eps flags that named
    vectors need, sometimes odd."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 3, d + 6))
    specs = [draw(weight_specs(d, n, corrupt=index == 0)) for index in range(len(roles))]
    flags = []
    if any(isinstance(spec, str) for spec in specs) or draw(st.booleans()):
        flags += ["--d", draw(st.sampled_from([str(d)] * 12 + [str(d + 1), "0"] + NUMBER_SHAPES))]
        flags += ["--n", draw(st.sampled_from([str(n)] * 12 + [str(d + 2), "30"] + NUMBER_SHAPES))]
    eps = draw(EPS_FLAGS)
    if eps is not None:
        flags += ["--eps=" + eps]
    return specs, flags


def _weight_argv(tmp_path, command, roles, call):
    specs, flags = call
    argv = [command]
    for role, spec in zip(roles, specs):
        if not isinstance(spec, str):
            path = tmp_path / (role.strip("-") + ".json")
            path.write_text(json.dumps(spec))
            spec = str(path)
        argv += [role, spec]
    return argv + flags


@FUZZ
@given(call=weight_calls(["--weights"]))
def test_walls_documents_exit_0_or_2(capsys, tmp_path, call):
    argv = _weight_argv(tmp_path, "walls", ["--weights"], call)
    report = _exit_0_or_2(capsys, argv)
    if report is not None:
        assert report["count"] == len(report["walls"])


@FUZZ
@given(call=weight_calls(["--from", "--to"]))
def test_segment_documents_exit_0_or_2(capsys, tmp_path, call):
    argv = _weight_argv(tmp_path, "segment", ["--from", "--to"], call)
    report = _exit_0_or_2(capsys, argv)
    if report is not None:
        assert all(0 < len(c["u0"]) for c in report["crossings"])


@FUZZ
@given(call=weight_calls(["--first", "--second"]))
def test_chamber_documents_exit_0_or_2(capsys, tmp_path, call):
    argv = _weight_argv(tmp_path, "chamber", ["--first", "--second"], call)
    report = _exit_0_or_2(capsys, argv)
    if report is not None:
        assert report["same_chamber"] in (True, False)


#: Values for --d and --n of `ample --model blowup`: mostly small, some
#: large, negative, non-ASCII or malformed.
BLOWUP_INTS = st.one_of(
    st.integers(-1, 12).map(str),
    st.integers(10**6, 10**30).map(str),
    st.sampled_from(["", "x", "2.0", "٣", "1" * 5000, "-0"]),
    st.sampled_from(NUMBER_SHAPES),
)


@st.composite
def blowup_flags(draw):
    """--d, --n and --eps for `ample --model blowup`: usually a legal
    (d, n) pair and eps in (0, 1), sometimes missing or odd values."""
    d = draw(st.integers(2, 6))
    flags = {"d": str(d), "n": str(draw(st.integers(d + 3, d + 9)))}
    for key in ("d", "n"):
        kind = draw(st.sampled_from(["legal"] * 5 + ["odd", "missing"]))
        if kind == "odd":
            flags[key] = draw(BLOWUP_INTS)
        elif kind == "missing":
            del flags[key]
    eps = draw(st.one_of(
        st.none(),
        st.builds("1/{}".format, st.integers(2, 10**6)),
        st.builds("{}/{}".format, st.integers(-3, 9), st.integers(0, 9)),
        st.sampled_from(["x", "1e-3", "0.01", "1e-300000", "1/" + "7" * 5000]),
        st.sampled_from(NUMBER_SHAPES),
    ))
    if eps is not None:
        flags["eps"] = eps
    return ["--%s=%s" % item for item in sorted(flags.items())]


@FUZZ
@given(flags=blowup_flags())
def test_ample_blowup_flags_exit_0_or_2(capsys, flags):
    report = _exit_0_or_2(capsys, ["ample", "--model", "blowup"] + flags)
    if report is not None:
        assert report["ample"] in (True, False) and set(report["pairings"]) == {"e", "f", "s"}
