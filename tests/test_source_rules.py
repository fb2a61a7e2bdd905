"""Rules on the package source that no behavioural test can see."""

import ast
from pathlib import Path

import wallcross

PACKAGE = Path(wallcross.__file__).parent


def test_no_assert_statements():
    # Internal invariants raise InvariantBreach: `python -O` strips asserts.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_floats():
    # Exactness is the product: no float literal, float() call or float-valued
    # math function anywhere in the package.
    banned = {"log", "log2", "log10", "log1p", "sqrt", "pow"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(where + " float literal")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(where + " float()")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in banned
            ):
                found.append(where + " math." + node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [where + " math." + a.name for a in node.names if a.name in banned]
    assert found == []


def test_only_epsfield_sees_the_rational_form():
    # Q(e) is stored on integers behind epsfield: no other module imports
    # EpsPoly or integer_coeffs, or reads the rational .num / .den.
    banned = {"EpsPoly", "integer_coeffs", "num", "den"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "epsfield.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.ImportFrom):
                found += [where + " imports " + a.name for a in node.names if a.name in banned]
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                found.append(where + " reads ." + node.attr)
    assert found == []


def test_linalg_is_a_leaf():
    # epsfield, arrangement and jets import linalg, so linalg importing any
    # module of the package would make a cycle.
    path = PACKAGE / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else ["." * node.level]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [
            "linalg.py:%d imports %s" % (node.lineno, name)
            for name in names
            if name.startswith(".") or name.split(".")[0] == "wallcross"
        ]
    assert found == []


def test_no_unicode_digit_predicates():
    # str.isdigit, isdecimal and isnumeric accept digits outside ASCII, some
    # of which int() refuses; the readers take ASCII digits only.
    banned = {"isdigit", "isdecimal", "isnumeric"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d %s" % (path.name, node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in banned
        ]
    assert found == []


def test_weights_imports_nothing_from_fractions():
    # The weight domain runs its inner loops on ints, with one exact
    # representation: no Fraction key, sum or point in weights.py.
    path = PACKAGE / "weights.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        "weights.py:%d" % node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert found == []


def test_one_home_for_packing():
    # Lowered Q(e) vectors have one packed-int form: only epsfield defines
    # _pack and _unpack, and mixedsub takes them from there, not from weights.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in ("_pack", "_unpack")
                and path.name != "epsfield.py"
            ):
                found.append(where + " defines " + node.name)
            elif path.name == "mixedsub.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                if any(name.split(".")[-1] == "weights" for name in names):
                    found.append(where + " imports from weights")
    assert found == []
