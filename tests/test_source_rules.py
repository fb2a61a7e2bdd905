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
