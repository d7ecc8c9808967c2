"""Static checks over the library's source files."""

import ast
from pathlib import Path

import ordermotion

PACKAGE_DIR = Path(ordermotion.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements; promised invariants must raise
    # InternalInvariantError instead.
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []
