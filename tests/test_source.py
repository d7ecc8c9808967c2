"""Static checks over the library's source files."""

import ast
import importlib
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


def _traced_functions() -> tuple[str, ...]:
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("TRACED_FUNCTIONS not found in bench/tracing.py")


def test_traced_functions_resolve():
    # The benchmark's tracer wraps these names by module and attribute; a
    # renamed or deleted function would break `bench/run.py --trace 1`.
    names = _traced_functions()
    assert names
    missing = []
    for name in names:
        module, attr = name.split(".")
        try:
            getattr(importlib.import_module(f"ordermotion.{module}"), attr)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_no_unused_imports():
    # Every name a library module imports must be used in that module; the
    # package's __init__.py imports only to re-export and is left out.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [
            f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items())
            if name not in used
        ]
    assert offenders == []
