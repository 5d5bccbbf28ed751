"""The error hierarchy: every domain error class is raised somewhere."""

import ast
from pathlib import Path

import sl2units

PACKAGE = Path(sl2units.__file__).parent


def _raised_names(tree):
    """Names of the exceptions in `raise Name` and `raise Name(...)` statements."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    domain = {"AlgebraError"}
    for node in errors.body:
        if isinstance(node, ast.ClassDef):
            if any(isinstance(b, ast.Name) and b.id in domain for b in node.bases):
                domain.add(node.name)
    raised = set()
    for path in PACKAGE.glob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(domain - {"AlgebraError"} - raised)
    assert len(domain) > 10
    assert unused == []
