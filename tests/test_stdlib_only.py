"""The runtime is stdlib-only: every import in the package names the package
itself or a standard-library module."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sl2units"


def _imported_modules(path):
    """(line, top-level module) of each absolute import in a source file;
    relative imports (`from . import x`) stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_itself_and_the_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _imported_modules(path)
        if module != "sl2units" and module not in sys.stdlib_module_names
    ]
    assert not foreign, "non-stdlib imports:\n" + "\n".join(foreign)
