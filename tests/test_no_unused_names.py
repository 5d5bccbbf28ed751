"""No aliases that nobody calls: every top-level function or class of the
package, and every method that is not a dunder, is referenced by name
somewhere in the package outside its own definition.

References are read from the syntax tree (`Name`, `Attribute` and import
nodes), so a mention in a docstring or a comment does not count.  A method
is matched by its bare name, as `x.mul(...)` does not say which class `x` is.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sl2units"

# "module.name" -> why it stays although the package never refers to it
ALLOWED = {
    "elemgen.reduces_to_identity": "the independent oracle of acceptance criterion 1 "
    "(conjugators congruent to I mod c), called from the tests",
    "sl2.Mat2.entries": "read by tests/test_sl2.py only; it goes, with those two uses, "
    "in the next change to sl2.py (ROADMAP 8)",
}


def _definitions(tree):
    """(qualified name, bare name, node) of each top-level function and class
    and of each non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree):
    """(bare name, line) of each name the tree reads, imports or looks up."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno


def test_every_definition_is_referenced_elsewhere():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    refs = {stem: list(_references(tree)) for stem, tree in trees.items()}
    unused = []
    for stem, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            span = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and (other != stem or line not in span)
                for other, pairs in refs.items()
                for ref, line in pairs
            ):
                unused.append(f"{stem}.{qualified}")
    unexplained = [name for name in unused if name not in ALLOWED]
    assert not unexplained, "defined but never referenced in src/:\n" + "\n".join(unexplained)
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, f"allow-list entries that are referenced now: {stale}"
