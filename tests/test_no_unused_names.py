"""No aliases that nobody calls: every top-level function or class of the
package, and every method that is not a dunder, is referenced by name
somewhere in the package outside its own definition.

References are read from the syntax tree (`Name`, `Attribute` and import
nodes), so a mention in a docstring or a comment does not count.  A method
is matched by its bare name, as `x.mul(...)` does not say which class `x` is.
Two rules keep that match from being fooled by a name spelled the same way:
an attribute of a module bound by a plain `import` (`json.dumps`) belongs to
that module and is not a reference, and a bare name defined more than once
in the package must be listed in SHARED_NAMES with the use of each of its
definitions.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sl2units"

# "module.name" -> why it stays although the package never refers to it
ALLOWED = {}

# bare name defined more than once -> where each definition is read
SHARED_NAMES = {
    "name": "AlgebraError.name gives cli.run the error name it prints; RingDescriptor.name "
    "is the ring text of every certificate and message",
    "inverse": "RingElement.inverse inverts a unit (1/u in sl2.diag, u^-4 in the witness target); "
    "Mat2.inverse is the adjugate (A^-1 in the witness and the norm seeds)",
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


def _imported_modules(tree):
    """Names that a plain `import` binds to a module outside the package."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _references(tree):
    """(bare name, line) of each name the tree reads, imports or looks up,
    leaving out attributes of outside modules."""
    outside = _imported_modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in outside):
                yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno


def _trees():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}


def test_every_definition_is_referenced_elsewhere():
    trees = _trees()
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


def test_names_defined_twice_are_explained():
    """A reference to a name defined twice counts for both definitions, so
    one of them could be dead; each must be known to be read."""
    counts = Counter(name for tree in _trees().values() for _, name, _ in _definitions(tree))
    shared = {name for name, n in counts.items() if n > 1}
    unexplained = sorted(shared - set(SHARED_NAMES))
    assert not unexplained, f"names defined more than once in src/, not in SHARED_NAMES: {unexplained}"
    stale = sorted(set(SHARED_NAMES) - shared)
    assert not stale, f"SHARED_NAMES entries defined only once now: {stale}"
