"""Every name the benchmark tracer patches or reads exists in the package.

perfbench/spans.py wraps functions and methods by name, reads fields off
the results of wrapped calls and sums the self times and calls of spans by
name.  A deleted patched name breaks a traced run, and a deleted field that
an observer reads, or a deleted span name that a metric sums, zeroes its
metric silently, so all three are checked here, without running the tracer.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports only the stdlib
    return module


spans = _load_spans()
LAYERS = {name: importlib.import_module(f"sl2units.{name}") for name in spans.LAYERS}

# names spans.BUILD and spans.VERIFY still list that certs no longer defines,
# and names that spans.Tracer.metrics sums that the package no longer defines
STALE = ("dumps", "parse_many_units", "parse_witness", "norms.bfs_norm")


def _summed_names() -> set:
    """The span names spans.Tracer.metrics passes to total(...) or calls[...]."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(spans.Tracer.metrics)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "total":
            names.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "calls":
            names.add(node.slice.value)
    return names


SUMMED = _summed_names()

# (module, class) -> the fields of its instances that an observer reads
OBSERVED_FIELDS = {
    ("rings", "RingElement"): ("rat", "irr"),
    ("norms", "LemmaBoundReport"): ("nontrivial_count", "trivial_count"),
    ("elemgen", "Decomposition"): ("length",),
    ("lemma", "ManyUnitsCertificate"): ("u",),
}


def _exists(dotted: str) -> bool:
    """Whether layer.function or layer.Class.method is defined where it is named."""
    layer, *path = dotted.split(".")
    if len(path) == 1:  # the tracer names a function by the module that defines it
        function = vars(LAYERS[layer]).get(path[0])
        return callable(function) and function.__module__ == LAYERS[layer].__name__
    cls, method = path
    return method in vars(getattr(LAYERS[layer], cls, object))


@pytest.mark.parametrize("layer,cls,method", spans.SPAN_METHODS + spans.COUNTED_METHODS)
def test_patched_method_is_the_class_own(layer, cls, method):
    assert _exists(f"{layer}.{cls}.{method}")


@pytest.mark.parametrize("name", sorted(spans.OBSERVERS))
def test_observed_function_exists(name):
    assert _exists(name)


@pytest.mark.parametrize("name", [n for n in spans.BUILD + spans.VERIFY if n not in STALE])
def test_certs_span_name_exists(name):
    assert _exists(f"certs.{name}")


@pytest.mark.parametrize("name", sorted(SUMMED - set(STALE)))
def test_summed_span_name_exists(name):
    assert _exists(name)


@pytest.mark.parametrize("name", STALE)
def test_stale_name_is_still_absent(name):
    """When one of these is defined again, or dropped from spans.py, update STALE."""
    dotted = name if "." in name else f"certs.{name}"
    assert name in spans.BUILD + spans.VERIFY or name in SUMMED
    assert not _exists(dotted)


@pytest.mark.parametrize(
    "layer,cls,field",
    [(layer, cls, field) for (layer, cls), fields in OBSERVED_FIELDS.items() for field in fields],
)
def test_observed_field_exists(layer, cls, field):
    owner = getattr(LAYERS[layer], cls)
    names = {f.name for f in dataclasses.fields(owner)}
    assert field in names or isinstance(vars(owner).get(field), property)
