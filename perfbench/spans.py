"""Spans and counters around the layers of sl2units, installed from outside.

A span records a name, start, end, parent span and op id.  The tracer wraps
the public functions of each layer module (plus a few named methods) at
every place the function object is bound in the package, so
`sl2units.cli.find_unit` is wrapped as well as `sl2units.lemma.find_unit`.
Hot constructors and group multiplications get counters instead of spans.
Spans are kept in flat arrays in memory and written out by `dump`.

Self time is a span's duration minus the durations of its children; every
per-layer `_s` metric is a sum of self times.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("rings", "sl2", "elemgen", "lemma", "norms", "certs", "cli")

# (module, class, method) wrapped in a span besides the public functions
SPAN_METHODS = (
    ("sl2", "GroupWord", "evaluate"),
    ("elemgen", "Decomposition", "__post_init__"),
    ("norms", "FiniteGroupTable", "__init__"),
    ("norms", "NormTable", "__init__"),
)
# (module, class, method) that are only counted
COUNTED_METHODS = (
    ("rings", "RingElement", "__post_init__"),
    ("sl2", "Mat2", "__post_init__"),
    ("norms", "FiniteGroupTable", "mul"),
    ("norms", "FiniteGroupTable", "conj"),
)

CLOSURE = "norms.conjugation_closure"
BUILD = ("make_document", "dumps", "many_units_payload", "witness_payload",
         "decomposition_payload", "experiment_payload", "axiom_report_payload")
VERIFY = ("verify_document", "parse_many_units", "parse_witness")

# per-layer metric name -> unit, in report order
METRICS = {
    "cli.run_s": "s", "cli.ops": "count",
    "certs.build_s": "s", "certs.verify_s": "s", "certs.doc_bytes": "bytes",
    "certs.failures": "count", "certs.self_s": "s",
    "lemma.find_unit_s": "s", "lemma.witness_build_s": "s", "lemma.compute_Y_s": "s",
    "lemma.compute_Y_calls": "count", "lemma.verify_witness_s": "s",
    "lemma.verify_witness_calls": "count", "lemma.verify_certificate_s": "s",
    "lemma.self_s": "s",
    "rings.element_new": "count", "rings.unit_order_s": "s",
    "rings.unit_order_k_sum": "count", "rings.unit_bits_max": "bits",
    "rings.quotient_s": "s", "rings.parse_s": "s", "rings.self_s": "s",
    "sl2.mat_new": "count", "sl2.word_evaluate_s": "s", "sl2.word_evaluate_calls": "count",
    "sl2.parse_matrix_s": "s", "sl2.self_s": "s",
    "elemgen.decompose_s": "s", "elemgen.decompose_calls": "count",
    "elemgen.word_length_sum": "count", "elemgen.decomposition_check_s": "s",
    "elemgen.expand_diagonals_s": "s", "elemgen.self_s": "s",
    "norms.table_s": "s", "norms.group_order_sum": "count", "norms.closure_s": "s",
    "norms.closure_size_sum": "count", "norms.conj_calls": "count",
    "norms.closure_yield": "1", "norms.mul_calls": "count", "norms.bfs_s": "s",
    "norms.axioms_s": "s", "norms.sample_yield": "1", "norms.self_s": "s",
    "trace.wall_s": "s", "trace.self_sum_s": "s", "trace.coverage": "1",
    "trace.untraced_wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def _bits(x) -> int:
    """Largest bit length among the integers that make up a ring element."""
    return max(abs(x.rat.numerator).bit_length(), x.rat.denominator.bit_length(),
               abs(x.irr).bit_length())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.cells: dict = {}
        self.unit_bits_max = 0
        self._undo: list = []

    # -- installation

    def install(self, modules: dict) -> None:
        """Wrap the layers found in `modules` (short name -> module object)."""
        package = [m for name, m in sys.modules.items()
                   if name == "sl2units" or name.startswith("sl2units.")]
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    inner = self._conjugations_tried(fn) if name == CLOSURE else fn
                    self._rebind(package, fn, self._span(name, inner))
        for layer, cls, meth in SPAN_METHODS:
            owner = getattr(modules[layer], cls)
            self._patch(owner, meth, self._span(f"{layer}.{cls}.{meth}", vars(owner)[meth]))
        for layer, cls, meth in COUNTED_METHODS:
            owner = getattr(modules[layer], cls)
            self._patch(owner, meth, self._counted(f"{layer}.{cls}.{meth}", vars(owner)[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, package, fn, wrapper):
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        stack, span_name, start, end = self.stack, self.span_name, self.start, self.end
        parent, op_id, raised = self.parent, self.op_id, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        """Count calls; the wrappers take the exact arity to stay cheap."""
        cell = self.cells.setdefault(name, [0])
        if name.endswith("__post_init__"):
            def wrapper(obj):
                cell[0] += 1
                return fn(obj)
        else:
            def wrapper(table, g, h):
                cell[0] += 1
                return fn(table, g, h)
        return functools.wraps(fn)(wrapper)

    def _conjugations_tried(self, fn):
        """Count the conjugations made inside conjugation_closure."""
        cell = self.cells.setdefault("norms.FiniteGroupTable.conj", [0])
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = cell[0]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["closure_conj"] += cell[0] - before

        return wrapper

    # -- results

    def self_times(self) -> tuple:
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        by_name: dict = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            by_name[name] += own[i]
            calls[name] += 1
        return by_name, calls

    def failed_ops(self, prefix: str) -> int:
        ids = {i for i, name in enumerate(self.names) if name.startswith(prefix)}
        return len({self.op_id[i] for i in range(len(self.span_name))
                    if self.raised[i] and self.span_name[i] in ids})

    def metrics(self, traced_wall: float, untraced_wall: float, doc_bytes: int) -> dict:
        self_s, calls = self.self_times()

        def total(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def layer(prefix):
            return sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

        c = self.counts + Counter({k: v[0] for k, v in self.cells.items()})
        draws = c["sample_draws"]
        self_sum = sum(self_s.values())
        values = {
            "cli.run_s": layer("cli"),
            "cli.ops": calls["cli.run"],
            "certs.build_s": total(*(f"certs.{n}" for n in BUILD)),
            "certs.verify_s": total(*(f"certs.{n}" for n in VERIFY)),
            "certs.doc_bytes": doc_bytes,
            "certs.failures": self.failed_ops("certs."),
            "certs.self_s": layer("certs"),
            "lemma.find_unit_s": total("lemma.find_unit"),
            "lemma.witness_build_s": total("lemma.lemma2_witness"),
            "lemma.compute_Y_s": total("lemma.compute_Y"),
            "lemma.compute_Y_calls": calls["lemma.compute_Y"],
            "lemma.verify_witness_s": total("lemma.verify_witness"),
            "lemma.verify_witness_calls": calls["lemma.verify_witness"],
            "lemma.verify_certificate_s": total("lemma.verify_certificate"),
            "lemma.self_s": layer("lemma"),
            "rings.element_new": c["rings.RingElement.__post_init__"],
            "rings.unit_order_s": total("rings.unit_order"),
            "rings.unit_order_k_sum": c["unit_order_k_sum"],
            "rings.unit_bits_max": self.unit_bits_max,
            "rings.quotient_s": total("rings.quotient"),
            "rings.parse_s": total("rings.parse_ring", "rings.parse_element"),
            "rings.self_s": layer("rings"),
            "sl2.mat_new": c["sl2.Mat2.__post_init__"],
            "sl2.word_evaluate_s": total("sl2.GroupWord.evaluate"),
            "sl2.word_evaluate_calls": calls["sl2.GroupWord.evaluate"],
            "sl2.parse_matrix_s": total("sl2.parse_matrix"),
            "sl2.self_s": layer("sl2"),
            "elemgen.decompose_s": total("elemgen.decompose"),
            "elemgen.decompose_calls": calls["elemgen.decompose"],
            "elemgen.word_length_sum": c["word_length_sum"],
            "elemgen.decomposition_check_s": total("elemgen.Decomposition.__post_init__"),
            "elemgen.expand_diagonals_s": total("elemgen.expand_diagonals"),
            "elemgen.self_s": layer("elemgen"),
            "norms.table_s": total("norms.FiniteGroupTable.__init__"),
            "norms.group_order_sum": c["group_order_sum"],
            "norms.closure_s": total("norms.conjugation_closure"),
            "norms.closure_size_sum": c["closure_size_sum"],
            "norms.conj_calls": c["norms.FiniteGroupTable.conj"],
            "norms.closure_yield": (c["closure_size_sum"] / c["closure_conj"]
                                    if c["closure_conj"] else 0.0),
            "norms.mul_calls": c["norms.FiniteGroupTable.mul"],
            "norms.bfs_s": total("norms.bfs_norm", "norms.NormTable.__init__"),
            "norms.axioms_s": total("norms.check_norm_axioms"),
            "norms.sample_yield": c["sample_nontrivial"] / draws if draws else 0.0,
            "norms.self_s": layer("norms"),
            "trace.wall_s": traced_wall,
            "trace.self_sum_s": self_sum,
            "trace.coverage": self_sum / traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans": len(self.span_name),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.start[i],
                                     self.end[i], self.parent[i], self.op_id[i],
                                     self.raised[i]]) + "\n")


# -- values read off the results of wrapped calls


def _unit_order(tracer, args, k):
    tracer.counts["unit_order_k_sum"] += k


def _find_unit(tracer, args, cert):
    tracer.unit_bits_max = max(tracer.unit_bits_max, _bits(cert.u))


def _decompose(tracer, args, dec):
    tracer.counts["word_length_sum"] += dec.length


def _closure(tracer, args, closed):
    tracer.counts["closure_size_sum"] += len(closed)


def _table(tracer, args, result):
    tracer.counts["group_order_sum"] += len(args[0])


def _experiment(tracer, args, report):
    tracer.counts["sample_nontrivial"] += report.nontrivial_count
    tracer.counts["sample_draws"] += report.nontrivial_count + report.trivial_count


OBSERVERS = {
    "rings.unit_order": _unit_order,
    "lemma.find_unit": _find_unit,
    "elemgen.decompose": _decompose,
    "norms.conjugation_closure": _closure,
    "norms.FiniteGroupTable.__init__": _table,
    "norms.lemma_bound_experiment": _experiment,
}
