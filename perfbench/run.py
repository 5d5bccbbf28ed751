"""Benchmark of the sl2units CLI, driven in-process one command at a time.

    python3 perfbench/run.py --workload witness --seed 101 --seconds 30 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/`.  Each op is one `sl2units.cli.run(argv)` call with stdout
captured.  The op list of a workload is built from the seed and run in
whole passes until `--seconds` have elapsed (at least one pass).  Outputs
are checked afterwards, outside the timed phase.  The last line of stdout
is the result; the line before it is the run record.  With `--trace 1` the
same passes run once untraced and once under spans, and the per-layer
metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_DIR = HERE / "golden"


@dataclass
class Result:
    rc: Optional[int]  # None when cli.run raised
    stdout: str
    seconds: float
    error: Optional[str] = None  # class and message of an uncaught exception


# ---------------------------------------------------------------------------
# set-up


def import_package() -> dict:
    """Import sl2units afresh from the checkout's src/; returns its layer
    modules by name.  Raises FileNotFoundError when there is no src/."""
    if not (SRC / "sl2units" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sl2units package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sl2units" or n.startswith("sl2units.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"sl2units.{layer}") for layer in spans.LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sl2units was imported from {origin}, not from {SRC}")
    return modules


def set_up(workload: str, seed: int, limit: Optional[int]):
    """Import the package and build the inputs, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules = import_package()
        ops = workloads.build(workload, seed)[:limit]
        times.append(time.perf_counter() - t0)
    return modules, ops, times


# ---------------------------------------------------------------------------
# the timed phase


def run_pass(cli, ops, tracer=None) -> list:
    results = []
    for i, op in enumerate(ops):
        stdin = results[op.stdin_from].stdout if op.stdin_from is not None else ""
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        if tracer is not None:
            tracer.op = i
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(list(op.argv))
        except Exception as exc:  # an op that crashes is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        t1 = time.perf_counter()
        results.append(Result(rc, out.getvalue(), t1 - t0, error))
    sys.stdin = sys.__stdin__
    return results


def run_passes(cli, ops, seconds: float, min_passes: int = 1, tracer=None):
    """Whole passes until `seconds` have elapsed and `min_passes` are done."""
    done = []
    t0 = time.perf_counter()
    while len(done) < min_passes or time.perf_counter() - t0 < seconds:
        done.append(run_pass(cli, ops, tracer))
    return done, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the correctness gate


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def inputs_digest(ops) -> str:
    return sha256(json.dumps([[list(op.argv), op.expect_error, op.stdin_from] for op in ops]))


def load_golden(workload: str, seed: int, ops):
    """Stored stdout hashes for this workload, or None when there are none
    for this seed.  A digest of the inputs guards against stale files."""
    path = GOLDEN_DIR / f"{workload}.json"
    if seed != workloads.DEFAULT_SEED or not path.is_file():
        return None
    golden = json.loads(path.read_text(encoding="utf-8"))
    full = workloads.build(workload, seed)
    if golden["inputs_sha256"] != inputs_digest(full):
        raise SystemExit(f"{path} was recorded for other inputs; re-record it")
    return golden["stdout_sha256"][: len(ops)]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def expected_group_order(ring: str, modulus: str) -> Optional[int]:
    """|SL2(R/NR)| = N(N^2-1) over Z and Z[1/m] for a prime N not inverted;
    None where the gate does not know it."""
    if not modulus.isdigit() or not _is_prime(int(modulus)):
        return None
    n = int(modulus)
    if ring == "Z" or (ring.startswith("Z[1/") and int(ring[4:-1]) % n):
        return n * (n * n - 1)
    return None


def check_output(op, doc, source_doc, certs) -> Optional[str]:
    """The exact invariants of one successful op; returns a failure or None."""
    if op.argv[0] == "verify":
        want = {"kind": source_doc.get("kind"), "ok": True, "ring": source_doc.get("ring")}
        return None if doc == want else f"verify printed {doc}"
    body = doc.get("payload", doc)
    if "payload" in doc:
        try:
            certs.verify_document(doc)
        except Exception as exc:  # any failure to re-verify fails the op
            return f"re-verification failed: {type(exc).__name__}: {exc}"
    if "group_order" in body:
        want = expected_group_order(doc.get("ring", ""), str(body.get("modulus")))
        if want is not None and body["group_order"] != want:
            return f"group order {body['group_order']}, expected {want}"
    for flag in ("all_within_bound", "all_passed"):
        if body.get(flag, True) is not True:
            return f"{flag} is false"
    if "norm" in body and not isinstance(body["norm"], int):
        return f"norm {body['norm']} is not finite"
    if doc.get("kind") == "many-units" and doc["ring"] == "Z[1/2]" and body["c"] == "3":
        if body["u"] != "64":
            return f"anchor c = 3 over Z[1/2] gave u = {body['u']}, expected 64"
    return None


def gate(ops, passes, certs, golden) -> list:
    """The ops that failed, judged on the first pass, as a list of dicts.

    Later passes must print exactly what the first pass printed; an op that
    differs counts as failed in every pass.  `gate_failure` marks wrong
    output, as opposed to an op that crashed or exited with the wrong code.
    """
    first = passes[0]
    failures = []
    for i, (op, res) in enumerate(zip(ops, first)):
        reason, wrong_output = None, False
        if res.error is not None:
            reason = res.error
        else:
            try:
                doc = json.loads(res.stdout)
            except json.JSONDecodeError:
                doc = None
            if not isinstance(doc, dict):
                reason, wrong_output = "stdout is not a JSON object", True
            elif op.expect_error is not None:
                if res.rc != 1 or doc.get("error") != op.expect_error:
                    reason = f"expected {op.expect_error}, got exit {res.rc}: {doc.get('error')}"
            elif res.rc != 0:
                reason = f"exit {res.rc}: {doc.get('error')}: {doc.get('message', '')[:200]}"
            else:
                source = {}
                if op.stdin_from is not None:
                    try:
                        source = json.loads(first[op.stdin_from].stdout)
                    except json.JSONDecodeError:
                        pass
                reason = check_output(op, doc, source, certs)
                wrong_output = reason is not None
            if reason is None and golden is not None and golden[i] is not None:
                if sha256(res.stdout) != golden[i]:
                    reason, wrong_output = "stdout differs from the golden output", True
        if reason is None:
            for later in passes[1:]:
                if later[i].stdout != res.stdout or later[i].rc != res.rc:
                    reason, wrong_output = "a later pass printed something else", True
                    break
        if reason is not None:
            failures.append({"op": i, "label": op.label, "error_class": reason.split(":")[0],
                             "detail": reason[:300], "gate_failure": wrong_output})
    return failures


# ---------------------------------------------------------------------------
# reporting


def tail(durations, ops_per_pass):
    """The highest percentile of the ladder with at least 10 of a pass's ops
    beyond it (the median for passes of fewer than 20 ops), by nearest rank.
    Counting the ops of one pass keeps the choice independent of how many
    passes fit in the run."""
    pct = next((p for p in TAIL_LADDER if ops_per_pass * (100 - p) / 100 >= 10), 50.0)
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)], pct


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, help="run only the first N ops (self-test)")
    args = p.parse_args(argv)

    try:
        modules, ops, setup_times = set_up(args.workload, args.seed, args.limit)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    cli = modules["cli"]
    golden = load_golden(args.workload, args.seed, ops)

    passes, wall = run_passes(cli, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(modules)
        try:
            traced, traced_wall = run_passes(cli, ops, 0, len(passes), tracer)
        finally:
            tracer.uninstall()
        doc_bytes = sum(len(r.stdout.encode()) for run in traced
                        for op, r in zip(ops, run)
                        if op.argv[0] != "verify" and r.rc == 0 and '"payload"' in r.stdout)
        metrics = tracer.metrics(traced_wall, wall, doc_bytes)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    failures = gate(ops, passes + traced, modules["certs"], golden)
    attempted = len(ops) * len(passes)
    failed = len(failures) * len(passes)
    correct = not any(f["gate_failure"] for f in failures)

    durations = [r.seconds for run in passes for r in run]
    tail_s, tail_pct = tail(durations, len(ops))
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / wall, "ops/s"),
            "ok_ops_ratio": ((attempted - failed) / attempted, "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(ops), "passes": len(passes), "timed_s": wall,
        "setup_runs_s": setup_times,
        "op_p50_ms": statistics.median(durations) * 1000,
        "op_tail_ms": tail_s * 1000, "tail_percentile": tail_pct,
        "failed_ops_ratio": failed / attempted,
        "golden": "checked" if golden is not None else "none for this seed",
        "failures": failures,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
