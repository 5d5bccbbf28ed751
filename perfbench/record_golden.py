"""Record the SHA-256 of every op's stdout at the default seed.

    python3 perfbench/record_golden.py [workload ...]

Runs one pass of each workload (all of them by default) and writes
golden/<workload>.json.  Runs with `--seed 101` then compare each op's
stdout with these hashes, so a change that claims byte-identical output can
prove it.  Ops that crash have no output and are stored as null.  Refuses
to record when any output fails the correctness gate.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(workload: str) -> None:
    modules = run.import_package()
    ops = workloads.build(workload, workloads.DEFAULT_SEED)
    results = run.run_pass(modules["cli"], ops)
    wrong = [f for f in run.gate(ops, [results], modules["certs"], None) if f["gate_failure"]]
    if wrong:
        raise SystemExit(f"{workload}: wrong output, not recording: {wrong[:3]}")
    golden = {
        "seed": workloads.DEFAULT_SEED,
        "inputs_sha256": run.inputs_digest(ops),
        "stdout_sha256": [None if r.error else run.sha256(r.stdout) for r in results],
    }
    path = run.GOLDEN_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")
    print(f"{path}: {len(ops)} ops")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
