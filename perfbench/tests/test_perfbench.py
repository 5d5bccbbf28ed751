"""Self-test of the benchmark at tiny sizes; it takes seconds.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# prefixes of the op lists that take well under a second
LIMIT = {"witness": 6, "roundtrip": 20}


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    record, result = result_of(bench("--workload", workload, "--seed", 3, "--seconds", 0,
                                     "--trace", trace, "--limit", LIMIT[workload]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert record["ops_per_pass"] == LIMIT[workload]
    assert result["attempted"] == LIMIT[workload] * record["passes"]
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


class TamperingCli:
    """The real CLI, except that every document it prints claims u = 65."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(argv)
        print(buf.getvalue().replace('"u": "64"', '"u": "65"'), end="")
        return code


def test_a_tampered_document_is_a_failed_op():
    modules = run.import_package()
    ops = workloads.build("roundtrip", 5)[:2]  # `unit find` for c = 3 and its verify
    assert ops[1].stdin_from == 0
    honest = run.run_pass(modules["cli"], ops)
    assert run.gate(ops, [honest], modules["certs"], None) == []

    tampered = run.run_pass(TamperingCli(modules["cli"]), ops)
    assert '"u": "65"' in tampered[0].stdout
    failures = run.gate(ops, [tampered], modules["certs"], None)
    assert [f["op"] for f in failures] == [0, 1]
    assert failures[0]["gate_failure"]  # the emitted document does not re-verify
    assert "VerificationFailed" in failures[1]["detail"]  # and `verify` rejects it

    later = run.gate(ops, [honest, tampered], modules["certs"], None)
    assert [f["op"] for f in later] == [0, 1]  # a pass that differs fails too


def test_a_golden_mismatch_is_a_failed_op():
    modules = run.import_package()
    ops = workloads.build("roundtrip", 5)[:2]
    results = run.run_pass(modules["cli"], ops)
    golden = [run.sha256(results[0].stdout + " "), None]
    failures = run.gate(ops, [results], modules["certs"], golden)
    assert [(f["op"], f["gate_failure"]) for f in failures] == [(0, True)]


def test_two_seeds_give_different_inputs_and_the_same_metric_names():
    for workload in workloads.WORKLOADS:
        one, two = workloads.build(workload, 1), workloads.build(workload, 2)
        assert len(one) == len(two)
        assert [op.argv for op in one] != [op.argv for op in two]
        assert one == workloads.build(workload, 1)
    names = []
    for seed in (1, 2):
        _, result = result_of(bench("--workload", "roundtrip", "--seed", seed, "--seconds", 0,
                                    "--trace", 0, "--limit", LIMIT["roundtrip"]))
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1]


def test_golden_files_match_the_inputs_of_the_default_seed():
    for workload in workloads.WORKLOADS:
        golden = json.loads((run.GOLDEN_DIR / f"{workload}.json").read_text(encoding="utf-8"))
        ops = workloads.build(workload, workloads.DEFAULT_SEED)
        assert golden["inputs_sha256"] == run.inputs_digest(ops)
        assert len(golden["stdout_sha256"]) == len(ops)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "roundtrip", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
