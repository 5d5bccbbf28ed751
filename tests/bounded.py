"""Run one `sl2units` command in a child process bounded in time and memory,
so that a hostile input that regresses to a hang or to a huge integer fails
its test instead of hanging the suite or exhausting the host.

The child caps its own address space before it imports the package, and is
killed with its whole process group (its own session) at the hard timeout.
It reads its argv and stdin text as one JSON object on stdin, since Linux
allows one argument 128 KB, and times the `cli.run` call alone.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

CAP = 2**30  # bytes of address space for each child
MARGIN = 3.0  # seconds past its bound at which a command's child is killed
ROOT = Path(__file__).resolve().parents[1]  # the package, and `tests` for a child that imports it
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT),
                                                             os.getenv("PYTHONPATH")])))
CLI = """
import io, json, sys, time
job = json.load(sys.stdin)
sys.stdin, sys.stdout = io.StringIO(job["stdin"]), io.StringIO()
from sl2units.cli import run
start = time.perf_counter()
code = run(job["argv"])
seconds = time.perf_counter() - start
json.dump({"code": code, "stdout": sys.stdout.getvalue(), "seconds": seconds}, sys.__stdout__)
"""


class Outcome(NamedTuple):
    code: int | None  # None: killed at the hard timeout
    stdout: str
    seconds: float


def spawn(source: str, text: str, timeout: float) -> Outcome:
    """`python -c source` under CAP with text on its stdin, and its wall time."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({CAP}, {CAP}))\n"
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", cap + source], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, start_new_session=True,
                             env=ENV)
    try:
        out, _ = child.communicate(text, timeout=timeout)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate(timeout=MARGIN)  # raises if one outside the group holds stdout
        return Outcome(None, out, time.perf_counter() - start)
    return Outcome(child.returncode, out, time.perf_counter() - start)


def run(argv, stdin: str = "", *, timeout: float) -> Outcome:
    """One `cli.run(argv)` with stdin as its standard input, in a bounded child:
    its exit code, stdout and the seconds of the call, or, for a child that
    died outside the call, the child's own."""
    done = spawn(CLI, json.dumps({"argv": list(argv), "stdin": stdin}), timeout)
    return Outcome(**json.loads(done.stdout)) if done.code == 0 else done
