"""The benchmark script still runs against the program and checks its outputs.

A one-second untraced ``montecarlo`` run of ``perfbench/run.py``, from the
repository root as the benchmark is run. Its last line is the summary: every
operation's output must have passed the script's checks. Tracing stays off:
the traced run's 2% bound on the time its spans leave uncovered fails now
and then on fast operations.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_short_montecarlo_run_of_the_benchmark_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
    assert summary["attempted"] >= 1
