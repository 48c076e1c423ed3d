"""The benchmark script still runs against the program and checks its outputs.

One-second untraced runs of ``perfbench/run.py``, from the repository root
as the benchmark is run: ``montecarlo``, and ``estimate-bulk``, the 200k-row
estimate at large n. The last line is the summary: every operation's output
must have passed the script's checks. The line before it holds the digest of
the outputs. Tracing stays off: the traced run's 2% bound on the time its
spans leave uncovered fails now and then on fast operations.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def short_run(workload):
    """The details and the summary of a 1 s untraced run at seed 0."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    *_, details, summary = run.stdout.splitlines()
    summary = json.loads(summary)
    assert summary["correct"] is True and summary["failed"] == 0, summary
    assert summary["attempted"] >= 1
    return json.loads(details)["details"], summary


def test_a_short_montecarlo_run_of_the_benchmark_is_correct():
    short_run("montecarlo")


def test_a_short_estimate_bulk_run_of_the_benchmark_is_correct_and_keeps_its_digest():
    details, _ = short_run("estimate-bulk")
    assert details["output_digest"] == (
        "ea20ec213e9f8a7289ca391a538b1aacfd4591697d7fd75979d9475782d3f25a")
