"""The benchmark script still runs against the program and checks its outputs.

One-second untraced runs of ``perfbench/run.py``, from the repository root
as the benchmark is run, one per workload: ``montecarlo``, ``estimate-bulk``,
the 200k-row estimate at large n, and ``monitor-stream``. The last line is the
summary: every operation's output must have passed the script's checks. The
line before it holds the digest of the outputs, pinned for each workload.
Tracing stays off: the traced run's 2% bound on the time its spans leave
uncovered fails now and then on fast operations.
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
    # The digest is the same at every seed, but it pins the rejection counts.
    details, _ = short_run("montecarlo")
    assert details["output_digest"] == (
        "41e930271298ba1dfccf40e3462f411b50e68a72a6a024e9aa5e9eb32fa463f7")


def test_a_short_estimate_bulk_run_of_the_benchmark_is_correct_and_keeps_its_digest():
    details, _ = short_run("estimate-bulk")
    assert details["output_digest"] == (
        "ea20ec213e9f8a7289ca391a538b1aacfd4591697d7fd75979d9475782d3f25a")


def test_a_short_monitor_stream_run_of_the_benchmark_is_correct_and_keeps_its_digest():
    details, _ = short_run("monitor-stream")
    assert details["output_digest"] == (
        "4df6231daa85c5fda0b0898d8b7049a7421ee7a1ec1db3ec2c53c0ae043ce5f9")
