"""Windowed monitoring of an ordered stream through the command line.

Builds a CSV stream that is healthy for its first half and drifted
afterwards, plus a row-aligned nominal prediction table, then runs the
monitor. Each emitted line is one JSON record per window; the exit code is
2 as soon as any window rejects.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from rivkit import SystemSpec, sample_forward
from rivkit.systems import eta_values

work = Path(tempfile.mkdtemp())
healthy = sample_forward(SystemSpec("linear", (0.0, 0.0), seed=31), 1536)
drifted = sample_forward(SystemSpec("linear", (0.15, 0.15), seed=32), 1536)
rows = np.vstack([healthy.data, drifted.data])

stream = work / "stream.csv"
stream.write_text("x1,x2,y\n" + "\n".join(
    ",".join(f"{v:.17g}" for v in row) for row in rows) + "\n")

nominal = eta_values(SystemSpec("linear"), rows[:, :2])
table = work / "predictions.csv"
table.write_text("x_1,x_2,yhat_1\n" + "\n".join(
    f"{x1:.17g},{x2:.17g},{yh:.17g}" for (x1, x2), yh in zip(rows[:, :2], nominal)) + "\n")

command = [
    sys.executable, "-m", "rivkit.cli", "monitor",
    "--data", str(stream), "--x-cols", "x1,x2", "--y-cols", "y",
    "--predictions", str(table), "--window-size", "768", "--window-stride", "768",
]
print("running:", " ".join(command[2:]))
proc = subprocess.run(command, capture_output=True, text=True)
sys.stderr.write(proc.stderr)  # the monitor's warnings and errors, if any
for line in proc.stdout.splitlines():
    record = json.loads(line)
    flag = "ALARM" if record["decision"] else "ok"
    print(f"  window {record['window']} rows [{record['start_row']:4d}, "
          f"{record['end_row']:4d}): riv={record['riv']:.4f} -> {flag}")
print(f"exit code: {proc.returncode} (0 = quiet, 2 = a detection fired)")
