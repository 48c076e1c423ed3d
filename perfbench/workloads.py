"""The three benchmark workloads: inputs, warm-up, one operation, checks.

Every operation goes through ``rivkit.cli.main`` in-process, the entry point
users call, with stdout captured by a sink that timestamps each flush. Inputs
come from rivkit's own seeded samplers and are written to CSV before timing
starts, so the program under test only ever receives files (or, for
``bench``, a seed). See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from gauge import Mark, own_seconds, reference_seconds

DELTA = (0.15, 0.15)
DELTA_ARG = "0.15,0.15"

# monitor-stream
HEALTHY_ROWS = 4000
DRIFTED_ROWS = 4000
WINDOW = 2000
STRIDE = 10
WINDOWS = (HEALTHY_ROWS + DRIFTED_ROWS - WINDOW) // STRIDE + 1  # 601

# estimate-bulk
BULK_ROWS = 200_000

# montecarlo: (family, delta argument, truth, trials) per bench call
BENCH_CALLS = (("linear", DELTA_ARG, "H1", 40), ("narx", "0,0", "H0", 10))
BENCH_N = 2000

WARMUP_ROWS = 2000  # size of the small inputs the warm-up runs on
WARMUP_TRIALS = 2


class StampedSink(io.TextIOBase):
    """Stand-in for stdout that keeps the text and the time of every flush."""

    def __init__(self):
        super().__init__()
        self.parts: List[str] = []
        self.flush_times: List[float] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        self.flush_times.append(perf_counter())

    def records(self) -> List[dict]:
        return [json.loads(line) for line in "".join(self.parts).splitlines() if line]


@dataclass
class Outcome:
    """What one operation produced: exit codes, records and timings.

    ``marks`` are the speed gauge's kernel runs around and inside the
    operation (see gauge.py); ``wall`` leaves their time out and
    ``reference`` is the operation's time at the reference speed.
    """

    start: float = 0.0
    end: float = 0.0
    marks: List[Mark] = field(default_factory=list)
    exit_codes: List[int] = field(default_factory=list)
    records: List[dict] = field(default_factory=list)
    flush_times: List[float] = field(default_factory=list)
    calls: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return own_seconds(self.marks, self.start, self.end)

    @property
    def reference(self) -> float:
        return reference_seconds(self.marks, self.start, self.end)


def invoke(cli, argv: List[str], outcome: Outcome) -> None:
    """Run one CLI command in-process and add its results to ``outcome``."""
    sink = StampedSink()
    errors = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        code = cli.main(argv)
    outcome.calls.append((start, perf_counter()))
    outcome.exit_codes.append(code)
    outcome.records.extend(sink.records())
    outcome.flush_times.extend(sink.flush_times)


def write_csv(path: Path, header: str, rows) -> Tuple[int, int]:
    """Write rows with the same round-trip formatting as ``rivkit synth``."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return len(lines) - 1, len(text.encode())


def threshold_at(n: int) -> float:
    """Default decision threshold a_n = a0 * n^(-1/6), computed here."""
    return 0.1 * n ** (-1 / 6)


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _check_decision(rec: dict, n: int, where: str) -> List[str]:
    problems = []
    riv = rec.get("riv")
    if not _finite(riv) or riv < 0:
        problems.append(f"{where}: riv {riv!r} is not a finite non-negative number")
        return problems
    threshold = rec.get("threshold")
    if not _finite(threshold) or not math.isclose(threshold, threshold_at(n), rel_tol=1e-12):
        problems.append(f"{where}: threshold {threshold!r} is not a_n")
        return problems
    if rec.get("decision") != int(riv >= threshold):
        problems.append(f"{where}: decision {rec.get('decision')!r} != (riv >= threshold)")
    return problems


def digest(items: List[Any]) -> str:
    """sha256 over a JSON list; floats are written with every digit."""
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


class Workload:
    name = ""
    units_per_op = 0  # windows, rows or trials: what throughput counts

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def manifest(self) -> dict:
        return json.loads((self.inputs / "manifest.json").read_text())

    def ingest(self) -> Tuple[int, int]:
        """(rows, bytes) the cli reads in one operation."""
        m = self.manifest()
        return m["rows"], m["bytes"]


class MonitorStream(Workload):
    """601 windows at n=2000 over a stream that drifts half-way."""

    name = "monitor-stream"
    units_per_op = WINDOWS

    def generate(self, rivkit, seed: int) -> None:
        np, systems = rivkit["numpy"], rivkit["systems"]
        healthy = systems.sample_system(systems.SystemSpec("linear", (0.0, 0.0),
                                                           seed=2 * seed + 1), HEALTHY_ROWS)
        drifted = systems.sample_system(systems.SystemSpec("linear", DELTA,
                                                           seed=2 * seed + 2), DRIFTED_ROWS)
        stream = np.vstack([healthy.data, drifted.data])
        rows, size = write_csv(self.inputs / "stream.csv", "x1,x2,y", stream)
        write_csv(self.inputs / "warmup.csv", "x1,x2,y", stream[: WARMUP_ROWS + 5 * STRIDE])
        (self.inputs / "manifest.json").write_text(json.dumps({"rows": rows, "bytes": size}))

    def _argv(self, data: str) -> List[str]:
        return ["monitor", "--data", str(self.inputs / data), "--x-cols", "x1,x2",
                "--y-cols", "y", "--fit", "linear", "--window-size", str(WINDOW),
                "--window-stride", str(STRIDE)]

    def warm_up(self, cli) -> None:
        invoke(cli, self._argv("warmup.csv"), Outcome())

    def operation(self, cli, outcome: Outcome) -> None:
        invoke(cli, self._argv("stream.csv"), outcome)

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        if outcome.exit_codes != [2]:
            problems.append(f"exit codes {outcome.exit_codes}, expected [2] (detection)")
        if len(outcome.records) != WINDOWS or len(outcome.flush_times) != WINDOWS:
            problems.append(f"{len(outcome.records)} records and "
                            f"{len(outcome.flush_times)} flushes, expected {WINDOWS}")
        for i, rec in enumerate(outcome.records):
            where = f"window {i}"
            expected = {"window": i, "start_row": i * STRIDE,
                        "end_row": WINDOW + i * STRIDE, "n": WINDOW}
            if any(rec.get(k) != v for k, v in expected.items()):
                problems.append(f"{where}: position fields differ from {expected}")
            problems += _check_decision(rec, WINDOW, where)
        return problems

    def digest_items(self, outcome: Outcome) -> List[Any]:
        return [[r.get("riv"), r.get("decision"), r.get("collapsed")]
                for r in outcome.records]

    def gaps(self, outcome: Outcome) -> List[Tuple[float, float]]:
        """(start, end) between consecutive window records.

        The first record also carries the reference fit, so it only starts
        the clock.
        """
        t = outcome.flush_times
        return list(zip(t, t[1:]))

    def quality(self, outcome: Outcome) -> dict:
        fired = [r["end_row"] for r in outcome.records if r.get("decision") == 1]
        after = [end for end in fired if end > HEALTHY_ROWS]
        return {
            "detection_delay_rows": after[0] - HEALTHY_ROWS if after else None,
            "false_alarm_windows": sum(1 for end in fired if end <= HEALTHY_ROWS),
            "firing_windows": len(fired),
            "collapsed_windows": sum(1 for r in outcome.records if r.get("collapsed")),
        }


class EstimateBulk(Workload):
    """One estimate with a prediction table and --rif on 200,000 drifted rows."""

    name = "estimate-bulk"
    units_per_op = BULK_ROWS

    def generate(self, rivkit, seed: int) -> None:
        np, systems = rivkit["numpy"], rivkit["systems"]
        spec = systems.SystemSpec("linear", DELTA, seed=seed)
        sample = systems.sample_system(spec, BULK_ROWS)
        yhat = systems.nominal_model(spec).predict(sample.x)
        table = np.column_stack([sample.x, yhat])
        rows_d, size_d = write_csv(self.inputs / "data.csv", "x1,x2,y", sample.data)
        rows_p, size_p = write_csv(self.inputs / "pred.csv", "x_1,x_2,yhat_1", table)
        write_csv(self.inputs / "warmup_data.csv", "x1,x2,y", sample.data[:WARMUP_ROWS])
        write_csv(self.inputs / "warmup_pred.csv", "x_1,x_2,yhat_1", table[:WARMUP_ROWS])
        (self.inputs / "manifest.json").write_text(
            json.dumps({"rows": rows_d + rows_p, "bytes": size_d + size_p}))

    def _argv(self, data: str, pred: str) -> List[str]:
        return ["estimate", "--data", str(self.inputs / data), "--x-cols", "x1,x2",
                "--y-cols", "y", "--predictions", str(self.inputs / pred), "--rif"]

    def warm_up(self, cli) -> None:
        invoke(cli, self._argv("warmup_data.csv", "warmup_pred.csv"), Outcome())

    def operation(self, cli, outcome: Outcome) -> None:
        invoke(cli, self._argv("data.csv", "pred.csv"), outcome)

    def check(self, outcome: Outcome) -> List[str]:
        if outcome.exit_codes != [2] or len(outcome.records) != 1:
            return [f"exit codes {outcome.exit_codes} with {len(outcome.records)} "
                    f"records, expected [2] (detection) with 1"]
        rec = outcome.records[0]
        problems = _check_decision(rec, BULK_ROWS, "estimate")
        shape = {"command": "estimate", "n": BULK_ROWS, "p": 2, "q": 1,
                 "model": "external_table"}
        if any(rec.get(k) != v for k, v in shape.items()):
            problems.append(f"record fields differ from {shape}")
        rif = rec.get("rif")
        if not isinstance(rif, list) or len(rif) != 2 or not all(
                _finite(v) and v >= 0 for v in rif):
            problems.append(f"rif {rif!r} is not 2 finite non-negative values")
        leaves = rec.get("leaf_count")
        if not isinstance(leaves, int) or leaves < 1 or rec.get("collapsed") != (leaves == 1):
            problems.append(f"leaf_count {leaves!r} disagrees with collapsed")
        return problems

    def digest_items(self, outcome: Outcome) -> List[Any]:
        return [[r.get("riv"), r.get("leaf_count"), r.get("rif"), r.get("decision")]
                for r in outcome.records]

    def quality(self, outcome: Outcome) -> dict:
        rec = outcome.records[0]
        return {k: rec.get(k) for k in ("riv", "threshold", "decision", "leaf_count", "rif")}


class MonteCarlo(Workload):
    """bench linear (drifted, H1) then bench narx (nominal, H0) at n=2000."""

    name = "montecarlo"
    units_per_op = sum(call[3] for call in BENCH_CALLS)

    def generate(self, rivkit, seed: int) -> None:
        (self.inputs / "manifest.json").write_text(
            json.dumps({"rows": 0, "bytes": 0, "seed": seed}))

    def _argv(self, family: str, delta: str, truth: str, trials: int) -> List[str]:
        return ["bench", family, "--delta", delta, "--truth", truth, "--n", str(BENCH_N),
                "--trials", str(trials), "--seed", str(self.manifest()["seed"])]

    def warm_up(self, cli) -> None:
        for family, delta, truth, _ in BENCH_CALLS:
            invoke(cli, self._argv(family, delta, truth, WARMUP_TRIALS), Outcome())

    def operation(self, cli, outcome: Outcome) -> None:
        for call in BENCH_CALLS:
            invoke(cli, self._argv(*call), outcome)

    def check(self, outcome: Outcome) -> List[str]:
        if outcome.exit_codes != [0] * len(BENCH_CALLS) or \
                len(outcome.records) != len(BENCH_CALLS):
            return [f"exit codes {outcome.exit_codes} with {len(outcome.records)} records"]
        problems = []
        for rec, (family, _, truth, trials) in zip(outcome.records, BENCH_CALLS):
            kind = "power" if truth == "H1" else "significance"
            shape = {"command": "bench", "family": family, "truth": truth, "kind": kind,
                     "n": BENCH_N, "trials": trials}
            if any(rec.get(k) != v for k, v in shape.items()):
                problems.append(f"bench {family}: record fields differ from {shape}")
                continue
            rejections = rec.get("rejections")
            if not isinstance(rejections, int) or not 0 <= rejections <= trials:
                problems.append(f"bench {family}: rejections {rejections!r} out of range")
            elif rec.get("rate") != rejections / trials:
                problems.append(f"bench {family}: rate != rejections / trials")
        return problems

    def digest_items(self, outcome: Outcome) -> List[Any]:
        return [[r.get("family"), r.get("trials"), r.get("rejections")]
                for r in outcome.records]

    def quality(self, outcome: Outcome) -> dict:
        linear, narx = outcome.records
        return {"power.linear": linear["rate"], "false_alarm_rate.narx": narx["rate"]}

    def family_rates(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """trials/s per family at the reference speed, over every operation."""
        rates = {}
        for i, (family, _, _, trials) in enumerate(BENCH_CALLS):
            spent = sum(reference_seconds(o.marks, *o.calls[i]) for o in outcomes)
            rates[f"trials_per_s.{family}"] = trials * len(outcomes) / spent
        return rates


WORKLOADS = {cls.name: cls for cls in (MonitorStream, EstimateBulk, MonteCarlo)}
