"""Command-line surface: tabular ingestion, estimation, synthesis, sweeps,
error-rate benchmarking, and a streaming windowed monitor.

Exit codes: 0 ran with no detection, 1 usage or configuration error,
2 a detection fired, 3 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .detector import decide, estimate_error_rate
from .estimator import DEFAULT_A0, DEFAULT_L, DEFAULT_LAMBDA, DEFAULT_W, Schedule
from .harness import GridSpec, save_grid_result, sweep_grid
from .pipeline import NominalModel, fit_linear, rif, riv, table_model
from .samples import JointSample
from .systems import AR_FAMILIES, FAMILIES, SystemSpec, describe_eta, sample_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DETECTION = 2
EXIT_DATA = 3

MIN_WINDOW = 16
MALFORMED_LIMIT = 0.01


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class DataError(Exception):
    """Unreadable or malformed data; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    # None marks "not given" so config-file values can fill the gap
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help=f"pruning regularization factor (default {DEFAULT_LAMBDA})")
    parser.add_argument("--w", type=float, default=None,
                        help=f"cell-size law scale: b_n = w * n^(-l) (default {DEFAULT_W})")
    parser.add_argument("--l", type=float, default=None,
                        help=f"cell-size law exponent, in (0, 1/3) (default {DEFAULT_L})")
    parser.add_argument("--a0", type=float, default=None,
                        help=f"decision threshold scale: a_n = a0 * n^(-1/6) "
                             f"(default {DEFAULT_A0})")


def _schedule_from(args) -> Schedule:
    try:
        return Schedule(
            lam=DEFAULT_LAMBDA if args.lam is None else args.lam,
            w=DEFAULT_W if args.w is None else args.w,
            l=DEFAULT_L if args.l is None else args.l,
            a0=DEFAULT_A0 if args.a0 is None else args.a0,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_cols(text: str) -> List[str]:
    cols = [c.strip() for c in text.split(",") if c.strip()]
    if not cols:
        raise UsageError("empty column list")
    return cols


def _parse_delta(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"delta must be two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad delta {text!r}") from exc


def _read_columns(path: str, *blocks: List[str]) -> List[np.ndarray]:
    """One float64 array per requested block of columns of a headed CSV file.

    Blank lines are skipped, and row numbers in errors count non-blank lines
    (the header is row 1). One ``np.loadtxt`` call parses every data row;
    only if it fails, or the table is not (rows, header fields), are the
    rows scanned cell by cell with ``float()`` by ``_scan_columns``, which
    names the first bad row and column or returns the blocks (a column that
    is not requested may then be non-numeric).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    header = [c.strip() for c in lines[0].split(",")]
    rows = lines[1:]
    table = None
    if not rows:  # loadtxt would warn that the input holds no data
        table = np.empty((0, len(header)))
    elif "\x1f" not in text:  # loadtxt strips U+001F around a number, float() does not
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape != (len(rows), len(header)):
        return _scan_columns(header, rows, blocks, path)
    return [table[:, _column_indices(header, cols, path)] for cols in blocks]


def _scan_columns(header: List[str], rows: List[str], blocks: Sequence[List[str]],
                 path: str) -> List[np.ndarray]:
    """Parse each block cell by cell, raising at the first bad row or cell."""
    fields = [row.split(",") for row in rows]
    out = []
    for cols in blocks:
        idx = _column_indices(header, cols, path)
        block = np.empty((len(fields), len(cols)))
        for i, row in enumerate(fields):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}")
            for j, k in enumerate(idx):
                try:
                    block[i, j] = float(row[k])
                except ValueError as exc:
                    raise DataError(
                        f"{path}: non-numeric value {row[k]!r} in column {cols[j]}, "
                        f"row {i + 2}"
                    ) from exc
        out.append(block)
    return out


def _column_indices(header: List[str], cols: List[str], path: str) -> List[int]:
    missing = [c for c in cols if c not in header]
    if missing:
        raise UsageError(f"columns {missing} not present in {path} header {header}")
    return [header.index(c) for c in cols]


def _fingerprint(*blocks: np.ndarray) -> str:
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _check_cols(x_cols: List[str], y_cols: List[str]) -> None:
    if len(set(x_cols)) != len(x_cols):
        raise UsageError(f"duplicate x columns in {x_cols}")
    if len(set(y_cols)) != len(y_cols):
        raise UsageError(f"duplicate y columns in {y_cols}")
    overlap = set(x_cols) & set(y_cols)
    if overlap:
        raise UsageError(f"x and y columns overlap: {sorted(overlap)}")


def _read_prediction_table(path: str, p: int, q: int) -> List[np.ndarray]:
    """The inputs x_1..x_p and the predictions yhat_1..yhat_q of a table."""
    return _read_columns(path, [f"x_{j + 1}" for j in range(p)],
                         [f"yhat_{j + 1}" for j in range(q)])


def _prediction_model(path: str, x: np.ndarray, q: int) -> NominalModel:
    table_x, table_yhat = _read_prediction_table(path, x.shape[1], q)
    if table_x.shape[0] != x.shape[0]:
        raise DataError(
            f"prediction table has {table_x.shape[0]} rows, data has {x.shape[0]}"
        )
    return table_model(table_x, table_yhat)


def _resolve_model(args, sample: JointSample) -> NominalModel:
    if args.predictions:
        return _prediction_model(args.predictions, sample.x, sample.q)
    if args.fit == "linear":
        return fit_linear(sample)
    raise UsageError("either --predictions or --fit linear is required")


# Config-file keys per command, with the defaults a flag must still hold
# for the config value to apply (flags override the file).
_CONFIG_KEYS = {
    "estimate": {
        "data": None, "x_cols": None, "y_cols": None, "predictions": None,
        "fit": None, "rif": False, "csv_out": None,
        "lam": None, "w": None, "l": None, "a0": None,
    },
    "monitor": {
        "data": None, "x_cols": None, "y_cols": None, "predictions": None,
        "fit": None, "rif": False, "window_size": None, "window_stride": None,
        "lam": None, "w": None, "l": None, "a0": None,
    },
}

# The JSON type a config value must have, as (description, Python types),
# matching what its flag parses to; keys not named here take a string.
_CONFIG_TYPES = {
    **dict.fromkeys(("lam", "w", "l", "a0"), ("a number", (int, float))),
    **dict.fromkeys(("window_size", "window_stride"), ("an integer", (int,))),
    "rif": ("true or false", (bool,)),
    **dict.fromkeys(("x_cols", "y_cols"), ("a string or a list of strings", (str, list))),
}


def _has_config_type(value, types: tuple) -> bool:
    if isinstance(value, list):
        return list in types and all(isinstance(item, str) for item in value)
    # bool is a subclass of int, so JSON true must not pass for a number
    return isinstance(value, types) and isinstance(value, bool) == (bool in types)


def _merge_config(args) -> None:
    """Fill argument values from a JSON config file; flags win."""
    defaults = _CONFIG_KEYS.get(args.command)
    if defaults is None:
        raise UsageError(f"--config is not supported by {args.command!r}")
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in raw.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        description, types = _CONFIG_TYPES.get(key, ("a string", (str,)))
        if not _has_config_type(value, types):
            raise UsageError(f"config key {key!r} must be {description}, "
                             f"got {json.dumps(value)}")
        if getattr(args, key) == defaults[key]:
            setattr(args, key, value)


# ---------------------------------------------------------------- estimate

def _column_lists(args) -> Tuple[List[str], List[str]]:
    if not args.x_cols or not args.y_cols:
        raise UsageError("--x-cols and --y-cols are required")
    x_cols = _parse_cols(args.x_cols) if isinstance(args.x_cols, str) else list(args.x_cols)
    y_cols = _parse_cols(args.y_cols) if isinstance(args.y_cols, str) else list(args.y_cols)
    return x_cols, y_cols


def _cmd_estimate(args) -> int:
    schedule = _schedule_from(args)
    if not args.data:
        raise UsageError("--data is required")
    x_cols, y_cols = _column_lists(args)
    _check_cols(x_cols, y_cols)
    x, y = _read_columns(args.data, x_cols, y_cols)
    if not len(x):
        raise DataError(f"{args.data} has a header but no data rows")
    try:
        sample = JointSample(np.hstack([x, y]), p=len(x_cols), q=len(y_cols))
        model = _resolve_model(args, sample)
    except (UsageError, DataError):
        raise
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    report = riv(sample, model, schedule)
    threshold = schedule.a(sample.n)
    decision = decide(report.emi, threshold, sample.n)
    record = {
        "command": "estimate",
        "n": sample.n,
        "p": sample.p,
        "q": sample.q,
        "riv": report.emi,
        "threshold": threshold,
        "decision": decision.value,
        "collapsed": report.collapsed,
        "leaf_count": report.leaf_count,
        "model": model.kind,
        "schedule": _schedule_echo(schedule, sample.n),
        "x_cols": x_cols,
        "y_cols": y_cols,
        "data_fingerprint": _fingerprint(x, y),
    }
    if args.rif:
        record["rif"] = [float(v) for v in rif(sample, model, schedule)]
    print(json.dumps(record))
    if args.csv_out:
        _write_record_csv(args.csv_out, record)
    return EXIT_DETECTION if decision.value else EXIT_OK


def _schedule_echo(schedule: Schedule, n: int) -> dict:
    b_n, d_n, a_n = schedule.at(n)
    return {"lambda": schedule.lam, "w": schedule.w, "l": schedule.l,
            "a0": schedule.a0, "b_n": b_n, "d_n": d_n, "a_n": a_n}


def _write_record_csv(path: str, record: dict) -> None:
    keys, values = [], []
    for key, value in record.items():
        if isinstance(value, (list, dict)):
            continue
        keys.append(key)
        values.append(f"{value:.17g}" if isinstance(value, float) else str(value))
    for j, v in enumerate(record.get("rif", [])):
        keys.append(f"rif_{j + 1}")
        values.append(f"{v:.17g}")
    try:
        Path(path).write_text(",".join(keys) + "\n" + ",".join(values) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# ------------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    delta = _parse_delta(args.delta)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    try:
        spec = SystemSpec(args.family, delta, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sample = sample_system(spec, args.n)
    lines = ["x1,x2,y"]
    for row in sample.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    try:
        Path(args.out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {sample.n} rows to {args.out}")
    print(f"nominal model: {describe_eta(spec)}")
    if spec.family in AR_FAMILIES:
        print("columns: x1 = lagged observation, x2 = exogenous input, y = observation")
    return EXIT_OK


# ------------------------------------------------------------------- sweep

def _cmd_sweep(args) -> int:
    schedule = _schedule_from(args)
    if args.full_scale:
        args.step = 0.0015
        args.seeds = ",".join(str(s) for s in range(10))
        cells = (round((args.delta_max - args.delta_min) / args.step) + 1) ** 2
        print(f"full-scale sweep: {cells} cells x 10 seeds; this can take hours",
              file=sys.stderr)
    try:
        seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
    except ValueError as exc:  # int() names the bad seed
        raise UsageError(f"bad --seeds {args.seeds!r}: {exc}") from exc
    try:
        grid = GridSpec(delta_min=args.delta_min, delta_max=args.delta_max,
                        step=args.step, seeds=tuple(seeds), n=args.n,
                        method=args.method)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    result = sweep_grid(args.family, grid, schedule)
    save_grid_result(result, args.out)
    print(f"wrote mean.csv, std.csv, meta.json to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------- bench

def _cmd_bench(args) -> int:
    schedule = _schedule_from(args)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    delta = _parse_delta(args.delta)
    try:
        spec = SystemSpec(args.family, delta, seed=args.seed)
        estimate = estimate_error_rate(spec, schedule, args.n, args.trials, args.truth)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(json.dumps({
        "command": "bench",
        "family": args.family,
        "delta": list(delta),
        "truth": args.truth,
        "kind": estimate.kind,
        "n": estimate.n,
        "trials": estimate.trials,
        "rejections": estimate.rejections,
        "rate": estimate.rate,
    }))
    return EXIT_OK


# ----------------------------------------------------------------- monitor

def _open_stream(path: str) -> TextIO:
    if path == "-":
        return sys.stdin
    try:
        return open(path, "r")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _cmd_monitor(args) -> int:
    schedule = _schedule_from(args)
    if not args.data:
        raise UsageError("--data is required")
    if args.window_size is None:
        raise UsageError("--window-size is required for monitoring")
    if args.window_size < MIN_WINDOW:
        raise UsageError(f"window size must be at least {MIN_WINDOW}")
    stride = 1 if args.window_stride is None else args.window_stride
    if stride < 1:
        raise UsageError("window stride must be at least 1")
    x_cols, y_cols = _column_lists(args)
    _check_cols(x_cols, y_cols)
    if not args.predictions and args.fit != "linear":
        raise UsageError("either --predictions or --fit linear is required")

    stream = _open_stream(args.data)
    try:
        return _monitor_loop(args, stream, schedule, x_cols, y_cols, args.window_size,
                             stride)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _monitor_loop(args, stream: TextIO, schedule: Schedule, x_cols: List[str],
                  y_cols: List[str], size: int, stride: int) -> int:
    """Emit one record per window of the last ``size`` well-formed rows.

    Rows live in a ring of ``2 * size`` rows: when it is full, the last
    ``size - 1`` rows move to its front, so memory stays bounded however
    long the stream runs. ``kept`` counts the well-formed rows so far; it
    places each window in the stream and in the prediction table.
    """
    header: Optional[List[str]] = None
    idx: List[int] = []
    p, q = len(x_cols), len(y_cols)
    try:
        ring = np.empty((2 * size, p + q))
    except MemoryError as exc:
        raise UsageError(f"window size {size} does not fit in memory") from exc
    filled = 0
    kept = 0
    malformed = 0
    seen = 0
    next_emit = size
    window_id = 0
    detected = False
    reference_model: Optional[NominalModel] = None
    table: Optional[List[np.ndarray]] = None

    for line in stream:
        line = line.strip()
        if not line:
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            missing = [c for c in x_cols + y_cols if c not in header]
            if missing:
                raise UsageError(f"columns {missing} not present in stream header")
            idx = [header.index(c) for c in x_cols + y_cols]
            if args.predictions:
                table = _read_prediction_table(args.predictions, p, q)
            continue
        seen += 1
        fields = line.split(",")
        try:
            parsed = [float(fields[k]) for k in idx]
        except (ValueError, IndexError):
            malformed += 1
            print(f"warning: skipping malformed row {seen}", file=sys.stderr)
            if malformed / seen > MALFORMED_LIMIT:
                raise DataError(
                    f"{malformed} of {seen} rows malformed, above the "
                    f"{MALFORMED_LIMIT:.0%} limit"
                )
            continue
        if filled == len(ring):
            ring[:size - 1] = ring[filled - size + 1:]
            filled = size - 1
        ring[filled] = parsed
        filled += 1
        kept += 1
        if kept < next_emit:
            continue

        start = kept - size
        # a copy: the ring overwrites these rows while the sample may live on
        window = ring[filled - size:filled].copy()
        sample = JointSample(window, p=p, q=q)
        if table is not None:
            table_x, table_yhat = table
            if kept > table_x.shape[0]:
                raise DataError("stream is longer than the prediction table")
            model = table_model(table_x[start:kept], table_yhat[start:kept])
        else:
            if reference_model is None:
                reference_model = fit_linear(sample)
            model = reference_model
        report = riv(sample, model, schedule)
        threshold = schedule.a(size)
        decision = decide(report.emi, threshold, size)
        detected = detected or bool(decision.value)
        record = {
            "window": window_id,
            "start_row": start,
            "end_row": kept,
            "n": size,
            "riv": report.emi,
            "threshold": threshold,
            "decision": decision.value,
            "collapsed": report.collapsed,
            "fingerprint": _fingerprint(window),
        }
        if args.rif:
            record["rif"] = [float(v) for v in rif(sample, model, schedule)]
        print(json.dumps(record), flush=True)
        window_id += 1
        next_emit += stride

    if header is None:
        raise DataError("stream contained no header row")
    return EXIT_DETECTION if detected else EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="rivkit",
                     description="Residual-information drift detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="one-shot estimation on a CSV file")
    est.add_argument("--data", help="CSV file with numeric x/y columns")
    est.add_argument("--x-cols", default=None, help="comma-separated input columns")
    est.add_argument("--y-cols", default=None, help="comma-separated output columns")
    est.add_argument("--predictions", default=None,
                     help="row-aligned prediction table (x_1..x_p, yhat_1..yhat_q)")
    est.add_argument("--fit", choices=["linear"], default=None,
                     help="fit a built-in nominal model instead of supplying one")
    est.add_argument("--rif", action="store_true",
                     help="also report per-input-coordinate information values")
    est.add_argument("--csv-out", default=None, help="also write the report as CSV")
    est.add_argument("--config", default=None, help="JSON config file; flags override")
    _add_schedule_flags(est)

    syn = sub.add_parser("synth", help="write a synthetic benchmark sample")
    syn.add_argument("family", choices=list(FAMILIES))
    syn.add_argument("--delta", default="0,0", help="drift pair, e.g. 0.15,0.15")
    syn.add_argument("--n", type=int, default=2000)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out", required=True, help="output CSV path")

    swp = sub.add_parser("sweep", help="drift-grid sweep of a method")
    swp.add_argument("family", choices=list(FAMILIES))
    swp.add_argument("--method", choices=["riv", "mapc", "rmse"], default="riv")
    swp.add_argument("--delta-min", type=float, default=-0.15)
    swp.add_argument("--delta-max", type=float, default=0.15)
    swp.add_argument("--step", type=float, default=0.015)
    swp.add_argument("--seeds", default="0,1,2", help="comma-separated replicate seeds")
    swp.add_argument("--n", type=int, default=2000)
    swp.add_argument("--full-scale", action="store_true",
                     help="201x201 grid with 10 seeds (slow)")
    swp.add_argument("--out", required=True, help="output directory")
    _add_schedule_flags(swp)

    mon = sub.add_parser("monitor", help="windowed monitoring of an ordered stream")
    mon.add_argument("--data", help="CSV path, or - for standard input")
    mon.add_argument("--x-cols", default=None)
    mon.add_argument("--y-cols", default=None)
    mon.add_argument("--predictions", default=None,
                     help="prediction table (x_1..x_p, yhat_1..yhat_q) with one row "
                          "per well-formed stream row; its inputs are checked")
    mon.add_argument("--fit", choices=["linear"], default=None,
                     help="fit the reference model on the first full window")
    mon.add_argument("--window-size", type=int, default=None)
    mon.add_argument("--window-stride", type=int, default=None,
                     help="rows between emitted windows (default 1)")
    mon.add_argument("--rif", action="store_true")
    mon.add_argument("--config", default=None, help="JSON config file; flags override")
    _add_schedule_flags(mon)

    ben = sub.add_parser("bench", help="Monte Carlo significance/power estimate")
    ben.add_argument("family", choices=list(FAMILIES))
    ben.add_argument("--delta", default="0,0")
    ben.add_argument("--n", type=int, default=2000)
    ben.add_argument("--trials", type=int, default=100)
    ben.add_argument("--truth", choices=["H0", "H1"], required=True)
    ben.add_argument("--seed", type=int, default=0)
    _add_schedule_flags(ben)

    return parser


_COMMANDS = {
    "estimate": _cmd_estimate,
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "monitor": _cmd_monitor,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # validation raised past the command layer concerns the data itself
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
