"""Command-line surface: tabular ingestion, estimation, synthesis, sweeps,
error-rate benchmarking, and a streaming windowed monitor.

Exit codes: 0 ran with no detection, 1 usage or configuration error,
2 a record produced fired, written or not, 3 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .detector import decide, estimate_error_rate
from .estimator import DEFAULT_A0, DEFAULT_L, DEFAULT_LAMBDA, DEFAULT_W, EmiReport, Schedule
from .harness import METHODS, GridSpec, save_grid_result, sweep_grid
from .pipeline import NominalModel, fit_linear, residuals, rif, riv, table_model
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


def _refused_as_usage(build: Callable, *args, **kwargs):
    """Call ``build``; a setting it refuses with a ValueError is a usage error, in its words."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _naming(path: str, verb: str) -> Iterator[None]:
    """Raise an OSError or UnicodeError of the block as a data error that names the file."""
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot {verb} {path}: {exc}") from exc


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
    given = {key: getattr(args, key) for key in ("lam", "w", "l", "a0")
             if getattr(args, key) is not None}
    return _refused_as_usage(Schedule, **given)


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


def _header_fields(line: str) -> List[str]:
    """The column names of a header line; a leading byte-order mark is dropped."""
    return [c.strip() for c in line.removeprefix("\ufeff").split(",")]


def _stream_lines(stream, name: str) -> Iterator[str]:
    """The non-blank lines of ``str.splitlines`` in a stream, unstripped, as
    ``_row_cells`` splits them. Each is decoded on its own, so a byte the encoding
    refuses is named by its offset in the stream, as ``Path.read_text`` does."""
    offset, encoding, errors = 0, stream.encoding, stream.errors
    with _naming(name, "read"):
        for raw in getattr(stream, "buffer", stream):  # io.StringIO holds text already
            try:
                text = raw.decode(encoding, errors) if isinstance(raw, bytes) else raw
            except UnicodeDecodeError as exc:  # the codec's words, the stream's positions
                start, end = offset + exc.start, offset + exc.end
                where = (f"byte 0x{raw[exc.start]:02x} in position {start}" if end - start == 1
                         else f"bytes in position {start}-{end - 1}")
                raise UnicodeError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")
            offset += len(raw)
            for line in text.splitlines():  # a loop: a filter() per line took 20% longer
                if line.strip():
                    yield line


def _read_table(path: str, *blocks: List[str]) -> np.ndarray:
    """The requested blocks of columns of a headed CSV file, side by side in
    one float64 array.

    Blank lines are skipped, and row numbers in errors count non-blank lines
    (the header is row 1). A file whose body is plain ASCII (see
    ``_load_plain``) is parsed by ``np.loadtxt`` from its path, so it never
    exists in memory as text. Any other file, and a plain one with a requested
    cell that is not finite, streams its lines from ``_stream_lines`` through
    ``_scan_columns``, which names the first bad row in file order or returns
    the array (a column that is not requested may then hold any text).
    """
    with _naming(path, "read"):
        loaded = _load_plain(path)
    if loaded is not None:
        header, table = loaded
        table = table[:, [k for cols in blocks for k in _column_indices(header, cols, path)]]
        if np.isfinite(table).all():  # else the text path names the first such cell
            return table
    with _naming(path, "read"), open(path) as stream:
        lines = _stream_lines(stream, path)
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path} is empty")
        return _scan_columns(_header_fields(first), lines, blocks, path)


_CHUNK = 1 << 20
_PLAIN_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7F))
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _load_plain(path: str) -> Optional[Tuple[List[str], np.ndarray]]:
    """The header and the table of a plain file, or None for the text path.

    A file is plain when its header is one line to both ``str.splitlines``
    and ``loadtxt`` and every byte after it is printable ASCII, a tab, a
    line feed or a carriage return. There the two split the same lines, and
    ``loadtxt`` strips no character around a number that ``float()`` keeps.
    A plain file that holds no data row, or that ``loadtxt`` refuses (a
    line of blanks, a cell that is not a number) or reads to a width other
    than the header's, goes to the text path too, which reports on it.
    """
    # loadtxt opens a path named like an archive as one; a pipe reads once
    if path.endswith(_COMPRESSED) or not os.path.isfile(path):
        return None
    try:
        with open(path, newline="") as fh:  # loadtxt's lines, in read_text's encoding
            offset = 0
            for skip, line in enumerate(fh, 1):
                offset += len(line.encode(fh.encoding))
                if line.strip():
                    break
            else:
                return None
    except UnicodeDecodeError:
        return None
    if len(line.splitlines()) != 1:
        return None
    rows = False
    with open(path, "rb") as fh:
        fh.seek(offset)
        while chunk := fh.read(_CHUNK):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            rows = rows or bool(chunk.strip())
    if not rows:  # loadtxt would warn that it read no data
        return None
    try:
        table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError:
        return None
    header = _header_fields(line)
    return (header, table) if table.shape[1] == len(header) else None


def _scan_columns(header: List[str], rows: Iterable[str], blocks: Sequence[List[str]],
                 path: str) -> np.ndarray:
    """Resolve every block's columns, then parse the rows in file order."""
    idx = [k for cols in blocks for k in _column_indices(header, cols, path)]
    cells = (cell for row, line in enumerate(rows, 2)
             for cell in _row_cells(line, header, idx, row, path))
    return np.fromiter(cells, np.float64).reshape(-1, len(idx))


def _row_cells(line: str, header: List[str], idx: List[int], row: int, path: str) -> List[float]:
    """The cells ``idx`` of file row ``row`` as ``float()`` reads them, or a
    data error for a wrong field count or a cell that is not a finite number."""
    fields = line.split(",")
    if len(fields) != len(header):
        raise DataError(f"{path}: row {row} has {len(fields)} fields, expected {len(header)}")
    cells = []
    for k in idx:
        try:
            value = float(fields[k])
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric value {fields[k]!r} in column "
                            f"{header[k]}, row {row}") from exc
        if not math.isfinite(value):
            raise DataError(f"{path}: non-finite value {fields[k]!r} in column "
                            f"{header[k]}, row {row}")
        cells.append(value)
    return cells


def _column_indices(header: List[str], cols: List[str], path: str) -> List[int]:
    missing = [c for c in cols if c not in header]
    if missing:
        raise UsageError(f"columns {missing} not present in {path} header {header}")
    repeated = [c for c in cols if header.count(c) > 1]
    if repeated:  # no flag can pick the intended copy
        raise DataError(f"columns {repeated} appear more than once in {path} header {header}")
    return [header.index(c) for c in cols]


def _fingerprint(*blocks: np.ndarray) -> str:
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(np.ascontiguousarray(block, dtype=np.float64))
    return digest.hexdigest()


def _read_prediction_table(path: str, p: int, q: int) -> np.ndarray:
    """The inputs x_1..x_p and then the predictions yhat_1..yhat_q of a table."""
    return _read_table(path, [f"x_{j + 1}" for j in range(p)],
                       [f"yhat_{j + 1}" for j in range(q)])


def _resolve_model(args, sample: JointSample) -> NominalModel:
    """The prediction table's model of the sample's rows, or a linear fit."""
    if not args.predictions:
        return fit_linear(sample)
    table = _read_prediction_table(args.predictions, sample.p, sample.q)
    if len(table) != sample.n:
        raise DataError(f"prediction table has {len(table)} rows, data has {sample.n}")
    return table_model(table[:, :sample.p], table[:, sample.p:])


def _config_type(action: argparse.Action) -> Tuple[str, tuple]:
    """The JSON type a config value must have, as (description, Python types),
    matching what its flag parses to."""
    if action.dest in ("x_cols", "y_cols"):
        return "a string or a list of strings", (str, list)
    if isinstance(action, argparse._StoreTrueAction):
        return "true or false", (bool,)
    if action.type is float:
        return "a number", (int, float)
    if action.type is int:
        return "an integer", (int,)
    return "a string", (str,)


def _has_config_type(value, types: tuple) -> bool:
    if isinstance(value, list):
        return list in types and all(isinstance(item, str) for item in value)
    # bool is a subclass of int, so JSON true must not pass for a number
    return isinstance(value, types) and isinstance(value, bool) == (bool in types)


def _merge_config(args, parser: argparse.ArgumentParser) -> None:
    """Fill argument values from a JSON config file keyed by the command's
    flag destinations; a value applies while its flag holds its default."""
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in commands[args.command]._actions
               if a.dest not in ("help", "config")}
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in raw.items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        description, types = _config_type(actions[key])
        if not _has_config_type(value, types):
            raise UsageError(f"config key {key!r} must be {description}, "
                             f"got {json.dumps(value)}")
        if getattr(args, key) == actions[key].default:
            setattr(args, key, value)


# ----------------------------------------------------- estimate and monitor

def _reading_columns(args) -> Tuple[List[str], List[str]]:
    """The x and y column names, each list free of repeats and of the other's.

    It also checks that --data and a model source are given, so that a usage
    error is reported before any data is read.
    """
    if not args.data:
        raise UsageError("--data is required")
    if not args.x_cols or not args.y_cols:
        raise UsageError("--x-cols and --y-cols are required")
    x_cols, y_cols = (_parse_cols(cols) if isinstance(cols, str) else list(cols)
                      for cols in (args.x_cols, args.y_cols))
    for name, cols in (("x", x_cols), ("y", y_cols)):
        if len(set(cols)) != len(cols):
            raise UsageError(f"duplicate {name} columns in {cols}")
    overlap = set(x_cols) & set(y_cols)
    if overlap:
        raise UsageError(f"x and y columns overlap: {sorted(overlap)}")
    if not args.predictions and args.fit != "linear":
        raise UsageError("either --predictions or --fit linear is required")
    return x_cols, y_cols


def _reading(residual: JointSample, schedule: Schedule, with_rif: bool, lead: dict,
             tail: Callable[[EmiReport], dict]) -> dict:
    """The record of one reading of a residual sample: the ``lead`` fields, then
    riv, threshold, decision and collapsed, then ``tail(report)``, then rif if
    asked. riv and every rif entry read the one residual sample given."""
    report = riv(residual, None, schedule)
    threshold = schedule.a(residual.n)
    decision = decide(report.emi, threshold, residual.n)
    record = {**lead, "riv": report.emi, "threshold": threshold,
              "decision": decision.value, "collapsed": report.collapsed, **tail(report)}
    if with_rif:
        record["rif"] = [float(v) for v in rif(residual, None, schedule)]
    return record


def _estimate_residuals(args, x_cols: List[str],
                        y_cols: List[str]) -> Tuple[JointSample, str, str]:
    """The residual sample of ``--data`` against its model, the model's kind and
    the data's fingerprint. The data and the model go out of scope when it
    returns, so the grows that follow hold the residual sample alone."""
    data = _read_table(args.data, x_cols, y_cols)
    if not len(data):
        raise DataError(f"{args.data} has a header but no data rows")
    sample = JointSample(data, p=len(x_cols), q=len(y_cols))
    fingerprint = _fingerprint(sample.x, sample.response)
    model = _resolve_model(args, sample)
    return residuals(sample, model), model.kind, fingerprint


def _cmd_estimate(args) -> Iterator[dict]:
    schedule = _schedule_from(args)
    x_cols, y_cols = _reading_columns(args)
    residual, kind, fingerprint = _estimate_residuals(args, x_cols, y_cols)
    n = residual.n
    record = _reading(residual, schedule, args.rif,
                      {"command": "estimate", "n": n, "p": residual.p, "q": residual.q},
                      lambda report: {"leaf_count": report.leaf_count, "model": kind,
                                      "schedule": _schedule_echo(schedule, n),
                                      "x_cols": x_cols, "y_cols": y_cols,
                                      "data_fingerprint": fingerprint})
    if args.csv_out:
        _write_record_csv(args.csv_out, record)
    yield record


def _schedule_echo(schedule: Schedule, n: int) -> dict:
    b_n, d_n, a_n = schedule.at(n)
    return {"lambda": schedule.lam, "w": schedule.w, "l": schedule.l,
            "a0": schedule.a0, "b_n": b_n, "d_n": d_n, "a_n": a_n}


def _write_record_csv(path: str, record: dict) -> None:
    flat = {key: value for key, value in record.items() if not isinstance(value, (list, dict))}
    flat.update((f"rif_{j + 1}", v) for j, v in enumerate(record.get("rif", [])))
    values = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in flat.values())
    with _naming(path, "write"):
        Path(path).write_text(",".join(flat) + "\n" + ",".join(values) + "\n")


# ------------------------------------------------------------------- synth

def _check_seed(flag: str, seed: int) -> None:
    # SystemSpec and GridSpec refuse a negative seed too, but name no flag
    if seed < 0:
        raise UsageError(f"{flag} takes non-negative integers, got {seed}")


def _cmd_synth(args) -> Iterator[str]:
    delta = _parse_delta(args.delta)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    _check_seed("--seed", args.seed)
    spec = _refused_as_usage(SystemSpec, args.family, delta, seed=args.seed)
    sample = sample_system(spec, args.n)
    # a handle, not a path: savetxt would gzip a path ending in .gz
    with _naming(args.out, "write"), open(args.out, "w") as fh:
        np.savetxt(fh, sample.data, fmt="%.17g", delimiter=",", header="x1,x2,y", comments="")
    yield f"wrote {sample.n} rows to {args.out}"
    yield f"nominal model: {describe_eta(spec)}"
    if spec.family in AR_FAMILIES:
        yield "columns: x1 = lagged observation, x2 = exogenous input, y = observation"


# ------------------------------------------------------------------- sweep

def _cmd_sweep(args) -> Iterator[str]:
    schedule = _schedule_from(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    except ValueError as exc:  # int() names the bad seed
        raise UsageError(f"bad --seeds {args.seeds!r}: {exc}") from exc
    for seed in seeds:
        _check_seed("--seeds", seed)
    grid = _refused_as_usage(GridSpec, delta_min=args.delta_min, delta_max=args.delta_max,
                             step=args.step, seeds=tuple(seeds), n=args.n, method=args.method)
    with _naming(args.out, "write"):  # an --out that cannot be made is refused before the grid runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
        save_grid_result(sweep_grid(args.family, grid, schedule), args.out)
    yield f"wrote mean.csv, std.csv, meta.json to {args.out}"


# ------------------------------------------------------------------- bench

def _cmd_bench(args) -> Iterator[dict]:
    schedule = _schedule_from(args)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    delta = _parse_delta(args.delta)
    _check_seed("--seed", args.seed)
    spec = _refused_as_usage(SystemSpec, args.family, delta, seed=args.seed)
    if (spec.delta != (0.0, 0.0)) == (args.truth == "H0"):
        raise UsageError(f"delta {spec.delta} is inconsistent with {args.truth}")
    estimate = estimate_error_rate(spec, schedule, args.n, args.trials)
    yield {
        "command": "bench",
        "family": args.family,
        "delta": list(delta),
        "truth": args.truth,
        "kind": estimate.kind,
        "n": estimate.n,
        "trials": estimate.trials,
        "rejections": estimate.rejections,
        "rate": estimate.rate,
    }


# ----------------------------------------------------------------- monitor

def _cmd_monitor(args) -> Iterator[dict]:
    """Yield one record per window of the last ``size`` well-formed rows.

    Well-formed row ``kept`` (from 0) goes to ``ring[kept % size]``, so memory
    stays bounded. After ``kept`` rows the window from row ``kept - size`` is
    due when that start is a multiple of the stride; the count alone places
    each window in the stream, the prediction table and the output.
    """
    schedule = _schedule_from(args)
    x_cols, y_cols = _reading_columns(args)
    size = args.window_size
    if size is None:
        raise UsageError("--window-size is required for monitoring")
    if size < MIN_WINDOW:
        raise UsageError(f"window size must be at least {MIN_WINDOW}")
    stride = 1 if args.window_stride is None else args.window_stride
    if stride < 1:
        raise UsageError("window stride must be at least 1")
    p, q = len(x_cols), len(y_cols)
    with _naming(args.data, "read"):  # stdin is never closed, a file always is
        source = contextlib.nullcontext(sys.stdin) if args.data == "-" else open(args.data)
    with source as stream:
        try:
            ring = np.empty((size, p + q))
        except (MemoryError, ValueError) as exc:  # numpy refuses a size it cannot describe
            raise UsageError(f"window size {size} does not fit in memory") from exc
        lines = _stream_lines(stream, args.data)
        first = next(lines, None)
        if first is None:
            raise DataError("stream contained no header row")
        header = _header_fields(first)
        idx = _column_indices(header, x_cols + y_cols, "stream")
        table = _read_prediction_table(args.predictions, p, q) if args.predictions else None
        kept = malformed = seen = 0
        model: Optional[NominalModel] = None
        for line in lines:
            seen += 1
            try:
                ring[kept % size] = _row_cells(line, header, idx, seen + 1, "stream")
            except DataError:
                malformed += 1
                print(f"warning: skipping malformed row {seen + 1}", file=sys.stderr)
                if malformed / seen > MALFORMED_LIMIT:
                    raise DataError(f"{malformed} of {seen} rows malformed, above the "
                                    f"{MALFORMED_LIMIT:.0%} limit")
                continue
            kept += 1
            if table is not None and kept > len(table):
                raise DataError("stream is longer than the prediction table")
            start = kept - size
            if start < 0 or start % stride:
                continue
            # a copy in stream order: the ring overwrites these rows while
            # the sample may live on
            window = np.concatenate((ring[kept % size:], ring[:kept % size]))
            sample = JointSample(window, p=p, q=q)
            if table is not None:
                model = table_model(table[start:kept, :p], table[start:kept, p:])
            elif model is None:  # the reference model: a fit on the first window
                model = fit_linear(sample)
            yield _reading(residuals(sample, model), schedule, args.rif,
                           {"window": start // stride, "start_row": start,
                            "end_row": kept, "n": size},
                           lambda report: {"fingerprint": _fingerprint(window)})
    if kept < size:
        raise DataError(f"stream has {kept} well-formed rows, fewer than the window size {size}")


# -------------------------------------------------------------------- main

def build_parser() -> _Parser:
    # argparse builds a formatter for every argument it adds, and by default
    # each one reads the terminal width; here every parser shares one width
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="rivkit", formatter_class=formatter,
                     description="Residual-information drift detection toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subparsers.add_parser, formatter_class=formatter)

    est = add_parser("estimate", help="one-shot estimation on a CSV file")
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

    syn = add_parser("synth", help="write a synthetic benchmark sample")
    syn.add_argument("family", choices=list(FAMILIES))
    syn.add_argument("--delta", default="0,0", help="drift pair, e.g. 0.15,0.15")
    syn.add_argument("--n", type=int, default=2000)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out", required=True, help="output CSV path")

    swp = add_parser("sweep", help="drift-grid sweep of a method")
    swp.add_argument("family", choices=list(FAMILIES))
    swp.add_argument("--method", choices=METHODS, default="riv")
    swp.add_argument("--delta-min", type=float, default=-0.15)
    swp.add_argument("--delta-max", type=float, default=0.15)
    swp.add_argument("--step", type=float, default=0.015)
    swp.add_argument("--seeds", default="0,1,2", help="comma-separated replicate seeds")
    swp.add_argument("--n", type=int, default=2000)
    swp.add_argument("--out", required=True, help="output directory")
    _add_schedule_flags(swp)

    mon = add_parser("monitor", help="windowed monitoring of an ordered stream")
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

    ben = add_parser("bench", help="Monte Carlo significance/power estimate")
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
    """Run one command as the one writer to stdout: print and flush each line it
    yields (a dict as JSON), and stop quietly, code kept, once the reader goes."""
    parser = build_parser()
    code = EXIT_OK
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _merge_config(args, parser)
        with contextlib.closing(_COMMANDS[args.command](args)) as lines:  # closes its files
            for line in lines:
                if isinstance(line, dict) and line.get("decision"):
                    code = EXIT_DETECTION
                print(json.dumps(line) if isinstance(line, dict) else line, flush=True)
    except BrokenPipeError:  # the exit flush must not fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:
        # a ValueError raised past the command layer concerns the data itself
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
