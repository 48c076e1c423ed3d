import errno
import gc
import hashlib
import io
import json
import os
import select
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rivkit import (JointSample, NominalModel, Schedule, SystemSpec, fit_linear, riv,
                    sample_forward)
from rivkit import cli
from rivkit.cli import main
from rivkit.systems import eta_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth(capsys, path, family="linear", delta="0,0", n=2000, seed=0):
    code, out, _ = run_cli(
        capsys, "synth", family, "--delta", delta, "--n", str(n),
        "--seed", str(seed), "--out", str(path),
    )
    assert code == 0
    return out


def write_predictions(path, x, model_spec):
    eta = eta_values(model_spec, x)
    lines = ["x_1,x_2,yhat_1"]
    for (x1, x2), value in zip(x, eta):
        lines.append(f"{x1:.17g},{x2:.17g},{value:.17g}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------- synth

def test_synth_is_byte_deterministic(tmp_path, capsys):
    out = synth(capsys, tmp_path / "a.csv", n=50, seed=7)
    assert "eta(u, s)" in out
    synth(capsys, tmp_path / "b.csv", n=50, seed=7)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_synth_output_round_trips_exactly(tmp_path, capsys):
    path = tmp_path / "lin.csv"
    synth(capsys, path, n=100, seed=3)
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    generated = sample_forward(SystemSpec("linear", (0.0, 0.0), seed=3), 100)
    assert np.array_equal(parsed, generated.data)


def test_synth_names_the_ar_column_convention(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "synth", "narx", "--n", "20", "--seed", "1",
        "--out", str(tmp_path / "narx.csv"),
    )
    assert code == 0
    assert "lagged observation" in out
    header = (tmp_path / "narx.csv").read_text().splitlines()[0]
    assert header == "x1,x2,y"


# ------------------------------------------------------------------- estimate

def test_estimate_accepts_the_nominal_file(tmp_path, capsys):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=2000, seed=0)
    code, out, _ = run_cli(
        capsys, "estimate", "--data", str(path),
        "--x-cols", "x1,x2", "--y-cols", "y", "--fit", "linear",
    )
    record = json.loads(out)
    assert code == 0
    assert record["riv"] == 0.0
    assert record["decision"] == 0
    assert record["collapsed"] is True


def test_estimate_detects_drift_against_a_prediction_table(tmp_path, capsys):
    data = tmp_path / "h1.csv"
    synth(capsys, data, delta="0.15,0.15", n=2000, seed=1)
    sample = sample_forward(SystemSpec("linear", (0.15, 0.15), seed=1), 2000)
    write_predictions(tmp_path / "pred.csv", sample.x, SystemSpec("linear", (0.0, 0.0)))
    code, out, _ = run_cli(
        capsys, "estimate", "--data", str(data), "--x-cols", "x1,x2",
        "--y-cols", "y", "--predictions", str(tmp_path / "pred.csv"), "--rif",
    )
    record = json.loads(out)
    assert code == 2
    assert record["decision"] == 1
    assert record["riv"] >= record["threshold"]
    assert len(record["rif"]) == 2


def test_estimate_on_shuffled_output_accepts(tmp_path, capsys):
    data = tmp_path / "h1.csv"
    synth(capsys, data, delta="0.15,0.15", n=2000, seed=2)
    rows = data.read_text().splitlines()
    header, body = rows[0], [line.split(",") for line in rows[1:]]
    rng = np.random.default_rng(0)
    shuffled_y = [body[i][2] for i in rng.permutation(len(body))]
    lines = [header] + [
        ",".join([row[0], row[1], y]) for row, y in zip(body, shuffled_y)
    ]
    data.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--data", str(data),
        "--x-cols", "x1,x2", "--y-cols", "y", "--fit", "linear",
    )
    assert code == 0
    assert json.loads(out)["decision"] == 0


def test_estimate_rejects_duplicate_and_missing_columns(tmp_path, capsys):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=100)
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(path),
        "--x-cols", "x1,x1", "--y-cols", "y", "--fit", "linear",
    )
    assert code == 1 and "duplicate" in err
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(path),
        "--x-cols", "x1,x9", "--y-cols", "y", "--fit", "linear",
    )
    assert code == 1 and "x9" in err
    code, out, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x9", "--y-cols", "y",
        "--fit", "linear", "--window-size", "16",
    )
    assert (code, out) == (1, "")
    assert err == "error: columns ['x9'] not present in stream header ['x1', 'x2', 'y']\n"


@pytest.mark.parametrize("command, extra, source", [
    ("estimate", (), "{path}"),
    ("monitor", ("--window-size", "16"), "stream"),
], ids=["estimate", "monitor"])
def test_a_requested_column_that_the_header_names_twice_is_a_data_error(
        tmp_path, capsys, command, extra, source):
    path = tmp_path / "twice.csv"
    rows = np.random.default_rng(5).normal(size=(40, 4))
    path.write_text("x,x,u,y\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    argv = (command, "--data", str(path), "--y-cols", "y", "--fit", "linear", *extra)
    header = "['x', 'x', 'u', 'y']"
    assert run_cli(capsys, *argv, "--x-cols", "x") == (
        3, "", f"data error: columns ['x'] appear more than once in "
               f"{source.format(path=path)} header {header}\n")
    code, out, err = run_cli(capsys, *argv, "--x-cols", "u")  # a repeat left unread is fine
    assert code in (0, 2) and out and err == ""


def test_estimate_reports_the_offending_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1,2,3\n4,oops,6\n")
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(path),
        "--x-cols", "x1,x2", "--y-cols", "y", "--fit", "linear",
    )
    assert code == 3
    assert "row 3" in err and "oops" in err


def test_estimate_rejects_misaligned_prediction_tables(tmp_path, capsys):
    data = tmp_path / "d.csv"
    synth(capsys, data, n=50, seed=4)
    sample = sample_forward(SystemSpec("linear", (0.0, 0.0), seed=4), 40)
    write_predictions(tmp_path / "p.csv", sample.x, SystemSpec("linear"))
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(data), "--x-cols", "x1,x2",
        "--y-cols", "y", "--predictions", str(tmp_path / "p.csv"),
    )
    assert code == 3 and "rows" in err


def test_estimate_requires_a_model_source(tmp_path, capsys):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=64)
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
    )
    assert code == 1 and "--fit" in err


@pytest.mark.parametrize("command", ["estimate", "monitor"])
def test_a_missing_model_source_is_reported_before_any_data_is_read(tmp_path, capsys,
                                                                     command):
    code, out, err = run_cli(capsys, command, "--data", str(tmp_path / "absent.csv"),
                             "--x-cols", "x1,x2", "--y-cols", "y")
    assert (code, out, err) == (1, "", "error: either --predictions or --fit linear "
                                       "is required\n")


def test_estimate_csv_report(tmp_path, capsys):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=1024, seed=5)
    report = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--y-cols", "y", "--fit", "linear", "--csv-out", str(report),
    )
    assert code == 0
    header, row = report.read_text().splitlines()
    assert header.split(",")[:2] == ["command", "n"]
    assert row.split(",")[1] == "1024"


def test_an_estimate_with_rif_holds_under_four_times_its_sample(tmp_path, capsys):
    n = 50_000
    data, pred = tmp_path / "h1.csv", tmp_path / "pred.csv"
    synth(capsys, data, delta="0.15,0.15", n=n, seed=6)
    sample = sample_forward(SystemSpec("linear", (0.15, 0.15), seed=6), n)
    write_predictions(pred, sample.x, SystemSpec("linear", (0.0, 0.0)))
    argv = ["estimate", "--data", str(data), "--x-cols", "x1,x2", "--y-cols", "y",
            "--predictions", str(pred), "--rif"]
    expected = run_cli(capsys, *argv)  # a first call warms numpy up
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == expected and code == 2
    # x, y, their hstack and a residual sample built twice took about 6.9x
    assert peak <= 4 * sample.data.nbytes + 2**20, (peak, sample.data.nbytes)


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=1024, seed=6)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": str(path), "x_cols": ["x1", "x2"], "y_cols": ["y"], "fit": "linear",
        "a0": 123.0,
    }))
    code, out, _ = run_cli(capsys, "estimate", "--config", str(config), "--a0", "0.1")
    record = json.loads(out)
    assert code == 0
    assert record["schedule"]["a0"] == 0.1  # flag wins over config
    code, out, _ = run_cli(capsys, "estimate", "--config", str(config))
    assert json.loads(out)["schedule"]["a0"] == 123.0
    config.write_text(json.dumps({"mystery": 1}))
    code, _, err = run_cli(capsys, "estimate", "--config", str(config))
    assert code == 1 and "mystery" in err


SCHEDULE_FLAGS = ("--lambda", "0.5", "--w", "0.2", "--l", "0.1", "--a0", "0.3")
EVERY_FLAG = {
    "estimate": ("--data", "d.csv", "--x-cols", "x1,x2", "--y-cols", "y", "--predictions",
                 "p.csv", "--fit", "linear", "--rif", "--csv-out", "o.csv", *SCHEDULE_FLAGS),
    "monitor": ("--data", "-", "--x-cols", "x1", "--y-cols", "y", "--predictions", "p.csv",
                "--fit", "linear", "--window-size", "64", "--window-stride", "2", "--rif",
                *SCHEDULE_FLAGS),
}


@pytest.mark.parametrize("command, foreign_key, value", [
    ("estimate", "window_size", 64),
    ("monitor", "csv_out", "o.csv"),
])
def test_every_flag_destination_is_a_config_key(tmp_path, capsys, command, foreign_key,
                                                value):
    # JSON null is not a config value, so a None default cannot be written
    # out; every destination instead carries the value its flag parses to
    parser = cli.build_parser()
    defaults = vars(parser.parse_args([command]))
    flagged = vars(parser.parse_args([command, *EVERY_FLAG[command]]))
    config = {key: flagged[key] for key in defaults if key not in ("command", "config")}
    assert all(config[key] != defaults[key] for key in config)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    merged = parser.parse_args([command, "--config", str(path)])
    cli._merge_config(merged, parser)
    assert vars(merged) == {**flagged, "config": str(path)}
    for key, entry in ((foreign_key, value), ("config", "run.json"), ("help", True)):
        path.write_text(json.dumps({key: entry}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out, err) == (1, "", f"error: unknown config key {key!r}\n")


def test_the_removed_full_scale_sweep_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sweep", "linear", "--out", str(tmp_path),
                             "--full-scale")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --full-scale" in err


@pytest.mark.parametrize("entry, expected", [
    pytest.param({"lam": "0.1"}, "'lam' must be a number, got \"0.1\"", id="number"),
    pytest.param({"a0": True}, "'a0' must be a number, got true", id="number-not-bool"),
    pytest.param({"window_size": "64"}, "'window_size' must be an integer, got \"64\"",
                 id="integer"),
    pytest.param({"window_size": 64.5}, "'window_size' must be an integer, got 64.5",
                 id="integer-not-float"),
    pytest.param({"rif": 1}, "'rif' must be true or false, got 1", id="boolean"),
    pytest.param({"x_cols": ["x1", 2]},
                 "'x_cols' must be a string or a list of strings, got [\"x1\", 2]",
                 id="column-list"),
])
def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys, entry, expected):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entry))
    code, out, err = run_cli(capsys, "monitor", "--config", str(config))
    assert code == 1 and out == ""
    assert err == f"error: config key {expected}\n"


def test_the_removed_bias_correction_switch_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"no_debias": True}))
    for command in ("estimate", "monitor"):
        code, _, err = run_cli(capsys, command, "--no-debias")
        assert code == 1 and "unrecognized arguments: --no-debias" in err
        code, _, err = run_cli(capsys, command, "--config", str(config))
        assert code == 1 and err == "error: unknown config key 'no_debias'\n"


# ----------------------------------------------------------------- csv reader

def estimate_argv(path):
    return ("estimate", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
            "--fit", "linear")


def test_header_only_file_is_a_data_error_with_nothing_from_numpy(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2,y\n\n")
    code, out, err = run_cli(capsys, *estimate_argv(path))
    assert code == 3 and out == ""
    assert err == f"data error: {path} has a header but no data rows\n"


def test_reader_returns_a_single_data_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x1,x2,y\n1.5,-2,3e-3\n")
    table = cli._read_table(str(path), ["x1", "x2"], ["y"])
    assert table.tolist() == [[1.5, -2.0, 3e-3]]


def test_the_first_bad_cell_in_file_order_is_reported(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1,2,bad\n3,oops,4\n")  # a y cell before an x cell
    code, _, err = run_cli(capsys, *estimate_argv(path))
    assert code == 3 and err.endswith(": non-numeric value 'bad' in column y, row 2\n")


def test_reader_keeps_what_float_accepts_and_rejects(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("x1,label,x2,y\n1_000, a ,\u0661,2\n\n  \n4,b,5 , 6\n")
    table = cli._read_table(str(path), ["x1", "x2"], ["y"])
    assert table.tolist() == [[1000.0, 1.0, 2.0], [4.0, 5.0, 6.0]]
    path.write_text("x1,x2,y\n1,2,3\n4,5\x1f,6\n")  # loadtxt would strip U+001F
    with pytest.raises(cli.DataError) as caught:
        cli._read_table(str(path), ["x1", "x2"], ["y"])
    assert str(caught.value).endswith("non-numeric value '5\\x1f' in column x2, row 3")


@pytest.mark.parametrize("raw", [
    b"a,b\r1,2\r3,4\r",  # carriage returns alone end lines
    b"a,b\r\n1,2\r\n3,4\r\n",
    b"\n \n\t\na,b\n1,2\n3,4\n",  # blank lines before the header
    b"a,b\n1,2\n \t \n3,4\n",  # a line of whitespace
    b"a,b\n1,2\n\x1c\n3,4\n",  # a line holding only a separator character
])
def test_reader_skips_blank_lines_at_every_line_ending(tmp_path, raw):
    path = tmp_path / "lines.csv"
    path.write_bytes(raw)
    table = cli._read_table(str(path), ["a"], ["b"])
    assert table.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_a_form_feed_inside_a_row_ends_that_line(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_bytes(b"a,b\n1,2\n3,\x0c4\n")  # "3," and "4" are two lines, so b is not 4
    with pytest.raises(cli.DataError) as caught:
        cli._read_table(str(path), ["a"], ["b"])
    assert str(caught.value).endswith("non-numeric value '' in column b, row 3")


def test_a_byte_that_is_not_utf8_is_a_data_error_in_any_column(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x1,x2,label,y\n1,2,caf\xe9,3\n4,5,tea,6\n")
    code, out, err = run_cli(capsys, *estimate_argv(path))
    assert code == 3 and out == ""
    assert err == (f"data error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 "
                   "in position 21: invalid continuation byte\n")


def test_a_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, capsys):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=300, seed=9)
    expected = run_cli(capsys, *estimate_argv(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli(capsys, *estimate_argv(path)) == expected
    path.write_bytes(path.read_bytes() + "\u3000\n".encode())  # read as text
    assert run_cli(capsys, *estimate_argv(path)) == expected


def test_the_plain_path_takes_only_files_both_readers_split_alike(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK", 3)  # the body is checked in many chunks
    path = tmp_path / "lines.csv"
    for raw in (b"\xef\xbb\xbfa,b\r\n1,2\r\n\r\n3,4\r\n", b"\r\r\na,b\r1,2\r\r\n3,4\r",
                " \u3000\n\x0c\x1c\na,b\n1,2\n3,4".encode()):  # lines of blanks to str.strip
        path.write_bytes(raw)
        header, table = cli._load_plain(str(path))
        assert header == ["a", "b"] and table.tolist() == [[1.0, 2.0], [3.0, 4.0]], raw
    path.write_bytes("a,b \u00b0C\n1,2\n".encode())  # a header may hold any text
    header, table = cli._load_plain(str(path))
    assert header == ["a", "b \u00b0C"] and table.tolist() == [[1.0, 2.0]]
    for raw in (b"a,b\n1,\xc3\xa92\n", b"a,b\n1,2\x0c\n", b"a,b\n\xef\xbb\xbf1,2\n",
                b"a\x0cb,c\n1,2\n", b"a,b\xff\n1,2\n", b"a,b\n", b"a,b\n1,2,3\n"):
        path.write_bytes(raw)
        assert cli._load_plain(str(path)) is None, raw


def test_a_plain_file_named_like_an_archive_is_read_as_text(tmp_path):
    path = tmp_path / "table.csv.gz"  # loadtxt would try to decompress it
    path.write_text("a,b\n1,2\n")
    table = cli._read_table(str(path), ["a"], ["b"])
    assert table.tolist() == [[1.0, 2.0]]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_is_read_once(tmp_path):
    read_end, write_end = os.pipe()  # as a shell passes <(zcat table.csv.gz)
    os.write(write_end, b"a,b\n1,2\n")
    os.close(write_end)
    try:
        table = cli._read_table(f"/dev/fd/{read_end}", ["a"], ["b"])
    finally:
        os.close(read_end)
    assert table.tolist() == [[1.0, 2.0]]


def test_reading_a_plain_file_holds_about_twice_the_arrays_it_returns(tmp_path):
    path = tmp_path / "wide.csv"
    table = np.random.default_rng(3).standard_normal((50_000, 3))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    cols = (["a", "b"], ["c"])
    cli._read_table(str(path), *cols)  # a first call warms numpy up
    gc.collect()
    tracemalloc.start()
    try:
        read = cli._read_table(str(path), *cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read, table)
    returned = read.nbytes
    # holding the text and its list of lines took about 9.7x
    assert peak <= 2 * returned + 2**20, (peak, returned)


def test_scanning_a_file_cell_by_cell_holds_under_five_times_its_bytes(tmp_path):
    path = tmp_path / "labelled.csv"
    table = np.random.default_rng(4).standard_normal((5000, 3))
    path.write_text("a,b,c,label\n" + "".join(f"{a!r},{b!r},{c!r},café\n"
                                              for a, b, c in table.tolist()))
    cols = (["a", "b"], ["c"])
    cli._read_table(str(path), *cols)  # a first call warms numpy up
    gc.collect()
    tracemalloc.start()
    try:
        read = cli._read_table(str(path), *cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read, table)
    # a list of every row's fields, split before any was parsed, took about 10.5x
    assert peak <= 5 * path.stat().st_size, (peak, path.stat().st_size)


def test_streaming_a_text_file_holds_about_twice_the_array_it_returns(tmp_path):
    table = np.random.default_rng(5).standard_normal((50_000, 3))
    cols = (["a", "b"], ["c"])
    for end in ("\n", "\r"):
        path = tmp_path / "labelled.csv"
        path.write_text(f"a,b,c,label{end}" + "".join(f"{a!r},{b!r},{c!r},café{end}"
                                                    for a, b, c in table.tolist()))
        cli._read_table(str(path), *cols)  # a first call warms numpy up
        gc.collect()
        tracemalloc.start()
        try:
            read = cli._read_table(str(path), *cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read, table)
        # the whole decoded text and a list of its lines took about 9.5x; lone
        # CRs, split at line feeds alone, were one line that took about 12x
        assert peak <= 2 * read.nbytes + 2**20, (end, peak, read.nbytes)


def test_numeric_file_never_reaches_the_cell_scan(tmp_path, capsys, monkeypatch):
    data = tmp_path / "h1.csv"
    synth(capsys, data, delta="0.15,0.15", n=500, seed=8)
    sample = sample_forward(SystemSpec("linear", (0.15, 0.15), seed=8), 500)
    write_predictions(tmp_path / "pred.csv", sample.x, SystemSpec("linear"))

    def refuse(*args):
        raise AssertionError("a numeric file was scanned cell by cell")

    monkeypatch.setattr(cli, "_scan_columns", refuse)
    argv = ("estimate", "--data", str(data), "--x-cols", "x1,x2", "--y-cols", "y",
            "--predictions", str(tmp_path / "pred.csv"))
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 2) and json.loads(out)["n"] == 500
    for path in (data, tmp_path / "pred.csv"):  # the same files with \r\n line ends
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert run_cli(capsys, *argv) == (code, out, "")


# -------------------------------------------------------------------- monitor

def stream_file(tmp_path, segments):
    rows = np.vstack([s.data for s in segments])
    path = tmp_path / "stream.csv"
    lines = ["x1,x2,y"] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path, rows


def test_monitor_stays_quiet_on_nominal_windows(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=12)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 2304)])
    write_predictions(tmp_path / "pred.csv", rows[:, :2], spec)
    code, out, _ = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"),
        "--window-size", "768", "--window-stride", "768",
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [r["decision"] for r in records] == [0, 0, 0]
    assert [r["window"] for r in records] == [0, 1, 2]
    assert records[1]["start_row"] == 768 and records[1]["end_row"] == 1536


def test_monitor_raises_the_alarm_after_drift_injection(tmp_path, capsys):
    healthy = sample_forward(SystemSpec("linear", (0.0, 0.0), seed=13), 1536)
    drifted = sample_forward(SystemSpec("linear", (0.15, 0.15), seed=14), 1536)
    path, rows = stream_file(tmp_path, [healthy, drifted])
    write_predictions(tmp_path / "pred.csv", rows[:, :2], SystemSpec("linear"))
    code, out, _ = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"),
        "--window-size", "768", "--window-stride", "768",
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [r["decision"] for r in records] == [0, 0, 1, 1]


def test_monitor_rejects_small_windows(tmp_path, capsys):
    spec = SystemSpec("linear", seed=1)
    path, _ = stream_file(tmp_path, [sample_forward(spec, 64)])
    code, _, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", "--window-size", "8",
    )
    assert code == 1 and "at least 16" in err


def test_monitor_is_deterministic(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=15)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 1600)])
    write_predictions(tmp_path / "pred.csv", rows[:, :2], spec)
    argv = (
        "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"),
        "--window-size", "768", "--window-stride", "416",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert (code_a, out_a) == (code_b, out_b)


def test_monitor_skips_isolated_malformed_rows(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=16)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 800)])
    lines = path.read_text().splitlines()
    lines.insert(400, "not,a,row")  # one bad row among hundreds stays below 1%
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", "--window-size", "768", "--window-stride", "768",
    )
    assert code in (0, 2)
    assert "skipping malformed row" in err
    assert len(out.splitlines()) == 1


def test_a_row_with_a_field_too_many_is_malformed_for_monitor_and_estimate(tmp_path,
                                                                           capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=16)
    path, _ = stream_file(tmp_path, [sample_forward(spec, 800)])
    argv = ("--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y", "--fit", "linear")
    monitor = ("monitor", *argv, "--window-size", "768", "--window-stride", "768")
    code, out, _ = run_cli(capsys, *monitor)
    lines = path.read_text().splitlines()
    lines.insert(400, "1,2,3,4")
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(capsys, *monitor) == (code, out, "warning: skipping malformed row 401\n")
    code, out, err = run_cli(capsys, "estimate", *argv)
    assert (code, out) == (3, "") and "row 401 has 4 fields, expected 3" in err


def test_monitor_and_estimate_refuse_and_name_the_same_row(tmp_path, capsys):
    # float() refuses a number that ends in U+001F, which str.strip would drop
    path = tmp_path / "s.csv"
    synth(capsys, path, n=200, seed=4)
    lines = path.read_text().splitlines()
    lines[151] += "\x1f"  # file row 152, the header being row 1
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *estimate_argv(path))
    assert (code, out) == (3, "") and err.endswith("row 152\n")
    code, out, err = run_cli(capsys, "monitor", *estimate_argv(path)[1:],
                             "--window-size", "199")
    assert err == "warning: skipping malformed row 152\n"
    (window,) = map(json.loads, out.splitlines())
    kept = tmp_path / "kept.csv"
    kept.write_text("\n".join(lines[:151] + lines[152:]) + "\n")
    expected = cli._fingerprint(cli._read_table(str(kept), ["x1", "x2"], ["y"]))
    assert window["fingerprint"] == expected


def test_a_non_finite_cell_is_a_bad_cell_to_monitor_and_estimate(tmp_path, capsys):
    path, pred = tmp_path / "s.csv", tmp_path / "pred.csv"
    synth(capsys, path, n=3000, seed=1)
    lines = path.read_text().splitlines()

    def with_cell(target, column, value):  # in file row 1501 of the sample
        fields = lines[1500].split(",")
        fields[column] = value
        target.write_text("\n".join(lines[:1500] + [",".join(fields)] + lines[1501:]) + "\n")

    monitor = ("monitor", *estimate_argv(path)[1:], "--window-size", "1000",
               "--window-stride", "500")
    with_cell(path, 0, "abc")
    skipped = run_cli(capsys, *monitor)
    code, out, err = skipped
    assert (code, len(out.splitlines()), err) == (0, 4, "warning: skipping malformed row 1501\n")
    with_cell(path, 0, "nan")
    assert run_cli(capsys, *monitor) == skipped
    with_cell(path, 2, "inf")
    assert run_cli(capsys, *estimate_argv(path)) == (
        3, "", f"data error: {path}: non-finite value 'inf' in column y, row 1501\n")
    path.write_text("\n".join(lines) + "\n")
    lines[0] = "x_1,x_2,yhat_1"  # the sample as its own prediction table
    with_cell(pred, 2, "nan")
    code, out, err = run_cli(capsys, *estimate_argv(path)[:-2], "--predictions", str(pred))
    assert (code, out, err) == (
        3, "", f"data error: {pred}: non-finite value 'nan' in column yhat_1, row 1501\n")


def undecodable_stream(tmp_path, capsys, bad):
    """A 5,000-row sample whose bytes from offset 235,505 are ``bad``, in file
    row 3,922: past the monitor's first window of 2,000 and before its second."""
    path = tmp_path / "stream.csv"
    synth(capsys, path, n=5000)
    raw = bytearray(path.read_bytes())
    raw[235505:235505 + len(bad)] = bad
    path.write_bytes(raw)
    return path


# the codec's words for each bad sequence, its position counted in the file
UNDECODABLE = {b"\xff": "byte 0xff in position 235505: invalid start byte",
               b"\xe2\x82": "bytes in position 235505-235506: invalid continuation byte"}


@pytest.mark.parametrize("bad", list(UNDECODABLE))
def test_monitor_and_estimate_name_an_undecodable_byte_by_its_offset_in_the_file(
        tmp_path, capsys, bad):
    path = undecodable_stream(tmp_path, capsys, bad)
    line = f"data error: cannot read {path}: 'utf-8' codec can't decode {UNDECODABLE[bad]}\n"
    assert run_cli(capsys, *estimate_argv(path)) == (3, "", line)
    code, out, err = run_cli(capsys, "monitor", *estimate_argv(path)[1:],
                             "--window-size", "2000", "--window-stride", "2000")
    (window,) = map(json.loads, out.splitlines())
    assert (code, window["end_row"], err) == (3, 2000, line)


def test_monitor_names_an_undecodable_byte_of_a_piped_stdin_by_its_offset(tmp_path, capsys):
    raw = undecodable_stream(tmp_path, capsys, b"\xff").read_bytes()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               PYTHONIOENCODING="utf-8:strict")  # stdin refuses the byte in every locale
    proc = subprocess.run(
        [sys.executable, "-m", "rivkit.cli", "monitor", "--data", "-", "--x-cols", "x1,x2",
         "--y-cols", "y", "--fit", "linear", "--window-size", "2000",
         "--window-stride", "2000"],
        input=raw, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 3 and len(proc.stdout.splitlines()) == 1
    assert proc.stderr == (b"data error: cannot read -: 'utf-8' codec can't decode byte 0xff "
                           b"in position 235505: invalid start byte\n")


class Reads:
    """A UTF-8 text stream whose binary reads return ``size`` bytes at a time."""
    encoding, errors = "utf-8", "strict"

    def __init__(self, data, size):
        self.buffer = self
        self.reads = [data[i:i + size] for i in range(0, len(data), size)]

    def read1(self, size):
        return self.reads.pop(0) if self.reads else b""


@pytest.mark.parametrize("size", range(1, 9))
def test_stream_lines_do_not_depend_on_where_the_reads_end(size):
    text = "a,b\r\n1,é\r2,3\n\n\r\n 4,5\x0c6,7\r\n\r8,9"
    lines = [line for line in text.splitlines() if line.strip()]
    assert list(cli._stream_lines(Reads(text.encode(), size), "s")) == lines
    bad = text.encode().replace(b"8", b"\xff")
    with pytest.raises(cli.DataError, match=f"0xff in position {len(bad) - 3}:"):
        list(cli._stream_lines(Reads(bad, size), "s"))


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
def test_monitor_emits_a_window_of_a_pipe_before_the_writer_closes(tmp_path, capsys, end):
    path = tmp_path / "stream.csv"
    synth(capsys, path, n=100, seed=3)
    lines = [line + end for line in path.read_text().splitlines()]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rivkit.cli", "monitor", "--data", "-", "--x-cols", "x1,x2",
         "--y-cols", "y", "--fit", "linear", "--window-size", "64"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        proc.stdin.write("".join(lines[:65]).encode())  # the header and one window
        proc.stdin.flush()
        # split at line feeds alone, a stream of lone CRs was one line until it closed
        assert select.select([proc.stdout], [], [], 60)[0], "no window while the pipe is open"
        assert json.loads(proc.stdout.readline())["window"] == 0
        out, err = proc.communicate("".join(lines[65:]).encode(), timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) in ((0, b""), (2, b""))
    assert [json.loads(line)["window"] for line in out.splitlines()] == list(range(1, 37))


def test_a_failed_warning_is_not_a_stream_read_error(tmp_path, monkeypatch):
    class ClosedStderr(io.StringIO):
        def write(self, text):  # only the warning fails, so an error message would show
            if text.startswith("warning"):
                raise OSError(errno.EBADF, "Bad file descriptor")
            return super().write(text)

    spec = SystemSpec("linear", (0.0, 0.0), seed=17)
    path, _ = stream_file(tmp_path, [sample_forward(spec, 100)])
    lines = path.read_text().splitlines()
    lines[50] = "not,a,row"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr("sys.stderr", ClosedStderr())
    with pytest.raises(OSError) as caught:
        main(["monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
              "--fit", "linear", "--window-size", "64"])
    assert caught.value.errno == errno.EBADF


def test_monitor_reads_standard_input(tmp_path, capsys, monkeypatch):
    import io

    spec = SystemSpec("linear", (0.0, 0.0), seed=17)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 800)])
    write_predictions(tmp_path / "pred.csv", rows[:, :2], spec)
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    code, out, _ = run_cli(
        capsys, "monitor", "--data", "-", "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"), "--window-size", "768",
    )
    assert code == 0
    assert len(out.splitlines()) == 33  # windows at 768, 769, ..., 800


def test_monitor_stops_quietly_when_its_reader_goes_away(tmp_path, capsys):
    path = tmp_path / "stream.csv"
    synth(capsys, path, n=2000, seed=3)  # 1,985 records, about 8 times a 64 KiB pipe
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rivkit.cli", "monitor", "--data", str(path),
         "--x-cols", "x1,x2", "--y-cols", "y", "--fit", "linear", "--window-size", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["window"] == 0
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode in (0, 2)


# Each command's argv, with {out} the folder its files go to, its exit code and
# those files
QUIET_RUNS = {
    "estimate": (("estimate", "--data", "{tmp}/drifted.csv", "--x-cols", "x1,x2",
                  "--y-cols", "y", "--predictions", "{tmp}/pred.csv",
                  "--csv-out", "{out}/report.csv"), 2, ["report.csv"]),
    "bench": (("bench", "linear", "--truth", "H0", "--trials", "3", "--n", "200"), 0, []),
    "synth": (("synth", "linear", "--n", "50", "--out", "{out}/s.csv"), 0, ["s.csv"]),
    "sweep": (("sweep", "linear", "--delta-min", "0", "--delta-max", "0.15", "--step", "0.15",
               "--seeds", "0", "--n", "50", "--out", "{out}/grid"), 0,
              ["grid/mean.csv", "grid/std.csv", "grid/meta.json"]),
}


@pytest.mark.parametrize("command", QUIET_RUNS)
def test_a_command_stops_quietly_when_its_reader_goes_away(tmp_path, capsys, command):
    template, code, files = QUIET_RUNS[command]
    synth(capsys, tmp_path / "drifted.csv", delta="0.15,0.15", n=2000, seed=0)
    x = np.loadtxt(tmp_path / "drifted.csv", delimiter=",", skiprows=1)[:, :2]
    write_predictions(tmp_path / "pred.csv", x, SystemSpec("linear"))
    argv = {out: [arg.format(tmp=tmp_path, out=tmp_path / out) for arg in template]
            for out in ("read", "gone")}
    for out in argv:
        (tmp_path / out).mkdir()
    assert run_cli(capsys, *argv["read"])[0] == code

    # a pipe whose read end is closed: the command's first write fails
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "rivkit.cli", *argv["gone"]],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")
    for name in files:
        assert (tmp_path / "gone" / name).read_bytes() == (tmp_path / "read" / name).read_bytes()


def test_sweep_refuses_an_unwritable_out_before_the_grid_runs(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "sweep_grid", refuse)
    (tmp_path / "data.csv").write_text("x\n")
    out = tmp_path / "data.csv" / "grid"
    code, stdout, err = run_cli(capsys, "sweep", "linear", "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith(f"data error: cannot write {out}: ") and err.count("\n") == 1


def monitor_with_window(tmp_path, capsys, monkeypatch, size):
    spec = SystemSpec("linear", seed=22)
    path, _ = stream_file(tmp_path, [sample_forward(spec, 64)])
    empty = np.empty

    def refuse_large(shape, *args, **kwargs):  # stands in for an allocation too large
        if 10**6 < shape[0] * shape[1] * 8 <= np.iinfo(np.intp).max:
            raise MemoryError(f"cannot allocate {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_large)
    return run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", "--window-size", str(size),
    )


def test_monitor_refuses_a_window_it_cannot_hold(tmp_path, capsys, monkeypatch):
    # numpy would try to allocate 10**9 rows, which the stand-in refuses
    code, out, err = monitor_with_window(tmp_path, capsys, monkeypatch, 10**9)
    assert (code, out, err) == (1, "", f"error: window size {10**9} does not fit in memory\n")


# numpy refuses 2**62 (too many bytes) and 10**22 (too many rows) itself, allocating nothing
@pytest.mark.parametrize("size", [2**62, 10**22])
def test_monitor_refuses_a_window_numpy_cannot_describe(tmp_path, capsys, monkeypatch, size):
    code, out, err = monitor_with_window(tmp_path, capsys, monkeypatch, size)
    assert (code, out, err) == (1, "", f"error: window size {size} does not fit in memory\n")


@pytest.mark.parametrize("rows, stdin", [(0, False), (63, False), (63, True)])
def test_a_stream_shorter_than_one_window_is_a_data_error(tmp_path, capsys, monkeypatch,
                                                          rows, stdin):
    path, _ = stream_file(tmp_path, [sample_forward(SystemSpec("linear", seed=23), 63)])
    path.write_text("\n".join(path.read_text().splitlines()[:1 + rows]) + "\n")
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    code, out, err = run_cli(
        capsys, "monitor", "--data", "-" if stdin else str(path), "--x-cols", "x1,x2",
        "--y-cols", "y", "--fit", "linear", "--window-size", "64",
    )
    assert (code, out) == (3, "")
    assert err == (f"data error: stream has {rows} well-formed rows, "
                   "fewer than the window size 64\n")


def test_monitor_requires_predictions_to_cover_the_stream(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=18)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 800)])
    write_predictions(tmp_path / "pred.csv", rows[:700, :2], spec)
    code, _, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"), "--window-size", "768",
    )
    assert code == 3 and "prediction table" in err


@pytest.mark.parametrize("stride", [150, 100, 50])
def test_a_stream_longer_than_its_prediction_table_is_a_data_error_at_every_stride(
        tmp_path, capsys, stride):
    spec = SystemSpec("linear", (0.0, 0.0), seed=18)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 650)])
    write_predictions(tmp_path / "pred.csv", rows[:600, :2], spec)
    code, out, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"), "--window-size", "300",
        "--window-stride", str(stride),
    )
    ends = [json.loads(line)["end_row"] for line in out.splitlines()]
    assert ends == list(range(300, 601, stride))  # every window that ends within the table
    assert code == 3 and err == "data error: stream is longer than the prediction table\n"

def test_monitor_aborts_when_malformed_rows_exceed_the_limit(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    good = "\n".join("1,2,3" for _ in range(30))
    path.write_text("x1,x2,y\nbad,row,here\n" + good + "\n")
    code, _, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", "--window-size", "16",
    )
    assert code == 3 and "malformed" in err


def test_monitor_rejects_a_prediction_table_shifted_by_one_row(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=19)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 800)])
    write_predictions(tmp_path / "pred.csv", np.roll(rows[:, :2], -1, axis=0), spec)
    code, out, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"), "--window-size", "768",
    )
    assert code == 3 and out == ""
    assert "not aligned with the prediction table" in err
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--predictions", str(tmp_path / "pred.csv"),
    )
    assert code == 3 and out == ""
    assert "not aligned with the prediction table" in err


def test_monitor_windows_are_the_trailing_rows_across_ring_wraps(tmp_path, capsys):
    spec = SystemSpec("linear", (0.1, 0.0), seed=20)
    path, rows = stream_file(tmp_path, [sample_forward(spec, 200)])
    lines = path.read_text().splitlines()
    lines.insert(150, "bad,row,here")  # skipped: window rows count well-formed rows
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", "--window-size", "32", "--window-stride", "7",
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert code in (0, 2) and len(records) == (200 - 32) // 7 + 1
    model = fit_linear(JointSample(rows[:32], 2, 1))
    for record in records:
        window = rows[record["start_row"]:record["end_row"]]
        assert record["fingerprint"] == hashlib.sha256(window.tobytes()).hexdigest()
        assert record["riv"] == riv(JointSample(window, 2, 1), model, Schedule()).emi


def test_monitor_memory_does_not_grow_with_the_stream(capsys, monkeypatch):
    size = 64

    def peak(windows):
        rows = sample_forward(SystemSpec("linear", seed=21), windows * size).data
        text = "x1,x2,y\n" + "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["monitor", "--data", "-", "--x-cols", "x1,x2", "--y-cols", "y",
                         "--fit", "linear", "--window-size", str(size),
                         "--window-stride", str(100 * size)])
            highest = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 2) and len(capsys.readouterr().out.splitlines()) == 1
        return highest

    peak(10)  # first calls allocate caches that later calls reuse
    short, long = peak(10), peak(40)
    # keeping every row took about 3x the short stream's peak at 40x
    assert long < 1.5 * short, (short, long)


def test_monitor_reads_a_header_after_a_byte_order_mark(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=18)
    path, _ = stream_file(tmp_path, [sample_forward(spec, 200)])
    argv = ("monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
            "--fit", "linear", "--window-size", "64", "--window-stride", "64")
    expected = run_cli(capsys, *argv)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli(capsys, *argv) == expected


def test_monitor_splits_lines_as_the_csv_reader_does(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=19)
    path, _ = stream_file(tmp_path, [sample_forward(spec, 40)])
    lines = path.read_text().splitlines()
    lines[5:7] = [lines[5] + "\x0c" + lines[6]]  # rows 5 and 6 on one line to "\n"
    path.write_text("\n".join(lines) + "\n")
    table = cli._read_table(str(path), ["x1", "x2"], ["y"])
    assert len(table) == 40
    code, out, err = run_cli(
        capsys, "monitor", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", "--window-size", "40",
    )
    [record] = [json.loads(line) for line in out.splitlines()]
    assert code in (0, 2) and err == ""
    assert record["end_row"] == 40
    assert record["fingerprint"] == cli._fingerprint(table)


def test_a_rif_reading_predicts_once_in_estimate_and_monitor(tmp_path, capsys, monkeypatch):
    data, pred = tmp_path / "h1.csv", tmp_path / "pred.csv"
    synth(capsys, data, delta="0.15,0.15", n=300, seed=10)
    sample = sample_forward(SystemSpec("linear", (0.15, 0.15), seed=10), 300)
    write_predictions(pred, sample.x, SystemSpec("linear", (0.0, 0.0)))
    calls = []
    predict = NominalModel.predict

    def counted(model, x):
        calls.append(len(x))
        return predict(model, x)

    monkeypatch.setattr(NominalModel, "predict", counted)
    common = ("--data", str(data), "--x-cols", "x1,x2", "--y-cols", "y",
              "--predictions", str(pred), "--rif")
    code, out, _ = run_cli(capsys, "estimate", *common)
    assert code == 2 and len(json.loads(out)["rif"]) == 2
    assert calls == [300]
    calls.clear()
    code, out, _ = run_cli(capsys, "monitor", *common, "--window-size", "100",
                           "--window-stride", "100")
    assert code in (0, 2) and len(out.splitlines()) == 3
    assert calls == [100] * 3


# ---------------------------------------------------------------------- bench

def test_bench_reports_significance(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "linear", "--truth", "H0", "--trials", "5", "--n", "1024",
    )
    record = json.loads(out)
    assert code == 0
    assert record["kind"] == "significance"
    assert record["trials"] == 5
    assert 0.0 <= record["rate"] <= 1.0


def test_bench_validates_trials_and_truth(capsys):
    code, _, err = run_cli(
        capsys, "bench", "linear", "--truth", "H0", "--trials", "0",
    )
    assert code == 1 and "trials" in err
    code, _, err = run_cli(
        capsys, "bench", "linear", "--delta", "0.1,0", "--truth", "H0", "--trials", "5",
    )
    assert code == 1 and "inconsistent" in err


BENCH_RECORD = ('{"command": "bench", "family": "linear", "delta": [0.0, 0.0], "truth": "H0", '
                '"kind": "significance", "n": %d, "trials": 3, "rejections": 0, "rate": 0.0}\n')


@pytest.mark.parametrize("n, code, out, err", [
    (0, 1, "", "error: --n must be at least 2\n"),
    (1, 1, "", "error: --n must be at least 2\n"),
    (2, 0, BENCH_RECORD % 2, ""),
    (3, 0, BENCH_RECORD % 3, ""),
])
def test_bench_at_the_smallest_sample_sizes(capsys, n, code, out, err):
    assert run_cli(capsys, "bench", "linear", "--truth", "H0", "--trials", "3",
                   "--n", str(n)) == (code, out, err)


@pytest.mark.parametrize("argv, flag", [
    (("bench", "linear", "--truth", "H0", "--trials", "3", "--seed", "-1"), "--seed"),
    (("synth", "linear", "--seed", "-1", "--out", "x.csv"), "--seed"),
    (("sweep", "linear", "--seeds", "0,-1", "--out", "x"), "--seeds"),
])
def test_negative_seeds_are_usage_errors_naming_flag_and_value(tmp_path, monkeypatch,
                                                              capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (1, "", f"error: {flag} takes non-negative integers, got -1\n")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------- sweep

def test_sweep_writes_matrices(tmp_path, capsys):
    out_dir = tmp_path / "grid"
    code, out, _ = run_cli(
        capsys, "sweep", "linear", "--method", "rmse", "--delta-min", "-0.015",
        "--delta-max", "0.015", "--step", "0.015", "--seeds", "0,1",
        "--n", "256", "--out", str(out_dir),
    )
    assert code == 0
    mean = np.loadtxt(out_dir / "mean.csv", delimiter=",")
    assert mean.shape == (3, 3)
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["method"] == "rmse" and meta["n"] == 256


def test_sweep_is_byte_deterministic(tmp_path, capsys):
    argv = (
        "sweep", "linear", "--method", "riv", "--delta-min", "0",
        "--delta-max", "0.15", "--step", "0.15", "--seeds", "0,1",
        "--n", "1024",
    )
    run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
    run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
    for name in ("mean.csv", "std.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ----------------------------------------------------------------- exit codes

def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "estimate")[0] == 1
    assert run_cli(capsys, "sweep", "linear", "--step", "-1", "--out", "x")[0] == 1
    code, _, err = run_cli(capsys, "sweep", "linear", "--seeds", "0,a", "--out", "x")
    assert code == 1 and "'a'" in err


def test_sweep_with_a_repeated_seed_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sweep", "linear", "--seeds", "0,,0",
                             "--out", str(tmp_path / "grid"))
    assert (code, out, err) == (1, "", "error: seed 0 is repeated; seeds must be distinct\n")
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("flag, value", [("--step", "0.04"), ("--delta-max", "inf"),
                                         ("--step", "nan")])
def test_a_sweep_grid_that_would_not_end_at_delta_max_is_a_usage_error(
        tmp_path, capsys, flag, value):
    code, out, err = run_cli(capsys, "sweep", "linear", flag, value,
                             "--out", str(tmp_path / "grid"))
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("flag", ["--lambda", "--w", "--a0"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_schedule_parameters_are_usage_errors(tmp_path, capsys, flag, value):
    path = tmp_path / "h0.csv"
    synth(capsys, path, n=200, seed=0)
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(path), "--x-cols", "x1,x2", "--y-cols", "y",
        "--fit", "linear", flag, value,
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "finite" in err


def test_unreadable_data_exits_three(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(tmp_path / "absent.csv"),
        "--x-cols", "x1", "--y-cols", "y", "--fit", "linear",
    )
    assert code == 3 and "cannot read" in err


ESTIMATE = ("estimate", "--data", "{tmp}/data.csv", "--fit", "linear")
MONITOR = ("monitor", "--data", "{tmp}/data.csv", "--x-cols", "x1,x2", "--y-cols", "y",
           "--fit", "linear")


# Each case's stderr is pinned whole, or, where "..." ends it, up to the text
# that the OS or json appends.
@pytest.mark.parametrize("argv, code, err", [
    (ESTIMATE + ("--x-cols", " , ", "--y-cols", "y"), 1, "error: empty column list\n"),
    (ESTIMATE + ("--x-cols", "x1,x2"), 1, "error: --x-cols and --y-cols are required\n"),
    (ESTIMATE + ("--x-cols", "x1,y", "--y-cols", "y"), 1,
     "error: x and y columns overlap: ['y']\n"),
    (estimate_argv("{tmp}/empty.csv"), 3, "data error: {tmp}/empty.csv is empty\n"),
    (estimate_argv("{tmp}/blank.csv"), 3, "data error: {tmp}/blank.csv is empty\n"),
    (estimate_argv("{tmp}/data.csv") + ("--csv-out", "{tmp}/absent/r.csv"), 3,
     "data error: cannot write {tmp}/absent/r.csv: ..."),
    (estimate_argv("{tmp}/data.csv") + ("--config", "{tmp}/absent.json"), 1,
     "error: cannot read config {tmp}/absent.json: ..."),
    (estimate_argv("{tmp}/data.csv") + ("--config", "{tmp}/bad.json"), 1,
     "error: config {tmp}/bad.json is not valid JSON: ..."),
    (estimate_argv("{tmp}/data.csv") + ("--config", "{tmp}/list.json"), 1,
     "error: config file must hold a JSON object\n"),
    (("synth", "linear", "--delta", "1", "--out", "{tmp}/s.csv"), 1,
     "error: delta must be two comma-separated numbers, got '1'\n"),
    (("synth", "linear", "--delta", "a,b", "--out", "{tmp}/s.csv"), 1,
     "error: bad delta 'a,b'\n"),
    (("synth", "linear", "--n", "0", "--out", "{tmp}/s.csv"), 1,
     "error: --n must be at least 1\n"),
    (("synth", "linear", "--delta", "nan,0", "--out", "{tmp}/s.csv"), 1,
     "error: delta must be finite\n"),
    (("synth", "linear", "--out", "{tmp}/absent/s.csv"), 3,
     "data error: cannot write {tmp}/absent/s.csv: ..."),
    (MONITOR, 1, "error: --window-size is required for monitoring\n"),
    (MONITOR + ("--window-size", "64", "--window-stride", "0"), 1,
     "error: window stride must be at least 1\n"),
    (MONITOR[:2] + ("{tmp}/absent.csv",) + MONITOR[3:] + ("--window-size", "64"), 3,
     "data error: cannot read {tmp}/absent.csv: ..."),
    (MONITOR[:2] + ("{tmp}/empty.csv",) + MONITOR[3:] + ("--window-size", "64"), 3,
     "data error: stream contained no header row\n"),
    (("bench", "linear", "--delta", "0.1,0", "--truth", "H0"), 1,
     "error: delta (0.1, 0.0) is inconsistent with H0\n"),
    (("bench", "linear", "--truth", "H1"), 1,
     "error: delta (0.0, 0.0) is inconsistent with H1\n"),
    (("sweep", "linear", "--delta-min", "0", "--delta-max", "0.15", "--step", "0.15",
      "--seeds", "0", "--n", "50", "--out", "{tmp}/data.csv/grid"), 3,
     "data error: cannot write {tmp}/data.csv/grid: ..."),
    (("bench", "linear", "--delta", "nan,0", "--truth", "H1"), 1,
     "error: delta must be finite\n"),
    (estimate_argv("{tmp}/data.csv") + ("--lambda", "0"), 1,
     "error: lam must be positive and finite\n"),
    (estimate_argv("{tmp}/absent.csv"), 3, "data error: cannot read {tmp}/absent.csv: ..."),
    (estimate_argv("{tmp}/data.csv") + ("--config", "{tmp}/latin.json"), 1,
     "error: cannot read config {tmp}/latin.json: 'utf-8' codec can't decode byte 0xe9 in "
     "position 15: invalid continuation byte\n"),
    (("estimate", "--data", "{tmp}/oops.csv", "--x-cols", "x1,x2", "--y-cols", "nosuch",
      "--fit", "linear"), 1,  # a missing column is reported before a bad cell
     "error: columns ['nosuch'] not present in {tmp}/oops.csv header ['x1', 'x2', 'y']\n"),
])
def test_each_input_check_exits_with_its_code_and_message(tmp_path, capsys, argv, code, err):
    synth(capsys, tmp_path / "data.csv", n=100, seed=1)
    for name, raw in (("empty.csv", b""), ("blank.csv", b"\n \n\t\n"), ("bad.json", b"{"),
                      ("list.json", b"[1]"), ("latin.json", b'{"x_cols": "caf\xe9"}'),
                      ("oops.csv", b"x1,x2,y\n1,oops,3\n")):
        (tmp_path / name).write_bytes(raw)
    got_code, _, got_err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    expected = err.format(tmp=tmp_path)
    assert got_code == code
    if expected.endswith("..."):
        assert got_err.startswith(expected[:-3]) and got_err.count("\n") == 1, got_err
    else:
        assert got_err == expected


def test_synth_writes_plain_text_to_a_path_named_like_an_archive(tmp_path, capsys):
    synth(capsys, tmp_path / "s.csv", n=20, seed=4)
    synth(capsys, tmp_path / "s.csv.gz", n=20, seed=4)
    assert (tmp_path / "s.csv.gz").read_bytes() == (tmp_path / "s.csv").read_bytes()


# --------------------------------------------------------------------- parser

# sha256 prefixes of each --help at COLUMNS=80, recorded while every argument
# still read the terminal width on its own
HELP_DIGESTS = {
    (): "d14f51b79b305006",
    ("estimate",): "ab85ee02aa056a98",
    ("synth",): "1a518a1d63f14c0d",
    ("sweep",): "940f4e345544efa0",
    ("monitor",): "3413c4b78d5b8165",
    ("bench",): "40a73c52629c0fc3",
}


@pytest.mark.parametrize("command, expected", HELP_DIGESTS.items(),
                         ids=[" ".join(("rivkit", *command)) for command in HELP_DIGESTS])
def test_help_is_byte_identical_at_a_fixed_width(capsys, monkeypatch, command, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main([*command, "--help"])
    out = capsys.readouterr().out
    assert exited.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected, out


def test_building_the_parser_reads_the_terminal_width_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli.build_parser()
    assert len(calls) == 1
