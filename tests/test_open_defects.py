"""The open correctness defects of ROADMAP.md, one test each.

Each test asserts its item's *done when* and is marked as a strict expected
failure, so the suite fails as soon as a defect is fixed and its mark is not
removed in the same change. A mark expects an AssertionError only: a test
that breaks in any other way fails the suite.
"""

import json

import numpy as np
import pytest

from helpers import SCHEDULE, gaussian_emi
from rivkit import SystemSpec, nominal_model, residual_source, sample_system
from rivkit.cli import main


def open_defect(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


def run_cli(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, [json.loads(line) for line in captured.out.splitlines()], captured.err


def write_csv(path, names, data):
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    return path


def test_an_independent_pair_still_collapses_at_n_200000():
    report = gaussian_emi(0, 200_000, 0.0)
    assert (report.emi, report.leaf_count) == (0.0, 1)


@open_defect(1)
def test_a_dependent_pair_is_detected_at_n_200000():
    assert gaussian_emi(0, 200_000, 0.3).emi >= SCHEDULE.a(200_000)


@open_defect(11)
def test_a_residual_beside_eight_inputs_fires_or_warns(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 8))
    square = np.column_stack((x, x[:, 0] ** 2 + 0.1 * rng.standard_normal(2000)))
    drifted = residual_source(SystemSpec("linear", (0.15, 0.15), seed=0))(2000).data
    padded = np.column_stack((drifted[:, :2], rng.standard_normal((2000, 6)), drifted[:, 2:]))
    x_cols = [f"x{j}" for j in range(1, 9)]
    for data in (square, padded):
        path = write_csv(tmp_path / "data.csv", [*x_cols, "y"], data)
        table = np.column_stack((data[:, :8], np.zeros(2000)))
        predictions = write_csv(tmp_path / "pred.csv",
                                [f"x_{j}" for j in range(1, 9)] + ["yhat_1"], table)
        code, _, err = run_cli(capsys, "estimate", "--data", path, "--x-cols", ",".join(x_cols),
                               "--y-cols", "y", "--predictions", predictions)
        assert code == 2 or err


@open_defect(8)
def test_an_exact_fit_is_no_detection(tmp_path, capsys):
    x = np.random.default_rng(2).standard_normal((3000, 2))
    argv = ("--x-cols", "x1,x2", "--y-cols", "y", "--fit", "linear")
    for y in (2 * x[:, 0] + 3 * x[:, 1] + 1, np.ones(3000)):
        path = write_csv(tmp_path / "data.csv", ["x1", "x2", "y"], np.column_stack((x, y)))
        for command in (("estimate",),
                        ("monitor", "--window-size", 1000, "--window-stride", 1000)):
            code, records, _ = run_cli(capsys, *command, "--data", path, *argv)
            assert code in (0, 3) and not any(record["decision"] for record in records)


@open_defect(5)
def test_a_nominal_stream_in_small_windows_is_refused_or_quiet(tmp_path, capsys):
    spec = SystemSpec("linear", (0.0, 0.0), seed=3)
    sample = sample_system(spec, 1280)
    path = write_csv(tmp_path / "stream.csv", ["x1", "x2", "y"], sample.data)
    table = np.column_stack((sample.x, nominal_model(spec).predict(sample.x)))
    predictions = write_csv(tmp_path / "pred.csv", ["x_1", "x_2", "yhat_1"], table)
    code, records, _ = run_cli(capsys, "monitor", "--data", path, "--x-cols", "x1,x2",
                               "--y-cols", "y", "--predictions", predictions,
                               "--window-size", 128, "--window-stride", 128)
    assert (code, records) == (1, []) or code == 0


def mode_flag_codes(tmp_path, capsys, scaled):
    """The exit codes of ``estimate`` over seeds 0-4 of a mode flag x1 in {0, 1}
    beside x2 ~ N(0, 1), whose residual is N(0, 1), scaled by 1 + x1 if
    ``scaled``, read against a zero prediction table."""
    codes = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = np.column_stack((rng.integers(0, 2, 2000), rng.standard_normal(2000)))
        noise = rng.standard_normal(2000)
        path = write_csv(tmp_path / "data.csv", ["x1", "x2", "y"],
                         np.column_stack((x, (1 + x[:, 0]) * noise if scaled else noise)))
        predictions = write_csv(tmp_path / "pred.csv", ["x_1", "x_2", "yhat_1"],
                                np.column_stack((x, np.zeros(2000))))
        codes.append(run_cli(capsys, "estimate", "--data", path, "--x-cols", "x1,x2",
                             "--y-cols", "y", "--predictions", predictions)[0])
    return codes


def test_a_residual_of_one_spread_beside_a_mode_flag_fires_in_no_seed(tmp_path, capsys):
    assert mode_flag_codes(tmp_path, capsys, scaled=False) == [0] * 5


@open_defect(18)
def test_a_residual_whose_spread_follows_a_mode_flag_fires_in_every_seed(tmp_path, capsys):
    assert mode_flag_codes(tmp_path, capsys, scaled=True) == [2] * 5
