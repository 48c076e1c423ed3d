import json
import math

import numpy as np
import pytest

from helpers import SCHEDULE
from rivkit import (
    DegenerateDataError,
    GridResult,
    GridSpec,
    SystemSpec,
    detection_curve,
    gaussian_mi_oracle,
    mapc,
    rmse,
    save_grid_result,
    sweep_grid,
)
from rivkit import emi, harness
from rivkit.detector import trial_seed
from rivkit.harness import evaluate_method
from rivkit.partition import CHUNK
from rivkit.systems import residual_source


# ----------------------------------------------------------------- baselines

def test_mapc_of_a_copied_column_is_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 2))
    assert mapc(x, x[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert mapc(x[:, 0], x[:, 0]) == pytest.approx(1.0, abs=1e-12)  # a 1-D input is one column


def test_mapc_refuses_a_residual_of_two_columns():
    x = np.random.default_rng(0).normal(size=(50, 2))
    with pytest.raises(ValueError, match="residual must be one column"):
        mapc(x, x)


@pytest.mark.parametrize("scale", [1e150, 1e300, 1e-200])
def test_mapc_and_rmse_hold_at_any_finite_magnitude(scale):
    x = np.random.default_rng(0).normal(size=(50, 2))
    assert mapc(x * scale, x[:, 0] * scale) == pytest.approx(1.0, abs=1e-12)
    assert rmse(x[:, 0] * scale) == pytest.approx(rmse(x[:, 0]) * scale, rel=1e-12, abs=0)


def test_mapc_matches_the_closed_form_on_the_drifted_linear_system():
    # residual = 0.15*U + W: corr(U, R) = 0.15*sd(U) / sd(0.15*U + W)
    population = 0.15 * math.sqrt(4 / 3) / math.sqrt(0.15**2 * 4 / 3 + 1 / 300)
    assert population == pytest.approx(0.9487, abs=1e-4)
    value = evaluate_method("mapc", SystemSpec("linear", (0.15, 0.0), seed=2), 2000, SCHEDULE)
    assert value == pytest.approx(population, abs=0.02)


def test_mapc_of_independent_noise_is_small():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10_000, 2))
    r = rng.normal(size=10_000)
    assert mapc(x, r) <= 0.03


def test_mapc_rejects_degenerate_columns():
    x = np.column_stack([np.ones(20), np.arange(20.0)])
    r = np.arange(20.0)
    with pytest.raises(DegenerateDataError):
        mapc(x, r)
    with pytest.raises(DegenerateDataError):
        mapc(np.random.default_rng(2).normal(size=(20, 2)), np.ones(20))


def test_mapc_is_invariant_under_positive_affine_input_rescaling():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2))
    r = x[:, 0] * 0.3 + rng.normal(size=200)
    scaled = x.copy()
    scaled[:, 0] = 5.0 * scaled[:, 0] + 1.0
    assert mapc(scaled, r) == pytest.approx(mapc(x, r), rel=1e-12)


def test_rmse_values_and_homogeneity():
    assert rmse(np.zeros(5)) == 0.0
    assert rmse(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), rel=1e-15)
    rng = np.random.default_rng(4)
    r = rng.normal(size=100)
    assert rmse(-2.5 * r) == pytest.approx(2.5 * rmse(r), rel=1e-12)
    with pytest.raises(ValueError):
        rmse(np.array([]))


def test_rmse_of_the_uniform_noise_floor():
    rng = np.random.default_rng(5)
    w = rng.uniform(-0.1, 0.1, 100_000)
    assert rmse(w) == pytest.approx(math.sqrt(1 / 300), rel=0.02)


def test_gaussian_mi_oracle_closed_form():
    assert gaussian_mi_oracle(0.0) == 0.0
    assert gaussian_mi_oracle(0.9) == pytest.approx(-0.5 * math.log(0.19), rel=1e-15)
    assert gaussian_mi_oracle(0.9) == pytest.approx(0.83037, abs=1e-5)
    assert gaussian_mi_oracle(0.5) == pytest.approx(0.14384, abs=1e-5)
    assert gaussian_mi_oracle(-0.5) == gaussian_mi_oracle(0.5)
    with pytest.raises(ValueError):
        gaussian_mi_oracle(1.0)


# ---------------------------------------------------------------------- grids

def test_grid_axis_counts():
    grid = GridSpec(-0.15, 0.15, 0.0015, seeds=(0,), n=2000, method="riv")
    assert grid.axis.size == 201
    assert grid.axis.size**2 == 40_401
    desk = GridSpec(-0.15, 0.15, 0.015, seeds=(0, 1, 2), n=2000, method="riv")
    assert desk.axis.size == 21


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0.1, -0.1, 0.01, (0,), 100, "riv")
    with pytest.raises(ValueError):
        GridSpec(-0.1, 0.1, 0.0, (0,), 100, "riv")
    with pytest.raises(ValueError):
        GridSpec(-0.1, 0.1, 0.01, (), 100, "riv")
    with pytest.raises(ValueError):
        GridSpec(-0.1, 0.1, 0.01, (0,), 100, "pearson")
    with pytest.raises(ValueError, match="non-negative"):
        GridSpec(-0.1, 0.1, 0.01, (0, -1), 100, "riv")
    with pytest.raises(ValueError, match="step must divide"):
        GridSpec(0.0, 0.1, 0.06, (0,), 100, "riv")  # would end at 0.12
    with pytest.raises(ValueError, match="step must divide"):
        GridSpec(0.0, 0.15, 0.04, (0,), 100, "riv")  # would end at 0.16
    with pytest.raises(ValueError, match="finite"):
        GridSpec(0.0, math.inf, 0.01, (0,), 100, "riv")
    with pytest.raises(ValueError, match="finite"):
        GridSpec(0.0, 0.1, math.nan, (0,), 100, "riv")
    with pytest.raises(TypeError):
        GridSpec(0.0, 0.1, 0.1, (0,), 2.5, "riv")


def test_grid_seeds_may_come_from_a_generator():
    grid = GridSpec(0.0, 0.1, 0.1, seeds=(s for s in [0, 1]), n=100, method="riv")
    assert grid.seeds == (0, 1)
    numpy_seeds = GridSpec(0.0, 0.1, 0.1, seeds=np.arange(2), n=100, method="riv").seeds
    assert numpy_seeds == (0, 1) and all(type(s) is int for s in numpy_seeds)


def test_an_empty_seed_iterator_is_rejected_by_name():
    with pytest.raises(ValueError, match="at least one seed is required"):
        GridSpec(0.0, 0.1, 0.1, seeds=iter([]), n=100, method="riv")


def test_grid_seeds_must_be_integers():
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        GridSpec(0.0, 0.1, 0.1, seeds=(0.5,), n=100, method="riv")


def test_grid_seeds_must_be_distinct():
    with pytest.raises(ValueError, match="seed 0 is repeated"):
        GridSpec(0.0, 0.15, 0.15, seeds=(0, 0), n=300, method="riv")
    with pytest.raises(ValueError, match="seed 2 is repeated"):
        GridSpec(0.0, 0.15, 0.15, seeds=(2, 1, 3, 2), n=300, method="riv")


def test_riv_sweep_equals_one_seed_at_a_time():
    grid = GridSpec(0.0, 0.03, 0.03, seeds=tuple(range(CHUNK + 1)), n=600, method="riv")
    result = sweep_grid("mlp", grid, SCHEDULE)
    for i, d1 in enumerate(grid.axis):
        for j, d2 in enumerate(grid.axis):
            values = np.array([
                evaluate_method("riv", SystemSpec("mlp", (float(d1), float(d2)),
                                                  seed=trial_seed(seed, i, j)), 600, SCHEDULE)
                for seed in grid.seeds])
            assert result.mean[i, j].tobytes() == values.mean().tobytes()
            assert result.std[i, j].tobytes() == values.std().tobytes()


@pytest.mark.parametrize("stage", ["residual_source", "emi"])
def test_a_failing_riv_cell_names_its_delta_and_seed(monkeypatch, stage):
    original, calls = getattr(harness, stage), []

    def failing_third_call(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("boom")
        return original(*args)

    monkeypatch.setattr(harness, stage, failing_third_call)
    grid = GridSpec(0.0, 0.015, 0.015, seeds=(7, 8, 9, 10), n=300, method="riv")
    with pytest.raises(RuntimeError, match=r"^grid cell delta=\(0.0, 0.0\) seed=9 failed: boom$"):
        sweep_grid("linear", grid, SCHEDULE)


def test_origin_cell_riv_is_zero():
    grid = GridSpec(0.0, 0.015, 0.015, seeds=(0, 1), n=2000, method="riv")
    result = sweep_grid("linear", grid, SCHEDULE)
    assert result.mean.shape == (2, 2)
    assert result.mean[0, 0] == 0.0
    assert result.std[0, 0] == 0.0


def test_rmse_noise_floor_at_the_origin():
    grid = GridSpec(0.0, 0.1, 0.1, seeds=(0, 1, 2), n=2000, method="rmse")
    result = sweep_grid("linear", grid, SCHEDULE)
    assert result.mean[0, 0] == pytest.approx(math.sqrt(1 / 300), rel=0.1)


def test_sweeps_are_deterministic():
    grid = GridSpec(-0.1, 0.1, 0.1, seeds=(0, 1), n=500, method="mapc")
    a = sweep_grid("polynomial", grid, SCHEDULE)
    b = sweep_grid("polynomial", grid, SCHEDULE)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)


def test_sign_flip_symmetry_of_the_linear_family():
    # delta = (d, 0) and (-d, 0): U and W have symmetric laws, so the two
    # residual joints coincide in distribution and the mean values agree
    values = {}
    for d in (0.12, -0.12):
        samples = [
            evaluate_method(
                "riv", SystemSpec("linear", (d, 0.0), seed=seed), 2000, SCHEDULE
            )
            for seed in range(10)
        ]
        values[d] = (np.mean(samples), np.std(samples))
    gap = abs(values[0.12][0] - values[-0.12][0])
    assert gap <= 2.0 * max(values[0.12][1], values[-0.12][1])


def test_polynomial_blind_spot_of_the_correlation_baseline():
    spec = lambda seed: SystemSpec("polynomial", (0.15, 0.0), seed=seed)
    mapcs = [evaluate_method("mapc", spec(s), 2000, SCHEDULE) for s in range(10)]
    rivs = [evaluate_method("riv", spec(s), 2000, SCHEDULE) for s in range(10)]
    assert np.mean(mapcs) <= 0.05
    assert np.mean(rivs) > 0.0


def test_drift_errorbars_are_small_relative_to_the_mean():
    values = [
        evaluate_method(
            "riv", SystemSpec("linear", (0.15, 0.15), seed=seed), 2000, SCHEDULE
        )
        for seed in range(10)
    ]
    assert np.std(values) <= 0.5 * np.mean(values)


# ----------------------------------------------------------- detection curves

def test_detection_curve_trends():
    h0 = detection_curve(
        SystemSpec("linear", (0.0, 0.0)), SCHEDULE, [500, 2000, 8000], seeds=range(10)
    )
    h0_rates = [rate for _, rate in h0]
    assert h0_rates == sorted(h0_rates, reverse=True)
    assert h0_rates[-1] == 0.0
    h1 = detection_curve(
        SystemSpec("linear", (0.15, 0.15)), SCHEDULE, [500, 2000], seeds=range(10)
    )
    h1_rates = [rate for _, rate in h1]
    assert h1_rates == sorted(h1_rates)
    assert h1_rates[-1] == 1.0


def test_detection_curve_validation():
    with pytest.raises(ValueError):
        detection_curve(SystemSpec("linear"), SCHEDULE, [], seeds=range(3))
    with pytest.raises(ValueError):
        detection_curve(SystemSpec("linear"), SCHEDULE, [100, 100], seeds=range(3))


def test_detection_curve_reads_a_generator_of_seeds_once_for_every_n():
    system = SystemSpec("linear", (0.15, 0.15))
    listed = detection_curve(system, SCHEDULE, [300, 600], seeds=[0, 1, 2])
    generated = detection_curve(system, SCHEDULE, [300, 600], seeds=(s for s in range(3)))
    assert generated == listed


def test_detection_curve_equals_one_seed_at_a_time():
    system = SystemSpec("linear", (0.01, 0.0))
    ns, seeds = [500, 1000], range(CHUNK + 3)
    expected = []
    for n in ns:
        decisions = [emi(residual_source(SystemSpec("linear", (0.01, 0.0), seed=seed))(n),
                         SCHEDULE).emi >= SCHEDULE.a(n) for seed in seeds]
        expected.append((n, sum(decisions) / len(seeds)))
    assert all(0.0 < rate < 1.0 for _, rate in expected)  # both outcomes occur
    assert detection_curve(system, SCHEDULE, ns, seeds) == expected


def test_detection_curve_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds"):
        detection_curve(SystemSpec("linear"), SCHEDULE, [300, 600], seeds=[])


def test_detection_curve_rejects_repeated_seeds():
    with pytest.raises(ValueError, match="seed 0 is repeated"):
        detection_curve(SystemSpec("linear"), SCHEDULE, [300], seeds=[0, 0])


def test_detection_curve_rejects_one_row_before_drawing(monkeypatch):
    def refuse(spec):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(harness, "residual_source", refuse)
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        detection_curve(SystemSpec("linear"), SCHEDULE, [1], seeds=range(3))
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        detection_curve(SystemSpec("linear"), SCHEDULE, [300, 1], seeds=range(3))


# ------------------------------------------------------------- serialization

def test_grid_results_round_trip_through_csv(tmp_path):
    grid = GridSpec(-0.015, 0.015, 0.015, seeds=(0, 1), n=300, method="rmse")
    result = sweep_grid("linear", grid, SCHEDULE)
    save_grid_result(result, tmp_path)
    mean = np.loadtxt(tmp_path / "mean.csv", delimiter=",")
    std = np.loadtxt(tmp_path / "std.csv", delimiter=",")
    np.testing.assert_array_equal(mean, result.mean)
    np.testing.assert_array_equal(std, result.std)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["family"] == "linear"
    assert meta["method"] == "rmse"
    assert meta["grid_points_per_axis"] == 3
    assert meta["seeds"] == [0, 1]


def test_grid_result_shape_validation():
    grid = GridSpec(-0.1, 0.1, 0.1, seeds=(0,), n=100, method="riv")
    with pytest.raises(ValueError):
        GridResult(np.zeros((2, 2)), np.zeros((2, 2)), grid, "linear")
