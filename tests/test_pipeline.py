import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import SCHEDULE, pipeline_report
from rivkit import (
    DegenerateDataError,
    JointSample,
    NominalModel,
    SystemSpec,
    emi,
    fit_linear,
    join,
    nominal_model,
    residuals,
    rif,
    riv,
    sample_forward,
    sample_system,
    table_model,
)


def constant_model(value: float, q: int = 1) -> NominalModel:
    return NominalModel(lambda x: np.full((x.shape[0], q), value), kind="synthetic_eta")


# ------------------------------------------------------------------ residuals

def test_exact_model_leaves_zero_residuals():
    spec = SystemSpec("linear", seed=0)
    sample = sample_forward(spec, 100)
    noiseless = JointSample(
        np.column_stack([sample.x, sample.x @ np.array([0.6, -0.4])]), 2, 1
    )
    res = residuals(noiseless, nominal_model(spec))
    np.testing.assert_array_equal(res.x, noiseless.x)
    np.testing.assert_allclose(res.response, 0.0, atol=1e-12)


def test_residual_arithmetic_and_bias():
    sample = JointSample(np.array([[0.0, 1.0], [1.0, 2.0]]), 1, 1)
    res = residuals(sample, constant_model(0.5))
    assert (res.p, res.q) == (1, 1)
    np.testing.assert_allclose(res.response[:, 0], [0.5, 1.5], atol=0)
    assert res.response.mean() == pytest.approx(1.0, abs=1e-15)


def test_nominal_residuals_are_pure_noise_for_the_linear_system():
    spec = SystemSpec("linear", seed=4)
    sample = sample_forward(spec, 2000)
    res = residuals(sample, nominal_model(spec))
    # residual = k*W with W uniform on [-0.1, 0.1]
    assert np.all(np.abs(res.response) <= 0.1 + 1e-12)
    assert abs(res.response.mean()) < 0.01


def test_residuals_are_the_stacked_differences_to_the_bit_and_leave_the_sample_alone():
    data = np.random.default_rng(2).normal(size=(300, 4)) * 1e3
    sample = JointSample(data.copy(), 2, 2)
    model = NominalModel(lambda x: np.column_stack([np.sin(x @ [0.3, 0.7]), x[:, 0] / 3]),
                         kind="synthetic_eta")
    expected = np.hstack([sample.x, sample.response - model.predict(sample.x)])
    assert residuals(sample, model).data.tobytes() == expected.tobytes()
    assert sample.data.tobytes() == data.tobytes()


def test_model_dimension_mismatch_is_rejected():
    sample = JointSample(np.zeros((5, 3)) + np.arange(3), 2, 1)
    with pytest.raises(ValueError):
        residuals(sample, constant_model(0.0, q=2))


# ------------------------------------------------------------------ riv / rif

def test_riv_is_exactly_the_emi_of_the_residual_join():
    spec = SystemSpec("linear", (0.1, 0.0), seed=10)
    sample = sample_forward(spec, 800)
    model = nominal_model(spec)
    assert riv(sample, model, SCHEDULE) == emi(residuals(sample, model), SCHEDULE)


def test_riv_and_rif_ignore_a_constant_model_offset():
    spec = SystemSpec("linear", (0.1, -0.05), seed=6)
    sample = sample_forward(spec, 2000)
    base = nominal_model(spec)
    offset = NominalModel(lambda x: base.predict(x) + 0.3, kind="synthetic_eta")
    assert riv(sample, offset, SCHEDULE) == riv(sample, base, SCHEDULE)
    np.testing.assert_array_equal(rif(sample, offset, SCHEDULE), rif(sample, base, SCHEDULE))


def test_riv_collapses_on_the_nominal_linear_system():
    report = pipeline_report("linear", (0.0, 0.0), 2000, seed=0)
    assert report.collapsed and report.emi == 0.0


def test_riv_detects_the_reference_drift():
    report = pipeline_report("linear", (0.15, 0.15), 2000, seed=0)
    assert report.emi >= SCHEDULE.a(2000)


def test_rif_localizes_a_single_coordinate_drift():
    spec = SystemSpec("polynomial", (0.15, 0.0), seed=1)
    sample = sample_forward(spec, 2000)
    values = rif(sample, nominal_model(spec), SCHEDULE)
    assert values.shape == (2,)
    assert values[0] > 0.0
    assert values[1] == 0.0


def test_rif_is_zero_under_independence():
    spec = SystemSpec("linear", (0.0, 0.0), seed=2)
    sample = sample_forward(spec, 2000)
    values = rif(sample, nominal_model(spec), SCHEDULE)
    np.testing.assert_array_equal(values, 0.0)


def test_rif_of_a_univariate_input_equals_riv():
    rng = np.random.default_rng(3)
    x = rng.normal(size=500)
    y = 0.8 * x + rng.uniform(-0.1, 0.1, 500)
    sample = join(x, y)
    model = fit_linear(sample)
    assert rif(sample, model, SCHEDULE)[0] == riv(sample, model, SCHEDULE).emi


def test_rif_entries_do_not_depend_on_other_columns():
    spec = SystemSpec("polynomial", (0.15, 0.0), seed=1)
    sample = sample_forward(spec, 1000)
    model = nominal_model(spec)
    values = rif(sample, model, SCHEDULE)
    swapped = JointSample(sample.data[:, [1, 0, 2]], 2, 1)
    swapped_model = NominalModel(
        lambda x: model.predict(x[:, [1, 0]]), kind="synthetic_eta"
    )
    np.testing.assert_array_equal(rif(swapped, swapped_model, SCHEDULE), values[::-1])


# ----------------------------------------------------------------- fit_linear

def test_fit_linear_recovers_noiseless_coefficients():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(100, 2))
    y = 0.6 * x[:, 0] - 0.4 * x[:, 1]
    model = fit_linear(join(x, y))
    np.testing.assert_allclose(model.params["coef"][0], [0.6, -0.4], atol=1e-9)
    assert abs(model.params["intercept"][0]) < 1e-9
    np.testing.assert_allclose(model.predict(x)[:, 0], y, atol=1e-9)


def test_fit_linear_on_constant_output():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(60, 2))
    model = fit_linear(join(x, np.full(60, 5.0)))
    np.testing.assert_allclose(model.params["coef"][0], [0.0, 0.0], atol=1e-9)
    assert model.params["intercept"][0] == pytest.approx(5.0, abs=1e-9)


def test_fit_linear_rejects_small_and_degenerate_designs():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 2))
    with pytest.raises(DegenerateDataError):
        fit_linear(join(x, np.zeros(3)))
    wide = rng.normal(size=(50, 1))
    collinear = np.column_stack([wide, 2.0 * wide])
    with pytest.raises(DegenerateDataError, match="x"):
        fit_linear(join(collinear, np.zeros(50)))


@settings(max_examples=40, deadline=None)
@given(st.integers(-990, 990), st.sampled_from(["linear", "polynomial", "narx"]),
       st.integers(0, 3))
@example(990, "polynomial", 3)
@example(-990, "polynomial", 3)
def test_fit_linear_reads_data_scaled_by_any_power_of_two_as_the_unscaled(k, family, seed):
    sample = sample_system(SystemSpec(family, seed=seed), 300)
    scaled = JointSample(np.ldexp(sample.data, k), sample.p, sample.q)
    expected, report = (riv(s, fit_linear(s), SCHEDULE) for s in (sample, scaled))
    assert (report.emi, report.leaf_count) == (expected.emi, expected.leaf_count)


# ---------------------------------------------------------------- table model

def test_table_model_serves_aligned_rows_only():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    yhat = np.array([[0.5], [1.5]])
    model = table_model(x, yhat)
    np.testing.assert_array_equal(model.predict(x), yhat)
    np.testing.assert_array_equal(model.predict(x + 5e-10), yhat)  # within TABLE_ATOL
    for query in (x + 1.0, x + np.array([[0.0, 0.0], [0.0, 2e-9]]), x[:, :1]):
        with pytest.raises(ValueError, match="not aligned"):
            model.predict(query)
    with pytest.raises(ValueError):
        table_model(x, yhat[:1])


def test_a_table_prediction_holds_one_buffer_beside_its_query():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50_000, 4))  # wide enough that two buffers break the bound
    model = table_model(x, rng.standard_normal(50_000))
    query = x.copy()
    tracemalloc.start()
    try:
        model.predict(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= query.nbytes + 2**20


# ------------------------------------------------- desk-scale drift contrast

def test_nominal_collapse_and_drift_response_across_families():
    for family in ("linear", "polynomial", "trigonometric"):
        nominal_collapses = sum(
            pipeline_report(family, (0.0, 0.0), 2000, seed).collapsed
            for seed in range(10)
        )
        drift_collapses = sum(
            pipeline_report(family, (0.15, 0.15), 2000, seed).collapsed
            for seed in range(10)
        )
        assert nominal_collapses >= 9, family
        assert drift_collapses <= 2, family
