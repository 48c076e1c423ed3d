import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivkit import JointSample, SystemSpec, nominal_model, residuals, systems
from rivkit.systems import (
    AR_FAMILIES,
    COEFFICIENTS,
    FAMILIES,
    _streams,
    ar_path,
    describe_eta,
    eta_values,
    forward_response,
    noise_values,
    sample_residuals,
    sample_system,
)


# ----------------------------------------------------------- point formulas

def test_linear_nominal_point():
    assert eta_values(SystemSpec("linear"), [[1.0, 1.0]])[0] == pytest.approx(0.2, abs=1e-15)


def test_trigonometric_zero_product_gives_zero():
    spec = SystemSpec("trigonometric")
    for s in (-3.0, 0.0, 7.5):
        assert eta_values(spec, [[0.0, s]])[0] == 0.0


def test_mlp_nominal_point_matches_hand_evaluation():
    # independent recomputation with the fixed network parameters
    pre1 = -0.62466
    pre2 = 0.28375
    act1 = pre1 * 0.01  # negative side of the leaky rectifier
    act2 = pre2
    expected = -0.63385 * act1 + -0.04506 * act2 + 0.24580
    assert expected == pytest.approx(0.23697, abs=5e-6)
    assert eta_values(SystemSpec("mlp"), [[0.0, 0.0]])[0] == pytest.approx(expected, abs=1e-12)


def test_polynomial_and_narx_points():
    assert eta_values(SystemSpec("polynomial"), [[2.0, 1.0]])[0] == pytest.approx(
        0.6 * 4 - 0.4 * 1, abs=1e-12
    )
    d, u = 0.5, 1.5
    expected = (0.8 - 0.5 * math.exp(-0.25)) * d + 1.0 * u**2
    assert eta_values(SystemSpec("narx"), [[d, u]])[0] == pytest.approx(expected, abs=1e-12)


def test_eta_values_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="inputs must have 2 coordinates, got 3"):
        eta_values(SystemSpec("linear"), [[1.0, 2.0, 3.0]])


def test_drift_zero_is_bitwise_nominal():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 2))
    for family in ("linear", "polynomial", "trigonometric", "mlp", "arx", "narx"):
        spec = SystemSpec(family, (0.0, 0.0), seed=1)
        assert np.array_equal(eta_values(spec, x), eta_values(spec.nominal(), x))


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec("cubic")
    with pytest.raises(ValueError):
        SystemSpec("linear", (math.nan, 0.0))


def test_spec_delta_is_exactly_two_entries_of_any_iterable():
    with pytest.raises(ValueError, match="delta must have 2 entries, got 3"):
        SystemSpec("linear", (0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="delta must have 2 entries, got 1"):
        SystemSpec("linear", [0.1])
    assert SystemSpec("linear", (v for v in (0.1, 0.2))).delta == (0.1, 0.2)


def test_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SystemSpec("linear", seed=-1)


def test_spec_takes_integer_seeds_only():
    with pytest.raises(TypeError):
        SystemSpec("linear", seed=1.5)
    assert type(SystemSpec("linear", seed=np.int64(3)).seed) is int


def test_spec_takes_no_coefficient_overrides():
    with pytest.raises(TypeError, match="coefficients"):
        SystemSpec("linear", coefficients={"c1": 1.0})


def test_equal_specs_hash_equal_and_key_a_dict():
    spec = SystemSpec("narx", (0.1, -0.05), seed=3)
    twin = SystemSpec("narx", [0.1, -0.05], seed=np.int64(3))
    assert spec == twin and hash(spec) == hash(twin)
    assert {spec: "drifted"}[twin] == "drifted"


# ------------------------------------------------------------- forward draws

@pytest.mark.parametrize("seed", range(3))
def test_streams_are_the_named_children_of_the_seed(seed):
    children = np.random.SeedSequence(seed).spawn(4)
    for sources in [(0, 1, 3), (0, 2, 3), (3,)]:
        expected = [np.random.default_rng(children[i]).bit_generator.state for i in sources]
        assert [stream.bit_generator.state for stream in _streams(seed, *sources)] == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_draws_its_sources_from_the_children_of_the_seed(family):
    n = 50
    for seed in range(3):
        spec = SystemSpec(family, (0.1, -0.05), seed=seed)
        c = COEFFICIENTS
        rng_u, rng_s, rng_h, rng_w = (np.random.default_rng(child)
                                      for child in np.random.SeedSequence(seed).spawn(4))
        u = rng_u.uniform(c["a_u"], c["b_u"], n)
        w = rng_w.uniform(c["a_w"], c["b_w"], n)
        if family in AR_FAMILIES:
            _, y = ar_path(spec, u, rng_h.normal(c["mu_h"], c["sigma_h"], n), w)
            expected = np.column_stack([np.concatenate([[c["d0"]], y[:-1]]), u, y])
        else:
            s = rng_s.normal(c["mu_s"], c["sigma_s"], n)
            expected = np.column_stack([u, s, forward_response(spec, u, s, w)])
        assert sample_system(spec, n).data.tobytes() == expected.tobytes()


def test_forward_sampling_is_replayable():
    spec = SystemSpec("polynomial", (0.05, -0.02), seed=42)
    a = sample_system(spec, 50)
    b = sample_system(spec, 50)
    assert np.array_equal(a.data, b.data)


def test_forward_sampling_has_the_prefix_property():
    spec = SystemSpec("linear", seed=7)
    short = sample_system(spec, 500)
    long = sample_system(spec, 2000)
    assert np.array_equal(long.data[:500], short.data)


def test_input_and_noise_moments():
    spec = SystemSpec("linear", seed=3)
    sample = sample_system(spec, 100_000)
    u, s = sample.x[:, 0], sample.x[:, 1]
    residual = sample.response[:, 0] - eta_values(spec, sample.x)
    assert -0.02 < u.mean() < 0.02
    assert 0.48 < s.mean() < 0.52
    assert -0.002 < residual.mean() < 0.002
    assert abs(u.var() - 4 / 3) < 0.03 * (4 / 3)
    assert abs(s.var() - 4 / 3) < 0.03 * (4 / 3)
    assert abs(residual.var() - 1 / 300) < 0.03 * (1 / 300)


def test_linear_and_polynomial_residual_identities():
    # exact decomposition of the drifted residual, with explicit noise draws
    rng = np.random.default_rng(8)
    u = rng.uniform(-2, 2, 1000)
    s = rng.normal(0.5, 2 * math.sqrt(3) / 3, 1000)
    w = rng.uniform(-0.1, 0.1, 1000)
    d1, d2 = 0.07, -0.11

    linear = SystemSpec("linear", (d1, d2))
    y = forward_response(linear, u, s, w)
    r = y - eta_values(linear.nominal(), np.column_stack([u, s]))
    np.testing.assert_allclose(r, d1 * u + d2 * s + w, atol=1e-12)

    poly = SystemSpec("polynomial", (d1, d2))
    y = forward_response(poly, u, s, w)
    r = y - eta_values(poly.nominal(), np.column_stack([u, s]))
    np.testing.assert_allclose(r, d1 * u**2 + d2 * s**3 + w, atol=1e-12)


def test_trigonometric_noise_map():
    spec = SystemSpec("trigonometric")
    w = np.array([-0.1, 0.0, 0.1])
    np.testing.assert_allclose(noise_values(spec, w), 1.5 * np.sin(w), atol=1e-15)


# ------------------------------------------------------- autoregressive draws

def test_arx_recurrence_with_silent_noise():
    spec = SystemSpec("arx")
    states, observed = ar_path(spec, u=np.ones(3), h=np.zeros(3), w=np.zeros(3))
    np.testing.assert_allclose(states, [-0.4, -0.64, -0.784], atol=1e-15)
    np.testing.assert_allclose(observed, states, atol=0)


def test_narx_zero_input_fixed_point():
    spec = SystemSpec("narx")
    states, _ = ar_path(spec, u=np.zeros(5), h=np.zeros(5), w=np.zeros(5))
    np.testing.assert_allclose(states, np.zeros(5), atol=0)


def test_arx_residual_identity_at_machine_precision():
    rng = np.random.default_rng(12)
    n = 500
    u = rng.uniform(-2, 2, n)
    h = rng.normal(0.0, 0.1, n)
    w = rng.uniform(-0.1, 0.1, n)
    d1, d2 = 0.04, -0.09
    spec = SystemSpec("arx", (d1, d2))
    states, observed = ar_path(spec, u, h, w)
    y_prev = np.concatenate([[0.0], observed[:-1]])
    residual = observed - eta_values(spec.nominal(), np.column_stack([y_prev, u]))
    d_prev = np.concatenate([[0.0], states[:-1]])
    w_prev = np.concatenate([[0.0], w[:-1]])
    expected = d1 * d_prev + d2 * u - 0.6 * w_prev + h + w
    np.testing.assert_allclose(residual, expected, atol=1e-12)


def _draws(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, n), rng.normal(0.0, 0.1, n), rng.uniform(-0.1, 0.1, n)


def _assert_path_is_stepwise_eta(spec, u, h, w):
    """Every state is eta_values at (previous state, input) plus h, to the bit."""
    states, observed = ar_path(spec, u, h, w)
    previous = np.concatenate([[COEFFICIENTS["d0"]], states[:-1]])
    stepwise = np.array([eta_values(spec, [[d, u_j]])[0] + h_j
                         for d, u_j, h_j in zip(previous, u, h)])
    assert states.tobytes() == stepwise.tobytes()
    assert observed.tobytes() == (states + w).tobytes()


COEFFICIENT = st.floats(-1.5, 1.5)


@given(
    family=st.sampled_from(["arx", "narx"]),
    delta=st.tuples(COEFFICIENT, COEFFICIENT),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
)
@settings(max_examples=60, deadline=None)
def test_ar_path_equals_the_stepwise_eta(family, delta, seed, n):
    spec = SystemSpec(family, delta)
    _assert_path_is_stepwise_eta(spec, *_draws(seed, n))


def test_narx_path_takes_exp_from_numpy():
    # With these draws math.exp and numpy's exp kernel (x86-64 with AVX512F)
    # round the second state's exp differently, so a recurrence on math.exp
    # gives a path with different bytes.
    _assert_path_is_stepwise_eta(SystemSpec("narx", (0.15, 0.15)), *_draws(42, 300))


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("draw", ["h", "w"])
def test_ar_path_rejects_draws_of_unequal_length(draw, length):
    draws = {"u": np.zeros(3), "h": np.zeros(3), "w": np.zeros(3)}
    draws[draw] = np.zeros(length)
    with pytest.raises(ValueError, match=f"equal lengths, got 3, .*{length}"):
        ar_path(SystemSpec("arx"), **draws)


def test_ar_path_rejects_draws_that_are_not_1d():
    with pytest.raises(ValueError, match="1-D"):
        ar_path(SystemSpec("narx"), u=np.zeros((3, 1)), h=np.zeros(3), w=np.zeros(3))


def test_ar_sampling_is_replayable_and_prefix_stable():
    spec = SystemSpec("narx", (0.0, 0.1), seed=5)
    a = sample_system(spec, 300)
    b = sample_system(spec, 300)
    assert np.array_equal(a.data, b.data)
    longer = sample_system(spec, 600)
    assert np.array_equal(longer.data[:300], a.data)


def test_ar_rows_pair_lagged_observation_with_exogenous_input():
    spec = SystemSpec("arx", seed=9)
    sample = sample_system(spec, 50)
    assert sample.data[0, 0] == COEFFICIENTS["d0"]
    np.testing.assert_array_equal(sample.data[1:, 0], sample.data[:-1, 2])


def test_sample_system_dispatches_by_family():
    assert sample_system(SystemSpec("linear", seed=1), 10).n == 10
    assert sample_system(SystemSpec("arx", seed=1), 10).n == 10


@pytest.mark.parametrize("make", [
    lambda: sample_system(SystemSpec("linear"), 300.5),
    lambda: sample_system(SystemSpec("narx"), 3.0),
    lambda: sample_residuals(SystemSpec("linear"), 300.5),
    lambda: JointSample(np.ones((3, 2)), 1.0, 1),
    lambda: JointSample(np.ones((3, 2)), 1, 1.0),
], ids=["forward-n", "ar-n", "residual-n", "joint-p", "joint-q"])
def test_a_float_size_is_refused_before_any_draw(monkeypatch, make):
    def refuse(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(systems, "_streams", refuse)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        make()


def test_sizes_read_numpy_integers_as_python_ints():
    spec = SystemSpec("narx", seed=2)
    drawn = sample_system(spec, np.int64(40))
    assert drawn.data.tobytes() == sample_system(spec, 40).data.tobytes()
    sample = JointSample(np.ones((3, 2)), np.int64(1), np.int32(1))
    assert type(sample.p) is type(sample.q) is int and sample.x.shape == (3, 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_residual_sample_is_the_residuals_of_a_system_draw(family):
    spec = SystemSpec(family, (0.1, -0.05), seed=4)
    expected = residuals(sample_system(spec, 500), nominal_model(spec))
    assert sample_residuals(spec, 500).data.tobytes() == expected.data.tobytes()


def test_a_residual_sample_has_the_prefix_property():
    spec = SystemSpec("narx", (0.1, -0.05), seed=4)
    short, long = sample_residuals(spec, 500), sample_residuals(spec, 2000)
    assert long.data[:500].tobytes() == short.data.tobytes()


def test_describe_eta_mentions_the_coefficients():
    text = describe_eta(SystemSpec("linear"))
    assert "0.6" in text and "-0.4" in text
