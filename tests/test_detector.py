import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import SCHEDULE
from rivkit import (
    Decision,
    DecisionTrace,
    JointSample,
    SystemSpec,
    UNRESOLVED,
    collapse_time,
    decide,
    emi,
    estimate_error_rate,
    run_scheme,
)
from rivkit import detector
from rivkit.detector import trial_seed
from rivkit.partition import CHUNK
from rivkit.systems import sample_residuals


# --------------------------------------------------------------------- decide

def test_decide_thresholding_includes_the_boundary():
    assert decide(0.0, 0.01, 10).value == 0
    assert decide(0.01, 0.01, 10).value == 1
    assert decide(0.5, 0.01, 10).value == 1


def test_decide_validation():
    with pytest.raises(ValueError):
        decide(float("nan"), 0.01, 10)
    with pytest.raises(ValueError):
        decide(0.1, float("inf"), 10)
    with pytest.raises(ValueError):
        decide(0.1, 0.0, 10)


def test_decide_monotonicity():
    for threshold in (0.01, 0.1, 1.0):
        values = [decide(e, threshold, 5).value for e in (0.0, 0.05, 0.5, 2.0)]
        assert values == sorted(values)
    for emi_value in (0.0, 0.05, 0.5):
        values = [decide(emi_value, t, 5).value for t in (0.01, 0.1, 1.0)]
        assert values == sorted(values, reverse=True)


# ----------------------------------------------------------------- run_scheme

def test_scheme_accepts_h0_on_an_independent_source():
    sample = sample_residuals(SystemSpec("linear", (0.0, 0.0), seed=1), 2000)
    trace = run_scheme(sample, SCHEDULE, [500, 2000])
    assert [d.value for d in trace.decisions] == [0, 0]


def test_scheme_rejects_a_perfectly_dependent_source():
    z = np.random.default_rng(0).standard_normal(2000)
    trace = run_scheme(JointSample(np.column_stack([z, z]), 1, 1), SCHEDULE, [2000])
    assert trace.decisions[0].value == 1


def test_scheme_detects_source_exhaustion():
    tiny = JointSample(np.arange(10.0).reshape(5, 2), 1, 1)
    with pytest.raises(ValueError, match="^checkpoint 10 is beyond the sample's 5 rows$"):
        run_scheme(tiny, SCHEDULE, [10])


def test_scheme_checkpoint_validation(monkeypatch):
    sample = sample_residuals(SystemSpec("linear", seed=0), 500)
    with pytest.raises(ValueError, match="^checkpoints must be non-empty$"):
        run_scheme(sample, SCHEDULE, [])
    with pytest.raises(ValueError, match="^checkpoints must be strictly increasing$"):
        run_scheme(sample, SCHEDULE, [500, 500])

    def refuse(*args):
        raise AssertionError("a reading was made")

    monkeypatch.setattr(detector, "emi", refuse)
    for checkpoints in ([1, 10], [0, 10]):
        with pytest.raises(ValueError, match="^n must be at least 2$"):
            run_scheme(sample, SCHEDULE, checkpoints)


def test_scheme_traces_are_prefix_consistent():
    sample = sample_residuals(SystemSpec("linear", (0.15, 0.0), seed=3), 1600)
    small = run_scheme(sample, SCHEDULE, [400, 1600])
    large = run_scheme(sample, SCHEDULE, [400, 800, 1600])
    assert small.decisions[0] == large.decisions[0]
    assert small.decisions[1] == large.decisions[2]
    assert run_scheme(sample, SCHEDULE, np.array([400, 1600])) == small


def test_a_scheme_reads_only_the_prefixes_it_names():
    sample = sample_residuals(SystemSpec("linear", (0.15, 0.0), seed=3), 2000)
    data = sample.data.copy()
    data[1600:, 2] = data[1600:, 0]  # rows past the last checkpoint: residual = x1
    altered = JointSample(data, sample.p, sample.q)
    assert emi(altered, SCHEDULE).emi != emi(sample, SCHEDULE).emi  # a whole reading sees them
    checkpoints = [400, 800, 1600]
    trace = run_scheme(altered, SCHEDULE, checkpoints)
    assert trace == run_scheme(sample, SCHEDULE, checkpoints)
    for n, decision in zip(checkpoints, trace.decisions):
        assert decision == decide(emi(sample.head(n), SCHEDULE).emi, SCHEDULE.a(n), n)


@pytest.mark.parametrize("checkpoints", [[300.5, 600.9], [300, 600.0]])
def test_scheme_refuses_a_float_checkpoint(checkpoints):
    sample = sample_residuals(SystemSpec("linear"), 600)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        run_scheme(sample, SCHEDULE, checkpoints)


# -------------------------------------------------------------- collapse_time

def trace_from_bits(bits):
    checkpoints = tuple(range(1, len(bits) + 1))
    decisions = tuple(
        Decision(value=b, emi=float(b), threshold=0.5, n=c)
        for b, c in zip(bits, checkpoints)
    )
    return DecisionTrace(decisions)


def test_collapse_time_of_a_constant_correct_trace_is_zero():
    assert collapse_time(trace_from_bits([0, 0, 0]), 0) == 0
    assert collapse_time(trace_from_bits([1, 1]), 1) == 0


def test_collapse_time_is_the_last_wrong_checkpoint():
    assert collapse_time(trace_from_bits([0, 1, 0, 0]), 0) == 2
    assert collapse_time(trace_from_bits([1, 0, 1, 1]), 1) == 2


def test_collapse_time_unresolved_when_the_trace_ends_wrong():
    assert collapse_time(trace_from_bits([0, 0, 1]), 0) is UNRESOLVED
    assert collapse_time(trace_from_bits([1, 0]), 1) is UNRESOLVED


def test_collapse_time_validates_the_target():
    with pytest.raises(ValueError):
        collapse_time(trace_from_bits([0]), 2)


def test_trace_validation():
    with pytest.raises(ValueError):
        DecisionTrace((Decision(0, 0.0, 0.5, 2), Decision(0, 0.0, 0.5, 1)))


# --------------------------------------------------------- error-rate trials

def test_h0_trials_do_not_reject():
    estimate = estimate_error_rate(
        SystemSpec("linear", (0.0, 0.0), seed=11), SCHEDULE, 2000, 20
    )
    assert estimate.kind == "significance"
    assert estimate.rate <= 0.05


def test_h1_trials_reject():
    estimate = estimate_error_rate(
        SystemSpec("linear", (0.15, 0.15), seed=11), SCHEDULE, 2000, 10
    )
    assert estimate.kind == "power"
    assert estimate.rate >= 0.9


def test_error_rate_counts_the_rejections_of_one_trial_at_a_time():
    system = SystemSpec("linear", (0.01, 0.0), seed=3)
    trials, n = 2 * CHUNK + 1, 500
    decisions = [
        decide(emi(sample_residuals(replace(system, seed=trial_seed(3, t)), n), SCHEDULE).emi,
               SCHEDULE.a(n), n).value
        for t in range(trials)]
    assert 0 < sum(decisions) < trials  # both outcomes occur
    estimate = estimate_error_rate(system, SCHEDULE, n, trials)
    assert estimate.rejections == sum(decisions)


def test_error_rate_memory_does_not_grow_with_the_trial_count():
    system = SystemSpec("linear", (0.15, 0.15), seed=0)

    def peak(trials):
        tracemalloc.start()
        try:
            estimate_error_rate(system, SCHEDULE, 2000, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(CHUNK)  # first calls allocate caches that later calls reuse
    short, long = peak(2 * CHUNK), peak(20 * CHUNK)
    assert long <= 1.05 * short, (short, long)
    assert long <= 1.5e6, long


def test_error_rate_validation():
    h0 = SystemSpec("linear", (0.0, 0.0), seed=0)
    with pytest.raises(ValueError):
        estimate_error_rate(h0, SCHEDULE, 2000, 0)


def test_error_rate_rejects_one_row_before_drawing(monkeypatch):
    def refuse(spec, n):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(detector, "sample_system", refuse)
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        estimate_error_rate(SystemSpec("linear", (0.1, 0.1)), SCHEDULE, 1, 5)


@pytest.mark.parametrize("n, trials", [(300.5, 2), (300, 2.0)])
def test_error_rate_refuses_a_float_size_or_trial_count_before_drawing(monkeypatch, n, trials):
    def refuse(spec, n):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(detector, "sample_system", refuse)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        estimate_error_rate(SystemSpec("linear"), SCHEDULE, n, trials)


def test_error_rate_reads_numpy_integers():
    system = SystemSpec("linear", (0.15, 0.15))
    estimate = estimate_error_rate(system, SCHEDULE, np.int64(300), np.int32(2))
    assert estimate == estimate_error_rate(system, SCHEDULE, 300, 2)
    assert type(estimate.n) is type(estimate.trials) is int


# --------------------------------------------- empirical consistency behavior

def test_correct_decision_fraction_is_nondecreasing_in_n():
    checkpoints = [500, 2000, 8000]
    for delta, truth in (((0.0, 0.0), 0), ((0.15, 0.15), 1)):
        correct = np.zeros(3)
        for seed in range(10):
            sample = sample_residuals(SystemSpec("linear", delta, seed=seed), checkpoints[-1])
            trace = run_scheme(sample, SCHEDULE, checkpoints)
            correct += [d.value == truth for d in trace.decisions]
        assert list(correct) == sorted(correct), (delta, list(correct))


def test_h0_traces_settle_faster_at_larger_sample_sizes():
    early, late = [], []
    for seed in range(10):
        spec = SystemSpec("linear", (0.0, 0.0), seed=seed)
        early.append(collapse_time(run_scheme(sample_residuals(spec, 500), SCHEDULE,
                                              [125, 250, 500]), 0) == 0)
        late.append(collapse_time(run_scheme(sample_residuals(spec, 2000), SCHEDULE,
                                             [500, 1000, 2000]), 0) == 0)
    assert sum(late) > sum(early)
