"""Threshold decision rule, decision schemes, and error-rate estimation.

A decision compares the residual information value against the vanishing
threshold a_n = a0 * n**(-1/6); the boundary rejects. Decision traces over
growing sample prefixes expose collapse-time accounting, and Monte Carlo
over seeded systems estimates significance level and power.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .estimator import Schedule, emi
from .partition import grow_batch
from .pipeline import residuals
from .samples import JointSample
# eta_values is not called here, but perfbench's tracer patches it at this
# import site, so it must stay importable from it.
from .systems import SystemSpec, eta_values, nominal_model, sample_system  # noqa: F401

# Finite traces cannot certify the supremum in the collapse-time definition
# when the last observed decision is still wrong.
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class Decision:
    """One thresholded decision: 1 rejects the no-drift hypothesis."""

    value: int
    emi: float
    threshold: float
    n: int


@dataclass(frozen=True)
class DecisionTrace:
    """Decisions at strictly increasing sample sizes, which are its checkpoints."""

    decisions: Tuple[Decision, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")

    @property
    def checkpoints(self) -> Tuple[int, ...]:
        return tuple(d.n for d in self.decisions)


@dataclass(frozen=True)
class ErrorRateEstimate:
    """Empirical rejection rate: significance under H0, power under H1."""

    kind: str
    trials: int
    rejections: int
    n: int

    @property
    def rate(self) -> float:
        return self.rejections / self.trials


def decide(emi_value: float, threshold: float, n: int) -> Decision:
    """Reject when the estimated information reaches the threshold."""
    if not (math.isfinite(emi_value) and math.isfinite(threshold)):
        raise ValueError("emi and threshold must be finite")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return Decision(value=int(emi_value >= threshold), emi=emi_value,
                    threshold=threshold, n=n)


def run_scheme(sample: JointSample, schedule: Schedule,
               checkpoints: Sequence[int]) -> DecisionTrace:
    """Apply the decision rule to the first n rows of ``sample`` at each checkpoint.

    A checkpoint below 2 or beyond the sample's rows is an error.
    """
    checkpoints = tuple(operator.index(c) for c in checkpoints)  # numpy ints pass, floats do not
    if not checkpoints:
        raise ValueError("checkpoints must be non-empty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints[0] < 2:
        raise ValueError("n must be at least 2")
    if checkpoints[-1] > sample.n:
        raise ValueError(f"checkpoint {checkpoints[-1]} is beyond the sample's {sample.n} rows")
    return DecisionTrace(tuple(decide(emi(sample.head(n), schedule).emi, schedule.a(n), n)
                               for n in checkpoints))


def collapse_time(trace: DecisionTrace, i: int) -> Union[int, str]:
    """Largest checkpoint still deciding against hypothesis ``i``.

    Returns 0 when every decision equals i, and the UNRESOLVED sentinel when
    the final decision is still wrong (the trace only bounds the supremum).
    """
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    wrong = [c for c, d in zip(trace.checkpoints, trace.decisions) if d.value != i]
    if not wrong:
        return 0
    if wrong[-1] == trace.checkpoints[-1]:
        return UNRESOLVED
    return wrong[-1]


def trial_seed(base_seed: int, *index: int) -> int:
    """Derived seed for one Monte Carlo trial or grid cell, stable as their count grows.

    The seed has 32 bits, so two trials can share one: at base seed 0,
    trials 2983 and 68855 do, and so do 50699 and 55170.
    """
    return int(np.random.SeedSequence((base_seed, *index)).generate_state(1)[0])


def estimate_error_rate(system: SystemSpec, schedule: Schedule, n: int,
                        trials: int) -> ErrorRateEstimate:
    """Monte Carlo rejection rate of the full pipeline on a seeded system.

    Each trial is one sample of ``rejections``, its seed derived from the
    system's by ``trial_seed``. The rate is the power on a drifted system and
    the significance level on one with delta = (0, 0).
    """
    n, trials = operator.index(n), operator.index(trials)  # numpy ints pass, floats do not
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n < 2:
        raise ValueError("n must be at least 2")
    seeds = (trial_seed(system.seed, t) for t in range(trials))
    kind = "power" if system.delta != (0.0, 0.0) else "significance"
    return ErrorRateEstimate(kind=kind, trials=trials,
                             rejections=rejections(system, seeds, schedule, n), n=n)


def rejections(system: SystemSpec, seeds: Iterable[int], schedule: Schedule, n: int) -> int:
    """How many samples of n rows, one per seed, the full pipeline rejects.

    Each seed's sample is drawn from ``system`` with that seed, and its
    residuals are formed against the nominal model, built once. The
    partitions are grown together by ``grow_batch``, a few samples at a
    time, so memory does not grow with the number of seeds.
    """
    model = nominal_model(system)
    samples = (residuals(sample_system(replace(system, seed=seed), n), model) for seed in seeds)
    return sum(decide(emi(sample, schedule, tree).emi, schedule.a(n), n).value
               for sample, tree in grow_batch(samples, schedule.cell_cap(n)))
