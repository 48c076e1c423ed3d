"""Threshold decision rule, decision schemes, and error-rate estimation.

A decision compares the residual information value against the vanishing
threshold a_n = a0 * n**(-1/6); the boundary rejects. Decision traces over
growing sample prefixes expose collapse-time accounting, and Monte Carlo
over seeded systems estimates significance level and power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .estimator import Schedule, emi
from .samples import JointSample
# eta_values and sample_system are not called here, but perfbench's tracer
# patches them at this import site, so they must stay importable from it.
from .systems import SystemSpec, eta_values, residual_source, sample_system  # noqa: F401

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
    """Decisions indexed by strictly increasing sample-size checkpoints."""

    checkpoints: Tuple[int, ...]
    decisions: Tuple[Decision, ...]

    def __post_init__(self):
        if len(self.checkpoints) != len(self.decisions):
            raise ValueError("one decision per checkpoint")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        for ckpt, decision in zip(self.checkpoints, self.decisions):
            if decision.n != ckpt:
                raise ValueError("decision sample sizes must match checkpoints")


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


def run_scheme(sample_source: Callable[[int], JointSample], schedule: Schedule,
               checkpoints: Sequence[int]) -> DecisionTrace:
    """Apply the decision rule at each checkpoint of a growing sample.

    ``sample_source(n)`` must return the first n rows of a replayable joint
    stream, so larger checkpoints extend smaller ones. Exhaustion before the
    largest checkpoint is an error.
    """
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be non-empty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    largest = sample_source(checkpoints[-1])
    if largest.n < checkpoints[-1]:
        raise ValueError(
            f"source exhausted: {largest.n} rows available, {checkpoints[-1]} requested"
        )
    decisions = []
    for n in checkpoints:
        report = emi(largest.head(n), schedule)
        decisions.append(decide(report.emi, schedule.a(n), n))
    return DecisionTrace(checkpoints=checkpoints, decisions=tuple(decisions))


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


def trial_seed(base_seed: int, trial: int) -> int:
    """Derived seed for one Monte Carlo trial, stable across trial counts."""
    return int(np.random.SeedSequence((base_seed, trial)).generate_state(1)[0])


def estimate_error_rate(system: SystemSpec, schedule: Schedule, n: int,
                        trials: int, truth: str) -> ErrorRateEstimate:
    """Monte Carlo rejection rate of the full pipeline on a seeded system.

    Each trial draws a fresh sample from the (possibly drifted) system,
    forms residuals against the nominal model, and thresholds the EMI at
    a_n. ``truth`` must match the system's drift: H0 needs delta = (0, 0).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if truth not in ("H0", "H1"):
        raise ValueError("truth must be 'H0' or 'H1'")
    drifted = system.delta != (0.0, 0.0)
    if drifted == (truth == "H0"):
        raise ValueError(f"delta {system.delta} is inconsistent with {truth}")
    threshold = schedule.a(n)
    rejections = 0
    for t in range(trials):
        spec = replace(system, seed=trial_seed(system.seed, t))
        report = emi(residual_source(spec)(n), schedule)
        rejections += decide(report.emi, threshold, n).value
    kind = "significance" if truth == "H0" else "power"
    return ErrorRateEstimate(kind=kind, trials=trials, rejections=rejections, n=n)
