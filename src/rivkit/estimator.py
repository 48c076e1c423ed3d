"""Estimated mutual information over complexity-regularized tree partitions.

The estimator grows a statistically equivalent partition of the joint
sample (cells capped at n*b_n samples), prunes it under a per-leaf penalty
lambda * sqrt(n * ln(8/d_n)), and sums the empirical information over the
surviving leaves:

    EMI = sum over leaves of P_n(A) * ln(P_n(A) / Q_n(A))

where P_n is the empirical joint probability of the cell and Q_n the
product of its empirical block marginals. The parameter laws are

    b_n = w * n**(-l),  d_n = exp(n**(-1/3)),  a_n = a0 * n**(-1/6)

with l in (0, 1/3). Everything is in nats. ``emi`` reads the partition's
node counts alone, never its cell boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# prune_tree is not called here, but perfbench's tracer patches it at this
# import site, so it must stay importable from it.
from .partition import PartitionTree, _prune, grow_tree, prune_tree  # noqa: F401
from .samples import JointSample

DEFAULT_LAMBDA = 2.3e-5
DEFAULT_W = 0.05
DEFAULT_L = 0.167
DEFAULT_A0 = 0.1


@dataclass(frozen=True)
class Schedule:
    """Estimator/detector parameter laws evaluated at any sample size."""

    lam: float = DEFAULT_LAMBDA
    w: float = DEFAULT_W
    l: float = DEFAULT_L
    a0: float = DEFAULT_A0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 < self.w < math.inf:
            raise ValueError("w must be positive and finite")
        if not 0 < self.l < 1 / 3:
            raise ValueError("l must lie in (0, 1/3)")
        if not 0 < self.a0 < math.inf:
            raise ValueError("a0 must be positive and finite")

    def b(self, n: int) -> float:
        self._check_n(n)
        return self.w * n ** (-self.l)

    def d(self, n: int) -> float:
        self._check_n(n)
        return math.exp(n ** (-1 / 3))

    def a(self, n: int) -> float:
        self._check_n(n)
        return self.a0 * n ** (-1 / 6)

    def cell_cap(self, n: int) -> float:
        """Most samples a grown cell may hold, n * b_n; the tree's max_cell."""
        return n * self.b(n)

    def leaf_penalty(self, n: int) -> float:
        """The pruning DP's per-leaf penalty, lam * sqrt(n * ln(8/d_n))."""
        return self.lam * math.sqrt(n * math.log(8 / self.d(n)))

    @staticmethod
    def _check_n(n: int):
        if n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class EmiReport:
    """Estimated mutual information plus the partition it came from."""

    emi: float
    leaf_count: int

    @property
    def collapsed(self) -> bool:
        """True when the pruned partition is the single trivial cell."""
        return self.leaf_count == 1


def emi(samples: JointSample, schedule: Schedule,
        grown: Optional[PartitionTree] = None) -> EmiReport:
    """Estimated mutual information between the two blocks of a joint sample.

    Grows the partition with max_cell = ``schedule.cell_cap(n)`` (n * b_n),
    prunes it at the schedule's penalty, and returns the leaf information
    sum clamped at zero from below (a collapsed partition gives exactly 0).
    The pruning and the leaf sum are one pass over the node arrays; the
    sum equals that of ``count_term`` over ``prune_tree(...).leaf_counts()``
    left to right. Deterministic. ``grown``, when given, is used instead of
    growing: it must be ``grow_tree(samples, schedule.cell_cap(n))``, as
    ``grow_batch`` yields it, and only its n, p and q are checked against
    the sample.
    """
    n = samples.n
    if n < 2:
        raise ValueError("EMI needs at least 2 samples")
    if grown is None:
        grown = grow_tree(samples, max_cell=schedule.cell_cap(n))
    elif (grown.n, grown.p, grown.q) != (n, samples.p, samples.q):
        raise ValueError(f"tree of (n, p, q) = {(grown.n, grown.p, grown.q)} was not grown "
                         f"from this sample of {(n, samples.p, samples.q)}")
    _, _, total, leaf_count = _prune(grown, schedule.leaf_penalty(n))
    return EmiReport(emi=max(0.0, total), leaf_count=leaf_count)
