"""Estimated mutual information over complexity-regularized tree partitions.

The estimator grows a statistically equivalent partition of the joint
sample (cells capped at n*b_n samples), prunes it under a per-leaf penalty
lambda * sqrt(n * ln(8/d_n)), and sums the empirical information over the
surviving leaves:

    EMI = sum over leaves of P_n(A) * ln(P_n(A) / Q_n(A))

where P_n is the empirical joint probability of the cell and Q_n the
product of its empirical block marginals. The parameter laws are

    b_n = w * n**(-l),  d_n = exp(n**(-1/3)),  a_n = a0 * n**(-1/6)

with l in (0, 1/3). Everything is in nats. ``emi`` works on the
partition's node arrays alone and builds no box or node view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .partition import PartitionTree, count_term, grow_tree, prune_tree
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
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.w <= 0:
            raise ValueError("w must be positive")
        if not 0 < self.l < 1 / 3:
            raise ValueError("l must lie in (0, 1/3)")
        if self.a0 <= 0:
            raise ValueError("a0 must be positive")

    def b(self, n: int) -> float:
        self._check_n(n)
        return self.w * n ** (-self.l)

    def d(self, n: int) -> float:
        self._check_n(n)
        return math.exp(n ** (-1 / 3))

    def a(self, n: int) -> float:
        self._check_n(n)
        return self.a0 * n ** (-1 / 6)

    def at(self, n: int) -> Tuple[float, float, float]:
        """(b_n, d_n, a_n) at sample size n."""
        return self.b(n), self.d(n), self.a(n)

    def leaf_penalty(self, n: int) -> float:
        """Per-leaf pruning rate sqrt(n * ln(8/d_n)), scaled by lam in the DP."""
        d = self.d(n)
        if d >= 8:
            raise ValueError("d_n must stay below 8 for a positive penalty")
        return math.sqrt(n * math.log(8 / d))

    @staticmethod
    def _check_n(n: int):
        if n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class EmiReport:
    """Estimated mutual information plus the partition it came from."""

    emi: float
    leaf_count: int
    n: int
    p: int
    q: int
    schedule_values: Tuple[float, float, float]

    @property
    def collapsed(self) -> bool:
        """True when the pruned partition is the single trivial cell."""
        return self.leaf_count == 1


def emi(samples: JointSample, schedule: Schedule) -> EmiReport:
    """Estimated mutual information between the two blocks of a joint sample.

    Grows the partition with max_cell = n * b_n, prunes it at the schedule's
    penalty, and returns the leaf information sum clamped at zero from below
    (a collapsed partition gives exactly 0). Deterministic.
    """
    n = samples.n
    if n < 2:
        raise ValueError("EMI needs at least 2 samples")
    b_n, d_n, a_n = schedule.at(n)
    grown = grow_tree(samples, max_cell=n * b_n)
    pruned = prune_tree(grown, schedule.lam, schedule.leaf_penalty(n))
    leaves = pruned.leaf_counts()
    total = 0.0
    for counts in leaves:
        total += count_term(*counts, n)
    return EmiReport(
        emi=max(0.0, total),
        leaf_count=len(leaves),
        n=n,
        p=samples.p,
        q=samples.q,
        schedule_values=(b_n, d_n, a_n),
    )


def emi_fixed_partition(samples: JointSample, tree: PartitionTree) -> float:
    """Unclamped information sum of a fixed partition, counts refreshed.

    Every leaf's joint and block-marginal counts are recomputed against
    ``samples``; the tree only supplies the cell geometry. Test seam for
    hand-checkable partitions.
    """
    p, q, n = samples.p, samples.q, samples.n
    if (tree.p, tree.q) != (p, q):
        raise ValueError(f"tree is ({tree.p}, {tree.q})-dimensional, sample is ({p}, {q})")
    total, covered = 0.0, 0
    for leaf in tree.leaves():
        inside = (samples.data >= leaf.box.lower) & (samples.data < leaf.box.upper)
        in_x, in_r = inside[:, :p].all(axis=1), inside[:, p:].all(axis=1)
        m = int(np.count_nonzero(in_x & in_r))
        covered += m
        total += count_term(m, int(np.count_nonzero(in_x)), int(np.count_nonzero(in_r)), n)
    if covered != n:
        raise ValueError("tree leaves do not cover the sample space")
    return total
