"""Shared helpers for the test suite."""

import math

import numpy as np

from rivkit import (
    JointSample,
    PartitionTree,
    Schedule,
    SystemSpec,
    count_term,
    emi,
    nominal_model,
    riv,
)
from rivkit.systems import sample_system

SCHEDULE = Schedule()  # the reported defaults: lambda=2.3e-5, w=0.05, l=0.167, a0=0.1


def pipeline_report(family: str, delta, n: int, seed: int, schedule: Schedule = SCHEDULE):
    """Full pipeline on one seeded system: sample, residuals, EMI report."""
    spec = SystemSpec(family, tuple(delta), seed=seed)
    sample = sample_system(spec, n)
    return riv(sample, nominal_model(spec), schedule)


def gaussian_pair(seed: int, n: int, rho: float) -> JointSample:
    """n draws of a correlated standard bivariate Gaussian."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return JointSample(
        np.column_stack([z1, rho * z1 + math.sqrt(1.0 - rho * rho) * z2]), p=1, q=1
    )


def gaussian_emi(seed: int, n: int, rho: float, schedule: Schedule = SCHEDULE):
    return emi(gaussian_pair(seed, n, rho), schedule)


def emi_fixed_partition(samples: JointSample, tree: PartitionTree) -> float:
    """Unclamped information sum of a fixed partition, counts refreshed.

    Every leaf's joint and block-marginal counts are recomputed against
    ``samples``; the tree only supplies the cell geometry. Test seam for
    hand-checkable partitions.
    """
    p, q, n = samples.p, samples.q, samples.n
    if (tree.p, tree.q) != (p, q):
        raise ValueError(f"tree is ({tree.p}, {tree.q})-dimensional, sample is ({p}, {q})")
    lower, upper = tree.boxes()
    total, covered = 0.0, 0
    for leaf in tree.leaf_ids():
        inside = (samples.data >= lower[leaf]) & (samples.data < upper[leaf])
        in_x, in_r = inside[:, :p].all(axis=1), inside[:, p:].all(axis=1)
        m = int(np.count_nonzero(in_x & in_r))
        covered += m
        total += count_term(m, int(np.count_nonzero(in_x)), int(np.count_nonzero(in_r)), n)
    if covered != n:
        raise ValueError("tree leaves do not cover the sample space")
    return total
