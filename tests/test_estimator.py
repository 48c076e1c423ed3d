import math

import numpy as np
import pytest

from helpers import SCHEDULE, emi_fixed_partition, gaussian_emi, gaussian_pair
from rivkit import JointSample, Schedule, emi, grow_tree


# ------------------------------------------------------------ parameter laws

def test_schedule_matches_the_reported_values_at_n_2000():
    b_n, d_n, a_n = SCHEDULE.at(2000)
    assert abs(b_n - 0.014051) < 1e-6
    assert abs(d_n - 1.082605) < 1e-6
    assert a_n == pytest.approx(0.1 * 2000 ** (-1 / 6), rel=1e-12)


def test_schedule_laws_at_n_1():
    b_n, d_n, a_n = SCHEDULE.at(1)
    assert a_n == 0.1  # n**(-1/6) is exactly 1
    assert b_n == SCHEDULE.w
    assert d_n == pytest.approx(math.e, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        SCHEDULE.at(0)
    with pytest.raises(ValueError):
        Schedule(l=0.34)  # outside (0, 1/3)
    with pytest.raises(ValueError):
        Schedule(l=0.0)
    with pytest.raises(ValueError):
        Schedule(w=-1.0)
    with pytest.raises(ValueError):
        Schedule(lam=0.0)
    for name in ("lam", "w", "a0"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                Schedule(**{name: value})


def test_schedule_laws_decrease_in_n():
    ns = [10, 100, 1000, 10000]
    bs = [SCHEDULE.b(n) for n in ns]
    ds = [SCHEDULE.d(n) for n in ns]
    a_s = [SCHEDULE.a(n) for n in ns]
    assert bs == sorted(bs, reverse=True)
    assert a_s == sorted(a_s, reverse=True)
    assert ds == sorted(ds, reverse=True)
    assert all(1.0 < d <= math.e for d in ds)


# -------------------------------------------------- fixed-partition oracles

def corner_points():
    return JointSample(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 1, 1)


def test_quadrant_partition_of_independent_corners_gives_zero():
    pts = corner_points()
    tree = grow_tree(pts, max_cell=1, min_split=2)
    assert tree.leaf_count == 4
    assert emi_fixed_partition(pts, tree) == pytest.approx(0.0, abs=1e-15)


def test_quadrant_partition_of_diagonal_pairs_gives_ln_2():
    tree = grow_tree(corner_points(), max_cell=1, min_split=2)
    diagonal = JointSample(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), 1, 1)
    value = emi_fixed_partition(diagonal, tree)
    assert value == pytest.approx(math.log(2), abs=1e-15)


def test_trivial_partition_gives_zero_for_any_sample():
    rng = np.random.default_rng(0)
    sample = JointSample(rng.normal(size=(50, 2)), 1, 1)
    trivial = grow_tree(sample, max_cell=50)
    assert trivial.leaf_count == 1
    assert emi_fixed_partition(sample, trivial) == 0.0


def test_fixed_partition_dimension_mismatch():
    tree = grow_tree(corner_points(), max_cell=1, min_split=2)
    wide = JointSample(np.zeros((4, 3)) + np.arange(3), 2, 1)
    with pytest.raises(ValueError):
        emi_fixed_partition(wide, tree)


# ----------------------------------------------------------------- emi runs

def test_emi_rejects_tiny_samples():
    with pytest.raises(ValueError):
        emi(JointSample(np.array([[1.0, 2.0]]), 1, 1), SCHEDULE)


def test_collapsed_report_is_exactly_zero():
    report = gaussian_emi(seed=1, n=2000, rho=0.0)
    assert report.collapsed
    assert report.leaf_count == 1
    assert report.emi == 0.0


def test_emi_is_nonnegative_and_finite():
    for seed in range(5):
        for rho in (0.0, 0.6, 0.95):
            report = gaussian_emi(seed, 512, rho)
            assert math.isfinite(report.emi)
            assert report.emi >= 0.0


def test_emi_of_huge_finite_values_is_finite():
    # the midpoint of two order statistics near the float maximum must not
    # overflow to inf, which would leave the upper child empty
    huge = np.linspace(1e308, 1.7e308, 2000)
    noise = np.random.default_rng(8).normal(size=2000)
    report = emi(JointSample(np.column_stack([huge, noise]), 1, 1), SCHEDULE)
    assert math.isfinite(report.emi)
    tree = grow_tree(JointSample(np.column_stack([huge, huge]), 1, 1), max_cell=16)
    thresholds = tree.threshold[tree.left >= 0]
    assert ((thresholds >= 1e308) & (thresholds <= 1.7e308)).all()
    assert sum(joint for joint, _, _ in tree.leaf_counts()) == 2000


def test_mean_emi_grows_with_dependence_strength():
    means = []
    for rho in (0.0, 0.5, 0.9):
        values = [gaussian_emi(seed, 4096, rho).emi for seed in range(3)]
        means.append(np.mean(values))
    assert means[0] < means[1] < means[2]


def test_emi_invariant_under_positive_affine_relabeling():
    # affine maps commute with midpoints, so every membership test is
    # unchanged and the estimate is identical
    for seed in (3, 4):
        sample = gaussian_pair(seed, 700, 0.7)
        relabeled = sample.data.copy()
        relabeled[:, 0] = 4.0 * relabeled[:, 0] + 3.0
        relabeled[:, 1] = 0.25 * relabeled[:, 1]
        a = emi(sample, SCHEDULE).emi
        b = emi(JointSample(relabeled, 1, 1), SCHEDULE).emi
        assert a == b


def test_monotone_relabeling_preserves_cell_structure():
    # splits depend on ranks, so joint counts are rank-determined; only
    # marginal counts can shift, by out-of-cell points sitting strictly
    # between the two order statistics that define a midpoint threshold
    for seed in (3, 4):
        sample = gaussian_pair(seed, 700, 0.7)
        relabeled = sample.data.copy()
        relabeled[:, 0] = relabeled[:, 0] ** 3
        relabeled[:, 1] = np.exp(relabeled[:, 1])
        warped = JointSample(relabeled, 1, 1)
        cap = 700 * SCHEDULE.b(700)
        counts_a = [joint for joint, _, _ in grow_tree(sample, cap).leaf_counts()]
        counts_b = [joint for joint, _, _ in grow_tree(warped, cap).leaf_counts()]
        assert counts_a == counts_b
        assert emi(sample, SCHEDULE).emi == pytest.approx(
            emi(warped, SCHEDULE).emi, abs=0.01
        )


def test_emi_under_row_permutation_is_bit_identical():
    rng = np.random.default_rng(9)
    sample = gaussian_pair(11, 600, 0.4)
    permuted = JointSample(sample.data[rng.permutation(600)], 1, 1)
    assert emi(sample, SCHEDULE).emi == emi(permuted, SCHEDULE).emi


def test_strong_dependence_estimates_approach_from_below():
    oracle = -0.5 * math.log(1 - 0.9**2)
    for n in (1024, 4096, 16384):
        mean = np.mean([gaussian_emi(seed, n, 0.9).emi for seed in range(3)])
        assert 0.0 < mean < oracle


def test_h0_collapse_frequency_increases_with_n():
    small = sum(gaussian_emi(seed, 256, 0.0).collapsed for seed in range(10))
    large = sum(gaussian_emi(seed, 2048, 0.0).collapsed for seed in range(10))
    assert large >= small
    assert large >= 9
