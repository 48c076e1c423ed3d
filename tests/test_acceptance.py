"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is fixed here; seeds are 0..9 throughout.
"""

import math
import time

import numpy as np

from helpers import SCHEDULE, emi_fixed_partition, gaussian_emi, gaussian_pair, pipeline_report
from rivkit import (
    JointSample,
    GridSpec,
    SystemSpec,
    count_term,
    emi,
    estimate_error_rate,
    grow_tree,
    prune_tree,
    sweep_grid,
)
from rivkit.harness import evaluate_method

SEEDS = range(10)
A_2000 = SCHEDULE.a(2000)


def _criterion(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_nominal_partitions_collapse():
    start = time.perf_counter()
    reports = [pipeline_report("linear", (0.0, 0.0), 2000, seed) for seed in SEEDS]
    collapsed = sum(r.emi == 0.0 and r.collapsed for r in reports)
    elapsed = time.perf_counter() - start
    _criterion(
        1, collapsed >= 9 and elapsed < 10.0,
        f"linear delta=(0,0) n=2000: zero information value in {collapsed}/10 seeds "
        f"(need >= 9), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_reference_drift_is_detected():
    start = time.perf_counter()
    reports = [pipeline_report("linear", (0.15, 0.15), 2000, seed) for seed in SEEDS]
    detected = sum(r.emi >= A_2000 for r in reports)
    elapsed = time.perf_counter() - start
    _criterion(
        2, detected >= 9 and elapsed < 10.0,
        f"linear delta=(0.15,0.15) n=2000: detection in {detected}/10 seeds "
        f"(need >= 9, threshold {A_2000:.4f}), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_03_significance_level():
    start = time.perf_counter()
    estimate = estimate_error_rate(
        SystemSpec("linear", (0.0, 0.0), seed=0), SCHEDULE, 2000, 100
    )
    elapsed = time.perf_counter() - start
    _criterion(
        3, estimate.rate <= 0.05 and elapsed < 120.0,
        f"100 nominal trials at n=2000: rejection rate {estimate.rate:.3f} "
        f"(limit 0.05), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_04_correlation_blind_spot():
    start = time.perf_counter()
    mapcs = [
        evaluate_method("mapc", SystemSpec("polynomial", (0.15, 0.0), seed=s), 2000, SCHEDULE)
        for s in SEEDS
    ]
    detected = sum(
        pipeline_report("polynomial", (0.15, 0.0), 2000, s).emi >= A_2000 for s in SEEDS
    )
    elapsed = time.perf_counter() - start
    ok = np.mean(mapcs) <= 0.05 and detected >= 8 and elapsed < 30.0
    _criterion(
        4, ok,
        f"polynomial delta=(0.15,0): mean correlation {np.mean(mapcs):.3f} "
        f"(limit 0.05) while information detects {detected}/10 (need >= 8), "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_05_rmse_noise_floor():
    values = [
        evaluate_method("rmse", SystemSpec("linear", (0.0, 0.0), seed=s), 2000, SCHEDULE)
        for s in SEEDS
    ]
    floor = math.sqrt(1 / 300)
    mean = float(np.mean(values))
    ok = abs(mean - floor) <= 0.10 * floor
    _criterion(
        5, ok,
        f"linear delta=(0,0): mean RMSE {mean:.5f} within 10% of {floor:.5f}",
    )


def test_criterion_06_gaussian_oracle_consistency():
    start = time.perf_counter()
    five = range(5)
    collapsed = sum(gaussian_emi(seed, 4096, 0.0).collapsed for seed in five)
    means = {
        rho: float(np.mean([gaussian_emi(seed, 4096, rho).emi for seed in five]))
        for rho in (0.0, 0.5, 0.9)
    }
    big_n = float(np.mean([gaussian_emi(seed, 16384, 0.9).emi for seed in five]))
    elapsed = time.perf_counter() - start
    increasing = means[0.0] < means[0.5] < means[0.9]
    in_window = 0.45 <= big_n <= 1.15
    ok = collapsed >= 4 and increasing and in_window and elapsed < 120.0
    _criterion(
        6, ok,
        f"gaussian pairs: rho=0 collapsed {collapsed}/5 (need >= 4); means "
        f"{means[0.0]:.3f} < {means[0.5]:.3f} < {means[0.9]:.3f}; rho=0.9 at "
        f"n=16384 gives {big_n:.3f} in [0.45, 1.15] (closed form 0.830), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_07_autoregressive_behavior():
    quiet = sum(
        pipeline_report("narx", (0.0, 0.0), 2000, s).emi < A_2000 for s in SEEDS
    )
    detected = sum(
        pipeline_report("narx", (0.0, 0.15), 2000, s).emi >= A_2000 for s in SEEDS
    )
    ok = quiet >= 8 and detected >= 8
    _criterion(
        7, ok,
        f"narx n=2000: delta=(0,0) accepts in {quiet}/10, delta=(0,0.15) "
        f"detects in {detected}/10 (both need >= 8)",
    )


def _enumerate_prunings(tree, penalty):
    """All pruned subtrees as (leaf boxes, score); the node-as-leaf option
    is listed first so ties resolve toward collapsing, as in the DP."""
    lower, upper = tree.boxes()

    def options(node):
        own_key = (tuple(lower[node]), tuple(upper[node]))
        counts = (int(tree.joint[node]), int(tree.x_marginal[node]), int(tree.r_marginal[node]))
        collapsed = ([own_key], count_term(*counts, tree.n) - penalty)
        if tree.left[node] < 0:
            return [collapsed]
        out = [collapsed]
        for left_leaves, left_score in options(tree.left[node]):
            for right_leaves, right_score in options(tree.right[node]):
                out.append((left_leaves + right_leaves, left_score + right_score))
        return out

    return max(options(0), key=lambda pair: pair[1])


def test_criterion_08_hand_oracles_and_exhaustive_pruning():
    corners = JointSample(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 1, 1)
    quadrants = grow_tree(corners, max_cell=1, min_split=2)
    independent = abs(emi_fixed_partition(corners, quadrants))
    diagonal = JointSample(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), 1, 1)
    dependent = abs(emi_fixed_partition(diagonal, quadrants) - math.log(2))
    hand_ok = independent <= 1e-12 and dependent <= 1e-12

    rng = np.random.default_rng(2024)
    agreements = 0
    for _ in range(50):
        data = JointSample(rng.normal(size=(16, 2)), 1, 1)
        tree = grow_tree(data, max_cell=2)
        assert tree.leaf_count <= 8
        penalty = float(rng.uniform(0.001, 0.35))
        pruned = prune_tree(tree, penalty)
        lower, upper = pruned.boxes()
        dp_leaves = [(tuple(lower[l]), tuple(upper[l])) for l in pruned.leaf_ids()]
        dp_terms = [count_term(*c, tree.n) for c in pruned.leaf_counts()]
        dp_score = sum(dp_terms) - penalty * len(dp_leaves)
        best_leaves, best_score = _enumerate_prunings(tree, penalty)
        agreements += (
            sorted(dp_leaves) == sorted(best_leaves)
            and abs(dp_score - best_score) <= 1e-12
        )
    ok = hand_ok and agreements == 50
    _criterion(
        8, ok,
        f"quadrant oracles off by ({independent:.1e}, {dependent:.1e}) "
        f"(limit 1e-12); dynamic program matched enumeration on {agreements}/50 trees",
    )


def test_criterion_09_determinism_and_permutation_invariance():
    grid = GridSpec(0.0, 0.15, 0.15, seeds=(0, 1), n=1024, method="riv")
    first = sweep_grid("linear", grid, SCHEDULE)
    second = sweep_grid("linear", grid, SCHEDULE)
    grids_identical = np.array_equal(first.mean, second.mean) and np.array_equal(
        first.std, second.std
    )
    rng = np.random.default_rng(77)
    invariant = 0
    for k in range(20):
        sample = gaussian_pair(seed=100 + k, n=256, rho=0.045 * k)
        permuted = JointSample(sample.data[rng.permutation(256)], 1, 1)
        invariant += emi(sample, SCHEDULE).emi == emi(permuted, SCHEDULE).emi
    ok = grids_identical and invariant == 20
    _criterion(
        9, ok,
        f"repeated sweeps bit-identical: {grids_identical}; row permutation "
        f"left the estimate unchanged on {invariant}/20 instances",
    )


def test_criterion_10_error_bars_stay_bounded():
    values = np.array([
        pipeline_report("linear", (0.15, 0.15), 2000, seed).emi for seed in SEEDS
    ])
    ok = values.std() <= 0.5 * values.mean()
    _criterion(
        10, ok,
        f"linear delta=(0.15,0.15): std {values.std():.4f} <= "
        f"0.5 * mean {values.mean():.4f}",
    )


def test_criterion_11_cross_system_ordering():
    linear = np.mean([
        pipeline_report("linear", (0.15, 0.15), 2000, seed).emi for seed in SEEDS
    ])
    trig = np.mean([
        pipeline_report("trigonometric", (0.15, 0.15), 2000, seed).emi for seed in SEEDS
    ])
    _criterion(
        11, linear > trig,
        f"mean information value: linear {linear:.3f} > trigonometric {trig:.3f}",
    )
