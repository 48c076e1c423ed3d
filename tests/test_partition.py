import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from rivkit import (JointSample, Schedule, SystemSpec, count_term, grow_tree, join, prune_tree,
                    sample_residuals)
from rivkit.partition import _EXACT_TERMS_N, PartitionTree, _prune


def two_column(rows):
    return JointSample(np.asarray(rows, dtype=float), p=1, q=1)


def split(tree, node=0):
    """(axis, threshold) of a split node, None for a leaf."""
    if tree.left[node] < 0:
        return None
    return int(tree.axis[node]), float(tree.threshold[node])


def node_counts(tree, node):
    """(joint, x marginal, r marginal) counts of a node."""
    return int(tree.joint[node]), int(tree.x_marginal[node]), int(tree.r_marginal[node])


def test_identical_points_stay_a_single_leaf():
    sample = two_column([[0.0, 0.0]] * 4)
    tree = grow_tree(sample, max_cell=2)
    assert split(tree) is None
    assert tree.leaf_count == 1


def test_median_split_on_the_diagonal():
    sample = two_column([[0, 0], [1, 1], [2, 2], [3, 3]])
    tree = grow_tree(sample, max_cell=2)
    assert split(tree) == (0, 1.5)
    left, right = tree.left[0], tree.right[0]
    assert split(tree, left) is None and split(tree, right) is None
    # marginal counts test only the relevant block against the full sample
    assert node_counts(tree, left) == (2, 2, 4) and node_counts(tree, right) == (2, 2, 4)
    lower, upper = tree.boxes()
    assert lower[left].tolist() == [-np.inf, -np.inf] and upper[left].tolist() == [1.5, np.inf]
    assert lower[right].tolist() == [1.5, -np.inf] and upper[right].tolist() == [np.inf, np.inf]


def test_grown_cells_respect_the_reported_cell_cap():
    rng = np.random.default_rng(5)
    sample = JointSample(rng.normal(size=(2000, 3)), p=2, q=1)
    b_n = 0.05 * 2000 ** (-0.167)
    assert abs(b_n - 0.014051) < 1e-6
    tree = grow_tree(sample, max_cell=2000 * b_n)
    joints = [joint for joint, _, _ in tree.leaf_counts()]
    assert max(joints) <= 28
    assert sum(joints) == 2000


def test_every_node_keeps_count_invariants():
    rng = np.random.default_rng(11)
    sample = JointSample(rng.normal(size=(400, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=10)

    def walk(node):
        assert tree.joint[node] <= min(tree.x_marginal[node], tree.r_marginal[node])
        if split(tree, node) is not None:
            left, right = tree.left[node], tree.right[node]
            assert tree.joint[left] + tree.joint[right] == tree.joint[node]
            walk(left)
            walk(right)

    walk(0)


def test_leaves_partition_the_whole_space():
    rng = np.random.default_rng(3)
    sample = JointSample(rng.normal(size=(300, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=8)
    probes = rng.uniform(-50, 50, size=(200, 2))
    lower, upper = tree.boxes()
    for point in probes:
        hits = 0
        for leaf in tree.leaf_ids():
            inside = (lower[leaf] <= point).all() and (point < upper[leaf]).all()
            hits += inside
        assert hits == 1


def test_permuting_rows_gives_an_identical_tree():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(257, 2))
    tree_a = grow_tree(JointSample(data, 1, 1), max_cell=6)
    tree_b = grow_tree(JointSample(data[rng.permutation(257)], 1, 1), max_cell=6)

    def same(a, b):
        assert split(tree_a, a) == split(tree_b, b)
        assert node_counts(tree_a, a) == node_counts(tree_b, b)
        if split(tree_a, a) is not None:
            same(tree_a.left[a], tree_b.left[b])
            same(tree_a.right[a], tree_b.right[b])

    same(0, 0)

    # a cell whose middle values are zeros of mixed sign: its threshold is
    # +0.0, bit for bit, whichever zero comes first
    data = np.round(rng.normal(size=(300, 3)))
    zeros = data == 0
    data[zeros] *= rng.choice([-1.0, 1.0], size=np.count_nonzero(zeros))
    tree_a, tree_b = (grow_tree(JointSample(rows, 2, 1), max_cell=8)
                      for rows in (data, data[rng.permutation(300)]))
    assert (tree_a.threshold == 0).any()
    assert not np.signbit(tree_a.threshold[tree_a.threshold == 0]).any()
    assert tree_a.threshold.tobytes() == tree_b.threshold.tobytes()


def test_grow_input_validation():
    sample = two_column([[0, 0], [1, 1], [2, 2], [3, 3]])
    with pytest.raises(ValueError):
        grow_tree(sample, max_cell=0)
    with pytest.raises(ValueError):
        grow_tree(sample, max_cell=float("nan"))
    with pytest.raises(ValueError):
        grow_tree(sample, max_cell=2, min_split=1)
    with pytest.raises(ValueError):
        JointSample(np.array([[np.nan, 0.0]]), 1, 1)
    with pytest.raises(ValueError):
        JointSample(np.empty((0, 2)), 1, 1)


# sha256 over every node array's name, dtype, shape and bytes, and the node
# count, of the default-schedule trees of the seed-0 linear residual sample
# drifted by (0.15, 0.15): (input, residual) and each rif pair at n=2e5, and
# the (input, residual) sample of n=2e4 rounded to 2 decimals, which ties.
LARGE_TREES = {
    "joint": (511, "59919109f7851303845749e6bfc5326d6949917759589df36e29e899fba3dab7"),
    "pair-x1": (511, "bdea20581adcdd06774b757f49f90d2924f134da6d5a4df2607c028d8654c621"),
    "pair-x2": (511, "d556fa6f21dcde3dae2986f9aaf0483f0de32ef70d99232fdf98ecf808cee38a"),
    "tied": (255, "96a3999e8f2e5f901c3cdaf09a82d3b27546fa249f0430c8c969dc40e4a31d0b"),
}


def tree_digest(tree):
    digest = hashlib.sha256()
    for field in ("joint", "x_marginal", "r_marginal", "axis", "threshold", "left", "right"):
        array = getattr(tree, field)
        digest.update(f"{field}:{array.dtype.str}:{array.shape}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_large_and_tied_trees_match_their_pins():
    spec = SystemSpec("linear", (0.15, 0.15), seed=0)
    joint = sample_residuals(spec, 200_000)
    samples = {
        "joint": joint,
        "pair-x1": join(joint.x[:, 0], joint.response),
        "pair-x2": join(joint.x[:, 1], joint.response),
        "tied": JointSample(np.round(sample_residuals(spec, 20_000).data, 2), 2, 1),
    }
    for name, sample in samples.items():
        tree = grow_tree(sample, Schedule().cell_cap(sample.n))
        assert (tree.joint.size, tree_digest(tree)) == LARGE_TREES[name], name


@pytest.mark.parametrize("p, q", [(2, 1), (1, 1)])
def test_a_grow_holds_at_most_six_columns_of_its_sample(p, q):
    n = 50_000
    sample = JointSample(np.random.default_rng(0).standard_normal((n, p + q)), p, q)
    tracemalloc.start()
    try:
        grow_tree(sample, Schedule().cell_cap(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n  # about 5.3 float64 columns of n rows today


def test_tied_axis_that_cannot_separate_is_skipped():
    # axis 0 median threshold equals the minimum; axis 1 still separates
    sample = two_column([[1, 0], [1, 1], [1, 2], [2, 3]])
    tree = grow_tree(sample, max_cell=2)
    assert split(tree) is not None
    axis, _ = split(tree)
    assert axis == 1


def quadrant_tree():
    pts = two_column([[0, 0], [0, 1], [1, 0], [1, 1]])
    return grow_tree(pts, max_cell=1, min_split=2)


def test_zero_penalty_keeps_the_grown_tree():
    tree = quadrant_tree()
    pruned = prune_tree(tree, 0.0)
    assert pruned.leaf_count == tree.leaf_count == 4


def test_penalty_above_log_n_collapses_to_the_root():
    rng = np.random.default_rng(23)
    sample = JointSample(rng.normal(size=(128, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=4)
    assert tree.leaf_count > 1
    pruned = prune_tree(tree, math.log(128) + 1e-9)
    assert pruned.leaf_count == 1
    assert split(pruned) is None


def test_pruning_keeps_children_only_on_strict_improvement():
    # hand-built two-leaf tree: each child term is ln(2)/2, the root term 0,
    # so the children survive exactly when the per-leaf penalty is below ln(2):
    # ln(2) - 2*pen > 0 - pen  iff  pen < ln(2)
    counts = np.array([4, 2, 2])
    tree = PartitionTree(
        joint=counts, x_marginal=counts, r_marginal=counts,
        axis=np.array([0, -1, -1]), threshold=np.array([0.5, np.nan, np.nan]),
        left=np.array([1, -1, -1]), right=np.array([2, -1, -1]), n=4, p=1, q=1,
    )
    assert split(tree) == (0, 0.5) and split(tree, 1) is None and split(tree, 2) is None

    assert count_term(*node_counts(tree, 1), 4) == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert count_term(*node_counts(tree, 0), 4) == 0.0
    keep = prune_tree(tree, 0.15)
    assert keep.leaf_count == 2
    tie = prune_tree(tree, math.log(2))
    assert tie.leaf_count == 1
    collapse = prune_tree(tree, 0.8)
    assert collapse.leaf_count == 1


def test_leaf_count_is_monotone_in_the_penalty():
    rng = np.random.default_rng(29)
    sample = JointSample(rng.normal(size=(512, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=8)
    counts = [
        prune_tree(tree, pen).leaf_count
        for pen in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
    ]
    assert counts == sorted(counts, reverse=True)


def test_prune_validation():
    tree = quadrant_tree()
    with pytest.raises(ValueError):
        prune_tree(tree, -1.0)
    with pytest.raises(ValueError):
        prune_tree(tree, float("nan"))


def hand_tree(n, counts, left, right):
    """A tree of given (joint, x marginal, r marginal) counts and children."""
    joint, x_marginal, r_marginal = (np.array(c) for c in zip(*counts))
    left, right = np.array(left), np.array(right)
    return PartitionTree(
        joint=joint, x_marginal=x_marginal, r_marginal=r_marginal,
        axis=np.where(left >= 0, 0, -1), threshold=np.where(left >= 0, 0.5, np.nan),
        left=left, right=right, n=n, p=1, q=1,
    )


def count_term_sum(pruned):
    total = 0.0
    for counts in pruned.leaf_counts():
        total += count_term(*counts, pruned.n)
    return total


# The largest n whose count products n * n stay below 2**53, and the next.
@pytest.mark.parametrize("n", [94_906_265, 94_906_266])
@pytest.mark.parametrize("penalty", [1e-12, 1e-7, 0.1, 1.0])
def test_prune_sums_count_terms_at_the_edge_of_exact_count_products(n, penalty):
    assert _EXACT_TERMS_N == 94_906_265
    # counts near n, so their products near n * n; nodes 5 and 7 are empty,
    # node 7 with empty marginals too
    h = n // 2
    counts = [(n, n, n), (h, h, n - 3), (h - 7, h, h + 11), (7, 9, n // 3), (7, 8, 40),
              (0, 3, 2), (n - h, n - h + 5, n), (0, 0, 0), (n - h, n - h, n - 1)]
    tree = hand_tree(n, counts, left=[1, 2, -1, 4, -1, -1, 7, -1, -1],
                     right=[6, 3, -1, 5, -1, -1, 8, -1, -1])
    pruned = prune_tree(tree, penalty)
    _, _, total, leaf_count = _prune(tree, penalty)
    assert (total.hex(), leaf_count) == (count_term_sum(pruned).hex(), pruned.leaf_count)


def test_prune_takes_count_term_where_count_products_are_not_exact():
    n, cell = 2**27 + 1, (114_168_851, 126_939_218, 124_416_564)
    joint, x_marginal, r_marginal = cell
    # the float64 formula rounds this cell's term differently from count_term
    assert (joint / n) * math.log(float(joint) * n / (float(x_marginal) * r_marginal)) \
        != count_term(*cell, n)
    rest = n - joint
    tree = hand_tree(n, [(n, n, n), cell, (rest, rest, rest)], left=[1, -1, -1],
                     right=[2, -1, -1])
    pruned = prune_tree(tree, 1e-12)
    _, _, total, leaf_count = _prune(tree, 1e-12)
    assert leaf_count == pruned.leaf_count == 2
    assert total.hex() == count_term_sum(pruned).hex()


def test_prune_takes_no_log_from_numpy(monkeypatch):
    # np.log can round differently from math.log, which count_term takes
    tree = grow_tree(JointSample(np.random.default_rng(3).normal(size=(400, 2)), p=1, q=1), 20)
    expected = _prune(tree, 1e-3)

    def refuse(*args, **kwargs):
        raise AssertionError("np.log called")

    monkeypatch.setattr(np, "log", refuse)
    assert _prune(tree, 1e-3) == expected
