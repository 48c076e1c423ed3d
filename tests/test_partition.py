import math

import numpy as np
import pytest

from rivkit import JointSample, cell_term, grow_tree, prune_tree
from rivkit.partition import CellBox


def two_column(rows):
    return JointSample(np.asarray(rows, dtype=float), p=1, q=1)


def leaf_list(tree):
    return list(tree.leaves())


def test_identical_points_stay_a_single_leaf():
    sample = two_column([[0.0, 0.0]] * 4)
    tree = grow_tree(sample, max_cell=2)
    assert tree.root.is_leaf
    assert tree.leaf_count == 1


def test_median_split_on_the_diagonal():
    sample = two_column([[0, 0], [1, 1], [2, 2], [3, 3]])
    tree = grow_tree(sample, max_cell=2)
    assert tree.root.split == (0, 1.5)
    left, right = tree.root.children
    assert left.is_leaf and right.is_leaf
    assert left.joint_count == 2 and right.joint_count == 2
    # marginal counts test only the relevant block against the full sample
    assert left.x_marginal_count == 2 and left.r_marginal_count == 4
    assert right.x_marginal_count == 2 and right.r_marginal_count == 4


def test_grown_cells_respect_the_reported_cell_cap():
    rng = np.random.default_rng(5)
    sample = JointSample(rng.normal(size=(2000, 3)), p=2, q=1)
    b_n = 0.05 * 2000 ** (-0.167)
    assert abs(b_n - 0.014051) < 1e-6
    tree = grow_tree(sample, max_cell=2000 * b_n)
    counts = [leaf.joint_count for leaf in tree.leaves()]
    assert max(counts) <= 28
    assert sum(counts) == 2000


def test_every_node_keeps_count_invariants():
    rng = np.random.default_rng(11)
    sample = JointSample(rng.normal(size=(400, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=10)

    def walk(node):
        assert node.joint_count <= min(node.x_marginal_count, node.r_marginal_count)
        if not node.is_leaf:
            left, right = node.children
            assert left.joint_count + right.joint_count == node.joint_count
            walk(left)
            walk(right)

    walk(tree.root)


def test_leaves_partition_the_whole_space():
    rng = np.random.default_rng(3)
    sample = JointSample(rng.normal(size=(300, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=8)
    probes = rng.uniform(-50, 50, size=(200, 2))
    for point in probes:
        hits = 0
        for leaf in tree.leaves():
            inside = (leaf.box.lower <= point).all() and (point < leaf.box.upper).all()
            hits += inside
        assert hits == 1


def test_permuting_rows_gives_an_identical_tree():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(257, 2))
    tree_a = grow_tree(JointSample(data, 1, 1), max_cell=6)
    tree_b = grow_tree(JointSample(data[rng.permutation(257)], 1, 1), max_cell=6)

    def same(a, b):
        assert a.split == b.split
        assert a.joint_count == b.joint_count
        assert a.x_marginal_count == b.x_marginal_count
        assert a.r_marginal_count == b.r_marginal_count
        if a.split is not None:
            same(a.children[0], b.children[0])
            same(a.children[1], b.children[1])

    same(tree_a.root, tree_b.root)


def test_grow_input_validation():
    sample = two_column([[0, 0], [1, 1], [2, 2], [3, 3]])
    with pytest.raises(ValueError):
        grow_tree(sample, max_cell=0)
    with pytest.raises(ValueError):
        grow_tree(sample, max_cell=2, min_split=1)
    with pytest.raises(ValueError):
        JointSample(np.array([[np.nan, 0.0]]), 1, 1)
    with pytest.raises(ValueError):
        JointSample(np.empty((0, 2)), 1, 1)


def test_tied_axis_that_cannot_separate_is_skipped():
    # axis 0 median threshold equals the minimum; axis 1 still separates
    sample = two_column([[1, 0], [1, 1], [1, 2], [2, 3]])
    tree = grow_tree(sample, max_cell=2)
    assert tree.root.split is not None
    axis, _ = tree.root.split
    assert axis == 1


def quadrant_tree():
    pts = two_column([[0, 0], [0, 1], [1, 0], [1, 1]])
    return grow_tree(pts, max_cell=1, min_split=2)


def test_zero_penalty_keeps_the_grown_tree():
    tree = quadrant_tree()
    pruned = prune_tree(tree, lam=1.0, leaf_penalty=0.0)
    assert pruned.leaf_count == tree.leaf_count == 4


def test_penalty_above_log_n_collapses_to_the_root():
    rng = np.random.default_rng(23)
    sample = JointSample(rng.normal(size=(128, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=4)
    assert tree.leaf_count > 1
    pruned = prune_tree(tree, lam=1.0, leaf_penalty=math.log(128) + 1e-9)
    assert pruned.leaf_count == 1
    assert pruned.root.is_leaf


def test_pruning_keeps_children_only_on_strict_improvement():
    # hand-built two-leaf tree: each child term is ln(2)/2, the root term 0,
    # so the children survive exactly when the per-leaf penalty is below ln(2):
    # ln(2) - 2*pen > 0 - pen  iff  pen < ln(2)
    from rivkit.partition import PartitionTree

    counts = np.array([4, 2, 2])
    tree = PartitionTree(
        joint=counts, x_marginal=counts, r_marginal=counts,
        axis=np.array([0, -1, -1]), threshold=np.array([0.5, np.nan, np.nan]),
        left=np.array([1, -1, -1]), right=np.array([2, -1, -1]), n=4, p=1, q=1,
    )
    root = tree.root
    left, right = root.children
    assert root.split == (0, 0.5) and left.is_leaf and right.is_leaf

    assert cell_term(left, 4) == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert cell_term(root, 4) == 0.0
    keep = prune_tree(tree, lam=1.0, leaf_penalty=0.15)
    assert keep.leaf_count == 2
    tie = prune_tree(tree, lam=1.0, leaf_penalty=math.log(2))
    assert tie.leaf_count == 1
    collapse = prune_tree(tree, lam=1.0, leaf_penalty=0.8)
    assert collapse.leaf_count == 1


def test_leaf_count_is_monotone_in_the_penalty():
    rng = np.random.default_rng(29)
    sample = JointSample(rng.normal(size=(512, 2)), p=1, q=1)
    tree = grow_tree(sample, max_cell=8)
    counts = [
        prune_tree(tree, lam=1.0, leaf_penalty=pen).leaf_count
        for pen in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
    ]
    assert counts == sorted(counts, reverse=True)


def test_prune_validation():
    tree = quadrant_tree()
    with pytest.raises(ValueError):
        prune_tree(tree, lam=0.0, leaf_penalty=1.0)
    with pytest.raises(ValueError):
        prune_tree(tree, lam=1.0, leaf_penalty=-1.0)


def test_cell_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        CellBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_node_invariants_are_enforced():
    from rivkit.partition import PartitionNode

    box = CellBox(np.array([-np.inf]), np.array([np.inf]))
    with pytest.raises(ValueError):
        PartitionNode(box, 4, 4, 4, split=(0, 0.5), children=None)
    with pytest.raises(ValueError):
        PartitionNode(box, 5, 4, 4)
