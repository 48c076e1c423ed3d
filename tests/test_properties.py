"""Property tests of the partition core on generated samples.

Samples mix finite floats of any magnitude (up to the float maximum, where a
midpoint can overflow) with a few repeated values, so ties are common.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import SCHEDULE
from rivkit import JointSample, cell_term, emi, grow_tree, prune_tree
from rivkit.partition import count_term

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def samples(draw, max_rows=48):
    n = draw(st.integers(2, max_rows))
    p = draw(st.integers(1, 2))
    data = draw(hnp.arrays(np.float64, (n, p + 1), elements=VALUES))
    return JointSample(data, p, 1)


@st.composite
def grown_trees(draw, max_rows=48):
    sample = draw(samples(max_rows))
    max_cell = draw(st.integers(1, 8))
    return sample, grow_tree(sample, max_cell=max_cell, min_split=draw(st.integers(2, 4)))


@PROPERTY
@given(st.data())
def test_emi_is_bit_identical_under_row_permutation(data):
    sample = data.draw(samples(max_rows=96))
    order = data.draw(st.permutations(range(sample.n)))
    permuted = JointSample(sample.data[list(order)], sample.p, sample.q)
    first, second = emi(sample, SCHEDULE), emi(permuted, SCHEDULE)
    assert repr(first.emi) == repr(second.emi)
    assert first.leaf_count == second.leaf_count


@PROPERTY
@given(grown_trees(), st.floats(0.0, 1.0))
def test_leaf_counts_sum_to_n_before_and_after_pruning(grown, penalty):
    sample, tree = grown
    for candidate in (tree, prune_tree(tree, lam=1.0, leaf_penalty=penalty)):
        leaves = candidate.leaf_counts()
        assert sum(joint for joint, _, _ in leaves) == sample.n
        assert len(leaves) == candidate.leaf_count


@PROPERTY
@given(grown_trees())
def test_every_split_leaves_both_children_non_empty(grown):
    _, tree = grown
    split = tree.left >= 0
    assert (tree.joint[tree.left[split]] > 0).all()
    assert (tree.joint[tree.right[split]] > 0).all()
    assert (tree.joint[tree.left[split]] + tree.joint[tree.right[split]] == tree.joint[split]).all()
    assert np.isfinite(tree.threshold[split]).all()


@PROPERTY
@given(grown_trees())
def test_marginal_counts_bound_the_joint_count_and_match_a_recount(grown):
    sample, tree = grown
    assert (tree.joint <= np.minimum(tree.x_marginal, tree.r_marginal)).all()
    p = sample.p

    def walk(node):
        inside = (sample.data >= node.box.lower) & (sample.data < node.box.upper)
        assert node.joint_count == np.count_nonzero(inside.all(axis=1))
        assert node.x_marginal_count == np.count_nonzero(inside[:, :p].all(axis=1))
        assert node.r_marginal_count == np.count_nonzero(inside[:, p:].all(axis=1))
        for child in node.children or ():
            walk(child)

    walk(tree.root)


def term(tree, node):
    counts = (tree.joint[node], tree.x_marginal[node], tree.r_marginal[node])
    return count_term(*map(int, counts), tree.n)


def prunings(tree, node, penalty):
    """Every pruning of the subtree at ``node``, as (score, leaf ids left to right)."""
    as_leaf = (term(tree, node) - penalty, [node])
    if tree.left[node] < 0:
        return [as_leaf]
    return [as_leaf] + [
        (left_score + right_score, left_leaves + right_leaves)
        for left_score, left_leaves in prunings(tree, tree.left[node], penalty)
        for right_score, right_leaves in prunings(tree, tree.right[node], penalty)
    ]


def leaf_ids(tree):
    stack, leaves = [0], []
    while stack:
        node = stack.pop()
        if tree.left[node] < 0:
            leaves.append(node)
        else:
            stack += [tree.right[node], tree.left[node]]
    return leaves


@PROPERTY
@given(grown_trees(max_rows=16), st.floats(1e-3, 0.5))
def test_array_dp_equals_exhaustive_pruning_on_small_trees(grown, penalty):
    _, tree = grown
    pruned = prune_tree(tree, lam=1.0, leaf_penalty=penalty)
    kept = leaf_ids(pruned)
    dp_score = sum(term(tree, node) for node in kept) - penalty * len(kept)
    options = sorted(prunings(tree, 0, penalty), key=lambda option: option[0], reverse=True)
    best_score, best_leaves = options[0]
    assert math.isclose(dp_score, best_score, rel_tol=0.0, abs_tol=1e-12)
    if len(options) == 1 or best_score - options[1][0] > 1e-12:
        assert kept == best_leaves
    assert [cell_term(leaf, tree.n) for leaf in pruned.leaves()] == [term(tree, node) for node in kept]
