"""Data-driven axis-parallel partitions of a joint sample space.

A partition is a binary tree of half-open boxes grown by statistically
equivalent (median) splits until every cell holds at most ``max_cell``
samples, then pruned to a complexity-regularized optimum by exact
bottom-up dynamic programming. Outer cells are unbounded so the leaves
always cover the whole space. A tree is stored as flat per-node arrays
(``PartitionTree``); ``CellBox`` and ``PartitionNode`` are only a
read-only view of it, built on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .samples import JointSample


@dataclass(frozen=True)
class CellBox:
    """Half-open coordinate box: lower[k] <= v[k] < upper[k], +-inf allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if not (self.lower < self.upper).all():
            raise ValueError("box requires lower < upper on every coordinate")


@dataclass(frozen=True)
class PartitionNode:
    """View of one tree node: its box and joint/marginal sample counts.

    ``joint_count`` counts samples inside the box; the marginal counts test
    only the input block (first p coordinates) or only the response block
    against the full sample, so ``joint_count <= min(marginal counts)``.
    """

    box: CellBox
    joint_count: int
    x_marginal_count: int
    r_marginal_count: int
    split: Optional[Tuple[int, float]] = None
    children: Optional[Tuple["PartitionNode", "PartitionNode"]] = None

    def __post_init__(self):
        if (self.split is None) != (self.children is None):
            raise ValueError("split and children must be present together")
        if self.joint_count > min(self.x_marginal_count, self.r_marginal_count):
            raise ValueError("joint count cannot exceed either marginal count")

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(frozen=True)
class PartitionTree:
    """A partition as flat per-node arrays, root first, children after their
    parent. A node with child ids -1 is a leaf; otherwise coordinates on
    ``axis`` strictly below ``threshold`` go left. Nodes under a leaf (splits
    that pruning dropped) are unreachable. ``root`` and ``leaves()`` build a
    read-only view of the tree as node objects with their boxes.
    """

    joint: np.ndarray
    x_marginal: np.ndarray
    r_marginal: np.ndarray
    axis: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n: int
    p: int
    q: int

    def leaf_counts(self) -> List[Tuple[int, int, int]]:
        """(joint, x marginal, r marginal) counts of the leaves, left to right."""
        counts = list(zip(self.joint.tolist(), self.x_marginal.tolist(), self.r_marginal.tolist()))
        left, right = self.left.tolist(), self.right.tolist()
        leaves, stack = [], [0]
        while stack:
            node = stack.pop()
            if left[node] < 0:
                leaves.append(counts[node])
            else:
                stack += (right[node], left[node])
        return leaves

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_counts())

    @property
    def root(self) -> PartitionNode:
        """The reachable tree as nested node views with their boxes."""
        unbounded = np.full(self.p + self.q, np.inf)
        return self._view(0, -unbounded, unbounded)

    def _view(self, node: int, lower: np.ndarray, upper: np.ndarray) -> PartitionNode:
        box = CellBox(lower, upper)
        counts = (int(self.joint[node]), int(self.x_marginal[node]), int(self.r_marginal[node]))
        if self.left[node] < 0:
            return PartitionNode(box, *counts)
        axis, threshold = int(self.axis[node]), float(self.threshold[node])
        below, above = upper.copy(), lower.copy()
        below[axis] = above[axis] = threshold
        children = (self._view(int(self.left[node]), lower, below),
                    self._view(int(self.right[node]), above, upper))
        return PartitionNode(box, *counts, (axis, threshold), children)

    def leaves(self) -> Iterator[PartitionNode]:
        """Leaf views in deterministic left-to-right order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack += (node.children[1], node.children[0])


def count_term(joint: int, x_marginal: int, r_marginal: int, n: int) -> float:
    """(joint/n) * ln(joint * n / (x_marginal * r_marginal)); 0 for an empty cell."""
    return (joint / n) * math.log(joint * n / (x_marginal * r_marginal)) if joint else 0.0


def cell_term(node: PartitionNode, n: int) -> float:
    """A cell's contribution to the empirical mutual information."""
    return count_term(node.joint_count, node.x_marginal_count, node.r_marginal_count, n)


def grow_tree(samples: JointSample, max_cell: float, min_split: int = 4) -> PartitionTree:
    """Grow the statistically equivalent partition of a joint sample.

    Nodes holding more than ``max_cell`` samples (and at least ``min_split``)
    are split at the midpoint of the two middle order statistics along a
    depth-round-robin axis; strictly smaller coordinates go left. Axes on
    which the in-cell values cannot be separated (all equal, or the median
    threshold would leave one side empty) are skipped; if no axis separates
    the cell, it stays a leaf. Marginal counts of every node are taken
    against the full sample, testing only the relevant coordinate block: a
    one-coordinate block as an interval of its sorted column, a wider block
    as the set of rows inside its box.

    Deterministic for a fixed sample multiset, independent of row order.
    """
    if max_cell <= 0:
        raise ValueError("max_cell must be positive")
    if min_split < 2:
        raise ValueError("min_split must be at least 2")

    data = samples.data
    n, dim = data.shape
    p = samples.p
    columns = [data[:, axis] for axis in range(dim)]
    sorted_column = {lo: np.sort(columns[lo]) for lo, hi in ((0, p), (p, dim)) if hi == lo + 1}
    nodes: List[list] = []  # [joint, x marginal, r marginal, axis, threshold, left, right]
    everyone = np.arange(n)
    # Cells still to split, each with the parent row and slot that take its
    # id; popping the left child first numbers the nodes in preorder.
    pending = [(everyone, 0, [range(n) if lo in sorted_column else everyone for lo in (0, p)], None, 0)]
    while pending:
        idx, depth, marginals, parent, slot = pending.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        m = idx.size
        row = [m, len(marginals[0]), len(marginals[1]), -1, math.nan, -1, -1]
        nodes.append(row)
        if m <= max_cell or m < min_split:
            continue
        k = (m + 1) // 2  # ceil(m/2), 1-indexed order statistic
        for offset in range(dim):
            axis = (depth + offset) % dim
            values = columns[axis][idx]
            middle = values.copy()
            middle.partition((k - 1, k))
            a, b = middle.item(k - 1), middle.item(k)
            # halving first is only needed, and only used, where a + b overflows
            threshold = 0.5 * (a + b) if math.isfinite(a + b) else 0.5 * a + 0.5 * b
            below = values < threshold
            if not np.count_nonzero(below):
                continue  # ties swallowed the lower half; axis unusable
            block = int(axis >= p)
            member, lower, upper = marginals[block], list(marginals), list(marginals)
            if isinstance(member, range):  # positions in the block's sorted column
                cut = int(sorted_column[axis].searchsorted(threshold))
                lower[block], upper[block] = range(member.start, cut), range(cut, member.stop)
            else:
                inside = columns[axis][member] < threshold
                lower[block], upper[block] = member[inside], member[~inside]
            row[3:5] = axis, threshold
            pending.append((idx[~below], depth + 1, upper, row, 6))
            pending.append((idx[below], depth + 1, lower, row, 5))
            break

    tree = PartitionTree(*(np.array(column) for column in zip(*nodes)), n, p, samples.q)
    split = tree.left >= 0
    lower, upper = tree.joint[tree.left[split]], tree.joint[tree.right[split]]
    if not ((tree.joint <= np.minimum(tree.x_marginal, tree.r_marginal)).all()
            and np.isfinite(tree.threshold[split]).all() and (lower > 0).all()
            and (upper > 0).all() and (lower + upper == tree.joint[split]).all()):
        raise RuntimeError("grown partition breaks a count or split invariant")
    return tree


def prune_tree(tree: PartitionTree, lam: float, leaf_penalty: float) -> PartitionTree:
    """Exact complexity-regularized pruning by bottom-up dynamic programming.

    Selects the pruned subtree maximizing
    sum over leaves of cell_term - lam * leaf_penalty * (number of leaves).
    At each internal node the children's best subtrees are kept only when
    their combined score strictly exceeds the node-as-leaf score; ties
    collapse to the leaf. A zero penalty keeps the tree unchanged (splitting
    never decreases the information sum, so the full tree is optimal).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if leaf_penalty < 0:
        raise ValueError("leaf_penalty must be non-negative")
    penalty = lam * leaf_penalty
    if penalty == 0.0:
        return tree

    counts = zip(tree.joint.tolist(), tree.x_marginal.tolist(), tree.r_marginal.tolist())
    left, right = tree.left.tolist(), tree.right.tolist()
    score = [0.0] * len(left)
    for node, (m, xm, rm) in reversed(list(enumerate(counts))):  # children first
        score[node] = count_term(m, xm, rm, tree.n) - penalty
        if left[node] >= 0:
            split = score[left[node]] + score[right[node]]
            if split > score[node]:
                score[node] = split
            else:
                left[node] = right[node] = -1
    return replace(tree, left=np.array(left), right=np.array(right))
