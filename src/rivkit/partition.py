"""Data-driven axis-parallel partitions of a joint sample space.

A partition is a binary tree of half-open boxes grown by statistically
equivalent (median) splits until every cell holds at most ``max_cell``
samples, then pruned to a complexity-regularized optimum by exact
bottom-up dynamic programming. Outer cells are unbounded so the leaves
always cover the whole space. A tree is stored as flat per-node arrays
(``PartitionTree``), and the cell boxes are computed from those arrays
on request.

``grow_tree`` grows one sample's tree. ``grow_batch`` grows the trees of
many samples of one size, as Monte Carlo trials draw them: median splits
give every tie-free sample of n rows the same tree shape, so it splits the
cells of a few samples at once, one depth at a time, and hands a sample
that meets a tie to ``grow_tree``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .samples import JointSample


@dataclass(frozen=True)
class PartitionTree:
    """A partition as flat per-node arrays, root first, children after their
    parent. A node with child ids -1 is a leaf; otherwise coordinates on
    ``axis`` strictly below ``threshold`` go left. Nodes under a leaf (splits
    that pruning dropped) are unreachable. A node's marginal counts test only
    the input block (first p coordinates) or only the response block against
    the full sample, so its joint count is at most either of them.
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

    def leaf_ids(self) -> List[int]:
        """Ids of the reachable leaves, left to right."""
        return _leaf_ids(self.left.tolist(), self.right.tolist())

    def leaf_counts(self) -> List[Tuple[int, int, int]]:
        """(joint, x marginal, r marginal) counts of the leaves, left to right."""
        counts = list(zip(self.joint.tolist(), self.x_marginal.tolist(), self.r_marginal.tolist()))
        return [counts[leaf] for leaf in self.leaf_ids()]

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_ids())

    def boxes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node cell bounds ``(lower, upper)``, (nodes, p + q) each.

        Node v's cell is the half-open box lower[v] <= point < upper[v], with
        +-inf on the sides no split bounds. Children follow their parent, so
        one forward pass fills every reachable node; rows of unreachable
        nodes carry no meaning.
        """
        lower = np.full((self.joint.size, self.p + self.q), -np.inf)
        upper = -lower
        for node in np.flatnonzero(self.left >= 0).tolist():
            children = [self.left[node], self.right[node]]
            lower[children], upper[children] = lower[node], upper[node]
            upper[children[0], self.axis[node]] = self.threshold[node]
            lower[children[1], self.axis[node]] = self.threshold[node]
        return lower, upper


def _leaf_ids(left: List[int], right: List[int]) -> List[int]:
    """The leaves reachable from the root through child lists, left to right."""
    leaves, stack = [], [0]
    while stack:
        node = stack.pop()
        if left[node] < 0:
            leaves.append(node)
        else:
            stack += (right[node], left[node])
    return leaves


def count_term(joint: int, x_marginal: int, r_marginal: int, n: int) -> float:
    """A cell's contribution to the empirical mutual information,
    (joint/n) * ln(joint * n / (x_marginal * r_marginal)); 0 for an empty cell."""
    return (joint / n) * math.log(joint * n / (x_marginal * r_marginal)) if joint else 0.0


def _check_growth(max_cell: float, min_split: int) -> None:
    if not max_cell > 0:  # a NaN cap would split every cell down to min_split
        raise ValueError("max_cell must be positive")
    if min_split < 2:
        raise ValueError("min_split must be at least 2")


def grow_tree(samples: JointSample, max_cell: float, min_split: int = 4) -> PartitionTree:
    """Grow the statistically equivalent partition of a joint sample.

    Nodes holding more than ``max_cell`` samples (and at least ``min_split``)
    are split along a depth-round-robin axis at the midpoint of the two middle
    order statistics: one ``partition`` kth places the lower, and the upper
    is the least value above it. Strictly smaller coordinates go left; the
    children's row ids, and a wide block's members, are split by ``compress``
    and stay ascending. Axes whose in-cell values cannot be separated (all
    equal, or the median threshold leaves one side empty) are skipped; if
    none separates the cell, it stays a leaf. Marginal counts of every node
    are taken against the full sample, testing only the relevant coordinate
    block: a one-coordinate block as an interval of its sorted column, a
    wider block as the set of rows inside its box. Deterministic for a fixed
    sample multiset and independent of row order: a zero threshold is +0.0.
    """
    _check_growth(max_cell, min_split)

    n, dim = samples.data.shape
    p = samples.p
    columns = [samples.data[:, axis] for axis in range(dim)]
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
            middle.partition(k - 1)
            a, b = middle.item(k - 1), middle[k:].min().item()
            # halving first is only needed, and only used, where a + b overflows;
            # adding +0.0 turns a -0.0 midpoint of mixed-sign zeros into +0.0
            threshold = (0.5 * (a + b) if math.isfinite(a + b) else 0.5 * a + 0.5 * b) + 0.0
            below = values < threshold
            del values, middle  # freed before the child index arrays are built
            if not np.count_nonzero(below):
                continue  # ties swallowed the lower half; axis unusable
            block = int(axis >= p)
            member, lower, upper = marginals[block], list(marginals), list(marginals)
            if isinstance(member, range):  # positions in the block's sorted column
                cut = int(sorted_column[axis].searchsorted(threshold))
                lower[block], upper[block] = range(member.start, cut), range(cut, member.stop)
            else:
                inside = columns[axis][member] < threshold
                lower[block], upper[block] = member.compress(inside), member.compress(~inside)
            row[3:5] = axis, threshold
            pending.append((idx.compress(~below), depth + 1, upper, row, 6))
            pending.append((idx.compress(below), depth + 1, lower, row, 5))
            break

    tree = PartitionTree(*(np.array(column) for column in zip(*nodes)), n, p, samples.q)
    split = tree.left >= 0
    lower, upper = tree.joint[tree.left[split]], tree.joint[tree.right[split]]
    if not ((tree.joint <= np.minimum(tree.x_marginal, tree.r_marginal)).all()
            and np.isfinite(tree.threshold[split]).all() and (lower > 0).all()
            and (upper > 0).all() and (lower + upper == tree.joint[split]).all()):
        raise RuntimeError("grown partition breaks a count or split invariant")
    return tree


# Samples that grow_batch builds together. Its transient arrays grow with
# this, by about 0.2 MB per sample at n=2000 and p+q=3.
CHUNK = 4


def grow_batch(samples: Iterable[JointSample], max_cell: float,
               min_split: int = 4) -> Iterator[Tuple[JointSample, PartitionTree]]:
    """``(sample, grow_tree(sample, max_cell, min_split))`` for each sample, in order.

    The samples must share n, p and q. Median splits make a cell's size,
    and so whether it splits, depend on its parent's size alone: unless a
    split meets a tie, every sample of n rows grows the same regular tree,
    and only thresholds and marginal counts differ. The samples are read
    ``CHUNK`` at a time and the regular trees of a chunk are grown together,
    one depth at a time, with one ``argsort`` of all its cells per depth.
    A sample whose split values tie (or whose midpoint rounds onto the
    lower median) leaves the regular shape and is grown by ``grow_tree``.
    The trees are equal to ``grow_tree``'s array for array.
    """
    _check_growth(max_cell, min_split)
    return _grow_chunks(iter(samples), max_cell, min_split)


def _grow_chunks(samples: Iterator[JointSample], max_cell: float,
                 min_split: int) -> Iterator[Tuple[JointSample, PartitionTree]]:
    shape = skeleton = None
    while chunk := list(itertools.islice(samples, CHUNK)):
        if skeleton is None:
            n, p, q = shape = (chunk[0].n, chunk[0].p, chunk[0].q)
            skeleton = _skeleton(n, p + q, max_cell, min_split)
        mixed = {(sample.n, sample.p, sample.q) for sample in chunk} - {shape}
        if mixed:
            raise ValueError(f"samples of (n, p, q) = {mixed.pop()} and {shape} "
                             "cannot be grown together")
        yield from _grow_chunk(chunk, skeleton, max_cell, min_split)
        del chunk  # the next chunk is drawn without this one in memory


class _Level:
    """The cells of one depth of a regular tree that split, left to right.

    Each cell's rows are gathered into one row of a (cells, width) layout
    from the previous level's layout, whose cells are sorted: a left child
    is the first k of its parent, a right child the rest. A cell one row
    short of the width holds a pad, which sorts last. Where every parent
    split evenly into the cells of this depth, the gather is the identity
    on the previous layout, of ``source`` rows, and ``reshape`` is set.
    """

    def __init__(self, axis: int, cells: np.ndarray, size: np.ndarray, gather: np.ndarray,
                 left: np.ndarray, right: np.ndarray, source: int):
        self.axis, self.cells = axis, cells
        self.left, self.right = left[cells], right[cells]
        m, self.k = size[cells], size[self.left]
        self.cell_index = np.arange(cells.size)
        self.pad = np.arange(gather.shape[1]) >= m[:, None]
        self.reshape = bool(not self.pad.any() and gather.size == source
                            and (gather.ravel() == np.arange(source)).all())
        self.gather = np.where(self.pad, 0, gather).astype(np.int32)
        self.base = self.cell_index[:, None] * gather.shape[1]


class _Skeleton:
    """The regular tree of n rows: joint counts, axes, children, preorder ids,
    and the splits of each depth as ``levels``. It is ``grow_tree``'s tree of
    a sample without ties, every column 0, 1, ..., n - 1 (midpoints i + 0.5),
    built once per (n, p + q, ``max_cell``, ``min_split``)."""

    def __init__(self, n: int, dim: int, max_cell: float, min_split: int):
        ranks = np.repeat(np.arange(n, dtype=np.float64)[:, None], dim, axis=1)
        tree = grow_tree(JointSample(ranks, 1, dim - 1), max_cell, min_split)
        self.joint, self.axis, self.left, self.right = tree.joint, tree.axis, tree.left, tree.right
        # where each node's rows start in its parent's sorted layout row
        start, source = {0: 0}, n
        self.levels: List[_Level] = []
        cells = np.flatnonzero(self.left[:1] >= 0)  # the root, if it splits
        while cells.size:
            width = int(self.joint[cells].max())
            gather = np.array([start[c] for c in cells.tolist()])[:, None] + np.arange(width)
            level = _Level(int(self.axis[cells[0]]), cells, self.joint, gather,
                           self.left, self.right, source)
            self.levels.append(level)
            source = gather.size
            for i, (left, right, k) in enumerate(zip(level.left.tolist(), level.right.tolist(),
                                                     level.k.tolist())):
                start[left], start[right] = i * width, i * width + k
            children = np.stack([level.left, level.right], axis=1).ravel()  # left to right
            cells = children[self.left[children] >= 0]


# A sweep grows many calls' trees of one size: keep the last skeleton only.
_skeleton = functools.lru_cache(maxsize=1)(_Skeleton)


def _grow_chunk(chunk: List[JointSample], skeleton: _Skeleton, max_cell: float,
                min_split: int) -> Iterator[Tuple[JointSample, PartitionTree]]:
    n, p, q = chunk[0].n, chunk[0].p, chunk[0].q
    columns = np.empty((p + q, len(chunk), n))
    for t, sample in enumerate(chunk):
        columns[:, t] = sample.data.T
    threshold, irregular = _split_levels(columns, skeleton)
    x_marginal, r_marginal = ((_interval_counts if hi == lo + 1 else _member_counts)(
        columns[lo:hi], lo, threshold, skeleton) for lo, hi in ((0, p), (p, p + q)))
    threshold = threshold[:, :-1]
    sound = ((skeleton.joint <= np.minimum(x_marginal, r_marginal)).all(axis=1)
             & np.isfinite(threshold[:, skeleton.left >= 0]).all(axis=1))
    for t, sample in enumerate(chunk):
        if irregular[t]:
            yield sample, grow_tree(sample, max_cell, min_split)
        elif not sound[t]:
            raise RuntimeError("grown partition breaks a count or split invariant")
        else:
            yield sample, PartitionTree(
                skeleton.joint.copy(), x_marginal[t], r_marginal[t], skeleton.axis.copy(),
                threshold[t], skeleton.left.copy(), skeleton.right.copy(), n, p, q)


def _split_levels(columns: np.ndarray, skeleton: _Skeleton) -> Tuple[np.ndarray, np.ndarray]:
    """Split every cell of every sample, one depth at a time.

    ``columns`` holds each coordinate of every sample, (p + q, samples, n).
    Returns the thresholds, (samples, nodes + 1) with column `nodes` standing
    for no node, and which samples left the regular shape.
    """
    trials, n = columns.shape[1:]
    columns = columns.reshape(len(columns), -1)
    rows = np.arange(trials * n, dtype=np.int32).reshape(trials, n)  # ids into columns
    threshold = np.full((trials, skeleton.joint.size + 1), np.nan)
    irregular = np.zeros(trials, dtype=bool)
    stride = np.arange(trials)[:, None, None]
    for level in skeleton.levels:
        if level.reshape:
            rows = rows.reshape(trials, *level.gather.shape)
        else:
            rows = rows.reshape(trials, -1)[:, level.gather]
        column = columns[level.axis]
        values = column[rows]
        if not level.reshape:
            values[:, level.pad] = np.inf
        rows = np.take(rows, values.argsort(axis=-1) + (level.base + stride * level.gather.size))
        a = column[rows[:, level.cell_index, level.k - 1]]
        b = column[rows[:, level.cell_index, level.k]]
        with np.errstate(over="ignore"):
            total = a + b
        # the same expression as grow_tree, halving first only on overflow
        cut = np.where(np.isfinite(total), 0.5 * total, 0.5 * a + 0.5 * b) + 0.0
        # a < cut <= b puts exactly the first k of a cell below the cut
        irregular |= (a >= cut).any(axis=1)
        threshold[:, level.cells] = cut
    return threshold, irregular


def _interval_counts(values: np.ndarray, axis: int, threshold: np.ndarray,
                     skeleton: _Skeleton) -> np.ndarray:
    """Marginal counts of a one-coordinate block, (samples, nodes).

    ``values`` holds the block's coordinate, (1, samples, n). A node's
    members are an interval of its sorted column, cut by a search of the
    threshold at every split on ``axis``.
    """
    ordered = np.sort(values[0], axis=1)
    trials, n = ordered.shape
    start = np.zeros((trials, skeleton.joint.size), dtype=np.int64)
    stop = np.full_like(start, n)
    for level in skeleton.levels:
        lo, hi = start[:, level.cells], stop[:, level.cells]
        start[:, level.left] = start[:, level.right] = lo
        stop[:, level.left] = stop[:, level.right] = hi
        if level.axis == axis:
            cut = np.array([column.searchsorted(cuts) for column, cuts
                            in zip(ordered, threshold[:, level.cells])])
            stop[:, level.left] = start[:, level.right] = cut
    return stop - start


def _member_counts(values: np.ndarray, lo: int, threshold: np.ndarray,
                   skeleton: _Skeleton) -> np.ndarray:
    """Marginal counts of a block of several coordinates, (samples, nodes).

    ``values`` holds the block's coordinates, (width, samples, n), and the
    block's first coordinate is ``lo``. Every row starts at its sample's
    root and is a member of one node per branch: a split on the other block
    copies every row into both children, so the branches double, and a
    split on this block sends each copy to the side of its node's
    threshold. Copies whose node stops splitting go to the column of no
    node. Node ids are offset per sample, so one flat lookup serves the
    whole chunk.
    """
    width, trials, n = values.shape
    nodes = skeleton.joint.size
    counts = np.tile(skeleton.joint, (trials, 1))
    offset = np.arange(trials, dtype=np.int32)[:, None] * (nodes + 1)
    left, right = ((np.append(np.where(side >= 0, side, nodes), nodes) + offset)
                   .ravel().astype(np.int32) for side in (skeleton.left, skeleton.right))
    # the child of node v on side s (0 left, 1 right) at 2*v + s
    pair = np.stack([left, right], axis=-1).ravel()
    flat_threshold = threshold.ravel()
    member = np.repeat(offset, n, axis=1)[None]  # one branch, every row at its root
    for level in skeleton.levels:
        if not 0 <= level.axis - lo < width:
            counts[:, level.left] = counts[:, level.right] = counts[:, level.cells]
            copies = np.empty((2 * len(member),) + member.shape[1:], dtype=member.dtype)
            for i, branch in enumerate(member):  # "clip" fills `out` without a buffer
                np.take(left, branch, out=copies[i], mode="clip")
                np.take(right, branch, out=copies[len(member) + i], mode="clip")
            member = copies
            continue
        column = values[level.axis - lo]
        found = np.zeros(trials * (nodes + 1), dtype=np.int64)
        for branch in member:
            side = column >= flat_threshold[branch]
            step = branch * 2
            step += side
            np.take(pair, step, out=branch, mode="clip")
            found += np.bincount(branch.ravel(), minlength=found.size)
        found = found.reshape(trials, nodes + 1)
        counts[:, level.left], counts[:, level.right] = found[:, level.left], found[:, level.right]
    return counts


def prune_tree(tree: PartitionTree, lam: float, leaf_penalty: float) -> PartitionTree:
    """Exact complexity-regularized pruning by bottom-up dynamic programming.

    Selects the pruned subtree maximizing
    sum over leaves of count_term - lam * leaf_penalty * (number of leaves).
    At each internal node the children's best subtrees are kept only when
    their combined score strictly exceeds the node-as-leaf score; ties
    collapse to the leaf. A zero penalty keeps the tree unchanged (splitting
    never decreases the information sum, so the full tree is optimal).
    """
    left, right, _, _ = _prune(tree, lam, leaf_penalty)
    return replace(tree, left=np.array(left), right=np.array(right))


def _prune(tree: PartitionTree, lam: float, leaf_penalty: float) -> tuple:
    """The DP of ``prune_tree`` and the sum it selects, in one call: the pruned
    left and right child lists, the ``count_term`` sum of the kept leaves
    taken left to right, and the number of kept leaves."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not leaf_penalty >= 0:
        raise ValueError("leaf_penalty must be non-negative")
    penalty = lam * leaf_penalty
    terms = _node_terms(tree)
    left, right = tree.left.tolist(), tree.right.tolist()
    if penalty:
        score = (terms - penalty).tolist()
        # children first; a node's own step is the only one that prunes it
        for node in np.flatnonzero(tree.left >= 0)[::-1].tolist():
            split = score[left[node]] + score[right[node]]
            if split > score[node]:
                score[node] = split
            else:
                left[node] = right[node] = -1
    kept = _leaf_ids(left, right)
    terms = terms.tolist()
    total = 0.0
    for node in kept:
        total += terms[node]
    return left, right, total, len(kept)


# Largest n with n * n < 2**53: up to it, every count product is an exact
# float64 integer, so a float64 quotient rounds as Python's int / int does.
_EXACT_TERMS_N = math.isqrt(2**53 - 1)


def _node_terms(tree: PartitionTree) -> np.ndarray:
    """``count_term`` of every node, to the bit, from the node arrays."""
    n = tree.n
    if n > _EXACT_TERMS_N:
        return np.array([count_term(m, xm, rm, n) for m, xm, rm in zip(
            tree.joint.tolist(), tree.x_marginal.tolist(), tree.r_marginal.tolist())])
    joint = tree.joint.astype(np.float64)
    # an empty cell takes ratio 1, so its term is 0.0 * log(1) = 0.0, as in count_term
    ratio = np.divide(joint * n, tree.x_marginal.astype(np.float64) * tree.r_marginal,
                      out=np.ones_like(joint), where=joint > 0)
    # math.log, as np.log can round differently from it; a float64 product or
    # difference in numpy rounds as Python's float arithmetic does
    return joint / n * np.fromiter(map(math.log, ratio.tolist()), np.float64, joint.size)
