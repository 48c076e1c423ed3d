"""grow_batch against grow_tree, array for array, under today's axis rule
and under block alternation, its skeleton cache and reshaped depths, and its
use by emi.

Samples mix continuous columns with ties, a coarse grid, signed zeros, pairs of adjacent
floats (whose midpoint can round onto the lower one) and values near the
float maximum (whose sum overflows), so chunks mix samples that keep the
regular tree shape with samples that fall back to grow_tree.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SCHEDULE
from rivkit import JointSample, emi, grow_tree
from rivkit import partition
from rivkit.partition import CHUNK, grow_batch

FIELDS = ("joint", "x_marginal", "r_marginal", "axis", "threshold", "left", "right")
FLAVOURS = ("continuous", "ties", "grid", "signed zeros", "adjacent floats", "huge")
SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))


def assert_same_tree(batch, single):
    assert (batch.n, batch.p, batch.q) == (single.n, single.p, single.q)
    for field in FIELDS:
        got, want = getattr(batch, field), getattr(single, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def trial_data(rng, flavour, n, dim):
    data = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, dim)
    share = rng.uniform(0.05, 0.6)
    if flavour == "ties":
        tied = rng.random((n, dim)) < share
        data[tied] = rng.choice([-1.0, 0.0, 0.5, 1.0], size=np.count_nonzero(tied))
    elif flavour == "grid":  # a midpoint two steps wide is a grid value other rows hold
        data = rng.integers(-2 * n, 2 * n, (n, dim)) / 4
    elif flavour == "signed zeros":
        zero = rng.random((n, dim)) < share
        data[zero] = rng.choice([-0.0, 0.0], size=np.count_nonzero(zero))
    elif flavour == "adjacent floats":
        half = n // 2
        data[1:2 * half:2] = np.nextafter(data[0:2 * half:2], np.inf)
    elif flavour == "huge":
        sign = rng.choice([-1.0, 1.0], dim)
        data = rng.uniform(0.5, 1.0, (n, dim)) * sign * np.finfo(np.float64).max
    return data


def continuous_samples(n, p, q, trials, seed=0):
    rng = np.random.default_rng(seed)
    return [JointSample(rng.standard_normal((n, p + q)), p, q) for _ in range(trials)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grow_batch_equals_grow_tree_array_for_array(data):
    p, q = data.draw(st.sampled_from(SHAPES))
    n = data.draw(st.one_of(st.integers(2, 64), st.integers(2, 3000), st.just(777)))
    trials = data.draw(st.sampled_from([1, CHUNK, CHUNK + 1]))
    max_cell = data.draw(st.one_of(st.just(SCHEDULE.cell_cap(n)), st.floats(1.0, 64.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    samples = [JointSample(trial_data(rng, data.draw(st.sampled_from(FLAVOURS)), n, p + q), p, q)
               for _ in range(trials)]
    pairs = list(grow_batch(iter(samples), max_cell))
    assert len(pairs) == trials
    for sample, (yielded, tree) in zip(samples, pairs):
        assert yielded is sample
        assert_same_tree(tree, grow_tree(sample, max_cell))


@pytest.mark.parametrize("p, q", SHAPES)
# 2048 reshapes at every depth; 12 splits only on the inputs when p = 2
@pytest.mark.parametrize("n", [2, 3, 12, 777, 2000, 2048])
def test_tie_free_samples_never_fall_back_to_grow_tree(monkeypatch, p, q, n):
    samples = continuous_samples(n, p, q, CHUNK + 1)
    max_cell = SCHEDULE.cell_cap(n)
    expected = [grow_tree(sample, max_cell) for sample in samples]

    def refuse(*args, **kwargs):
        raise AssertionError("a tie-free sample was regrown one by one")

    partition._skeleton(n, p, q, max_cell)  # grown by grow_tree: build it before the patch
    monkeypatch.setattr(partition, "grow_tree", refuse)
    for (_, tree), single in zip(grow_batch(samples, max_cell), expected):
        assert_same_tree(tree, single)


def block_alternation(p, q):
    """An axis rule that depends on depth alone but knows the blocks: even
    depths split an input and odd depths a response, each block cycling
    through its own axes, and every other axis follows as a fallback."""
    firsts = [(depth // 2) % p if depth % 2 == 0 else p + (depth // 2) % q
              for depth in range(2 * math.lcm(p, q))]
    return [[first, *(axis for axis in range(p + q) if axis != first)] for first in firsts]


@pytest.fixture
def alternation(monkeypatch):
    """grow_tree and the skeleton under block alternation, with no skeleton of
    either rule left in the cache on the way in or out."""
    partition._skeleton.cache_clear()
    monkeypatch.setattr(partition, "_axis_orders", block_alternation)
    yield
    partition._skeleton.cache_clear()


@pytest.mark.parametrize("p, q", SHAPES)
def test_grow_batch_equals_grow_tree_under_another_depth_only_axis_rule(alternation, p, q):
    rng = np.random.default_rng(10 * p + q)
    for n in (3, 12, 777, 2000):
        max_cell = SCHEDULE.cell_cap(n)
        samples = [JointSample(trial_data(rng, flavour, n, p + q), p, q) for flavour in FLAVOURS]
        for sample, tree in grow_batch(samples, max_cell):
            assert_same_tree(tree, grow_tree(sample, max_cell))


def test_n_777_has_a_depth_that_mixes_leaves_and_splits():
    tree = grow_tree(continuous_samples(777, 2, 1, 1)[0], SCHEDULE.cell_cap(777))
    depth = np.zeros(tree.joint.size, dtype=int)
    for node in np.flatnonzero(tree.left >= 0):  # preorder: parents first
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    mixed = [d for d in np.unique(depth)
             if len(set((tree.left[depth == d] >= 0).tolist())) == 2]
    assert mixed


def test_only_the_sample_that_leaves_the_regular_shape_is_regrown(monkeypatch):
    samples = continuous_samples(500, 2, 1, CHUNK + 1)
    tied = samples[1].data.copy()
    tied[:, 0] = np.round(tied[:, 0])  # the root's median split meets a tie
    samples[1] = JointSample(tied, 2, 1)
    expected = [grow_tree(sample, 20) for sample in samples]
    regrown = []

    def counting(sample, *args):
        regrown.append(sample)
        return expected[[id(s) for s in samples].index(id(sample))]

    partition._skeleton(500, 2, 1, 20)  # grown by grow_tree: build it before the patch
    monkeypatch.setattr(partition, "grow_tree", counting)
    for (_, tree), single in zip(grow_batch(samples, 20), expected):
        assert_same_tree(tree, single)
    assert len(regrown) == 1 and regrown[0] is samples[1]


@pytest.mark.parametrize("n, reshaped", [(777, [True] + [False] * 6),
                                         (2000, [True] * 5 + [False] * 2), (2048, [True] * 7)])
def test_a_depth_reshapes_only_where_its_gather_is_the_identity_without_pad(n, reshaped):
    levels = partition._Skeleton(n, 2, 1, SCHEDULE.cell_cap(n)).levels
    source = n  # rows of the layout a depth gathers from
    for level in levels:
        identity = (not level.pad.any() and level.gather.size == source
                    and (level.gather.ravel() == np.arange(source)).all())
        assert level.reshape == identity
        source = level.gather.size
    assert [level.reshape for level in levels] == reshaped


def test_the_skeleton_cache_holds_one_skeleton_across_alternating_shapes():
    partition._skeleton.cache_clear()
    for seed, (n, p, q) in enumerate([(300, 1, 1), (500, 2, 1), (500, 2, 1), (300, 1, 2),
                                      (300, 1, 1), (500, 2, 1)]):
        max_cell = SCHEDULE.cell_cap(n)
        samples = continuous_samples(n, p, q, CHUNK + 1, seed)
        for sample, tree in grow_batch(samples, max_cell):
            assert_same_tree(tree, grow_tree(sample, max_cell))
        assert partition._skeleton.cache_info().currsize == 1
    assert partition._skeleton.cache_info().hits == 1  # the repeated (500, 2, 1)


def test_grow_batch_reads_one_chunk_at_a_time():
    drawn = []

    def endless():
        for seed in itertools.count():
            drawn.append(seed)
            yield continuous_samples(64, 1, 1, 1, seed)[0]

    pairs = grow_batch(endless(), 8)
    next(pairs)
    assert len(drawn) == CHUNK
    for _ in range(CHUNK):
        next(pairs)
    assert len(drawn) == 2 * CHUNK


def test_grow_batch_validates_its_arguments_before_reading_samples():
    with pytest.raises(ValueError, match="max_cell"):
        grow_batch(iter(()), 0)
    with pytest.raises(ValueError, match="max_cell"):
        grow_batch(iter(()), float("nan"))
    assert list(grow_batch([], 8)) == []


def test_grow_batch_rejects_samples_of_different_shapes():
    samples = continuous_samples(50, 1, 1, 2) + continuous_samples(50, 2, 1, 1)
    with pytest.raises(ValueError, match="cannot be grown together"):
        list(grow_batch(samples, 8))


def test_emi_of_a_batch_grown_tree_equals_emi():
    samples = continuous_samples(1200, 2, 1, CHUNK + 1)
    for sample, tree in grow_batch(samples, SCHEDULE.cell_cap(1200)):
        assert emi(sample, SCHEDULE, tree) == emi(sample, SCHEDULE)


def test_emi_rejects_a_tree_grown_from_another_sample_shape():
    small, large = continuous_samples(50, 1, 1, 1)[0], continuous_samples(60, 1, 1, 1)[0]
    with pytest.raises(ValueError, match="not grown from this sample"):
        emi(small, SCHEDULE, grow_tree(large, SCHEDULE.cell_cap(60)))
