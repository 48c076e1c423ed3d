"""Property tests of the partition core and the CSV reader on generated data.

Samples mix finite floats of any magnitude (up to the float maximum, where a
midpoint can overflow) with a few repeated values, so ties are common.
Samples on the dyadic grid k/16 keep every shift and midpoint exact.
Tables mix round-trip floats with cells that only ``float()`` accepts, cells
nothing accepts, blank lines and ragged rows. Streams of padded numbers check
that the monitor reads the rows that the reader reads.
"""

import contextlib
import io
import json
import math
import struct
from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import SCHEDULE, emi_fixed_partition
from rivkit import JointSample, cli, count_term, emi, grow_tree, prune_tree

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


# k/16 with |k| <= 2^10: sums and midpoints of these stay exact
DYADIC = st.integers(-2**10, 2**10).map(lambda k: k / 16)


@st.composite
def dyadic_samples(draw, max_rows=96):
    n = draw(st.integers(2, max_rows))
    p = draw(st.integers(1, 2))
    return JointSample(draw(hnp.arrays(np.float64, (n, p + 1), elements=DYADIC)), p, 1)


@PROPERTY
@given(dyadic_samples(), DYADIC)
def test_emi_is_bit_identical_under_a_constant_residual_shift(sample, shift):
    shifted = JointSample(sample.data + np.append(np.zeros(sample.p), shift), sample.p, 1)
    first, second = emi(sample, SCHEDULE), emi(shifted, SCHEDULE)
    assert repr(first.emi) == repr(second.emi)
    assert first.leaf_count == second.leaf_count


INCREASING = st.sampled_from([lambda v: 3 * v - 1, lambda v: v**3, np.arctan, np.exp, np.cbrt])


@PROPERTY
@given(dyadic_samples(), st.data())
def test_grown_joint_counts_are_equal_under_increasing_transforms(sample, data):
    # Marginal counts may differ: a midpoint threshold moves between the two
    # order statistics, past points that lie outside the cell.
    columns = []
    for column in sample.data.T:
        increasing = data.draw(INCREASING)
        assume(np.all(np.diff(increasing(np.unique(column))) > 0))  # distinct stays distinct
        columns.append(increasing(column))
    max_cell = data.draw(st.integers(1, 8))
    first = grow_tree(sample, max_cell=max_cell)
    second = grow_tree(JointSample(np.column_stack(columns), sample.p, 1), max_cell=max_cell)
    assert [joint for joint, _, _ in first.leaf_counts()] == \
        [joint for joint, _, _ in second.leaf_counts()]


@PROPERTY
@given(grown_trees(), st.floats(0.0, 1.0))
def test_leaf_counts_sum_to_n_before_and_after_pruning(grown, penalty):
    sample, tree = grown
    for candidate in (tree, prune_tree(tree, penalty)):
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
    lower, upper = tree.boxes()

    def walk(node):
        inside = (sample.data >= lower[node]) & (sample.data < upper[node])
        assert tree.joint[node] == np.count_nonzero(inside.all(axis=1))
        assert tree.x_marginal[node] == np.count_nonzero(inside[:, :p].all(axis=1))
        assert tree.r_marginal[node] == np.count_nonzero(inside[:, p:].all(axis=1))
        if tree.left[node] >= 0:
            walk(tree.left[node])
            walk(tree.right[node])

    walk(0)


@PROPERTY
@given(grown_trees(), st.floats(0.0, 1.0))
def test_fixed_partition_sum_equals_the_leaf_count_sum_to_the_bit(grown, penalty):
    # Pruning leaves the nodes under a new leaf in the arrays, unreachable;
    # the boxes of the reachable leaves must still recount each leaf's cell.
    sample, tree = grown
    for candidate in (tree, prune_tree(tree, penalty)):
        total = 0.0
        for counts in candidate.leaf_counts():
            total += count_term(*counts, sample.n)
        assert struct.pack("<d", emi_fixed_partition(sample, candidate)) == \
            struct.pack("<d", total)


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
    pruned = prune_tree(tree, penalty)
    kept = leaf_ids(pruned)
    dp_score = sum(term(tree, node) for node in kept) - penalty * len(kept)
    options = sorted(prunings(tree, 0, penalty), key=lambda option: option[0], reverse=True)
    best_score, best_leaves = options[0]
    assert math.isclose(dp_score, best_score, rel_tol=0.0, abs_tol=1e-12)
    if len(options) == 1 or best_score - options[1][0] > 1e-12:
        assert kept == best_leaves
    assert pruned.leaf_ids() == kept
    assert [count_term(*counts, tree.n) for counts in pruned.leaf_counts()] == \
        [term(tree, node) for node in kept]


@st.composite
def sized_samples(draw):
    """Samples of 2 to 3000 rows in every block shape: continuous, partly
    tied, or on a grid of quarters."""
    p, q = draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n, p + q))
    kind = draw(st.sampled_from(["continuous", "tied", "grid"]))
    if kind == "tied":
        tied = rng.random((n, p + q)) < rng.uniform(0.05, 0.6)
        data[tied] = rng.choice([-1.0, 0.0, 0.5, 1.0], size=np.count_nonzero(tied))
    elif kind == "grid":
        data = rng.integers(-2 * n, 2 * n, (n, p + q)) / 4
    return JointSample(data, p, q)


@PROPERTY
@given(sized_samples(), st.one_of(st.sampled_from([-9.0, 0.0]), st.floats(-9.0, 0.0)))
def test_emi_equals_the_leaf_sum_of_the_pruned_tree_to_the_bit(sample, exponent):
    # lam runs from a near-full tree (1e-9) to a collapse (1). The reference
    # sums count_term, which takes math.log, as emi does. np.log would not do:
    # with numpy 2.4 on an AVX-512 x86-64 CPU it differs from math.log on 202
    # of the 16,284 distinct count ratios of 240 grown trees of n=2000.
    schedule = replace(SCHEDULE, lam=10.0 ** exponent)
    n = sample.n
    pruned = prune_tree(grow_tree(sample, schedule.cell_cap(n)), schedule.leaf_penalty(n))
    leaves = pruned.leaf_counts()
    total = 0.0
    for counts in leaves:
        total += count_term(*counts, n)
    report = emi(sample, schedule)
    assert struct.pack("<d", report.emi) == struct.pack("<d", max(0.0, total))
    assert report.leaf_count == len(leaves)


NUMBERS = st.floats(width=64).map(lambda value: f"{value:.17g}")
# float() strips all of these but U+001F, which loadtxt strips too
PADS = st.sampled_from(["", " ", "\t", "\u3000", "\x1f"])
PADDED = st.tuples(PADS, NUMBERS, PADS).map("".join)
CELLS = st.one_of(
    PADDED,
    st.sampled_from(["", " ", "1_0", "#1", "# 2", "n/a", "\u0661", "-0", "1e999"]),
    st.text(max_size=4),
)


@st.composite
def csv_tables(draw):
    """(file text, requested column blocks) for a table with a header row."""
    width = draw(st.integers(1, 4))
    numeric = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    # lines before the header, and a mark on its first name, that may read as
    # blank or break the line for str.splitlines but not for loadtxt
    lead = draw(st.lists(st.sampled_from(["", " ", "\r", "\x0c", "\x1c", "\u3000", "\ufeff"]),
                         max_size=2))
    mark = draw(st.sampled_from(["", "\u00b0C", "\r", "\x0c", "\u2028", "\x1f"]))
    names = [f"c0{mark}"] + [f"c{j}" for j in range(1, width)]
    lines = lead + [",".join(f" {name}" for name in names)]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(PADDED if kind else CELLS) for kind in numeric]
        ragged = draw(st.sampled_from([0] * 8 + [-1, 1]))
        cells = cells[:width - 1] if ragged < 0 else cells + ["7"] * ragged
        lines.append(",".join(cells))
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t "]), max_size=1))
    names += draw(st.sampled_from([[], ["absent"]]))
    order = draw(st.permutations(names))
    first = draw(st.integers(1, len(order)))
    blocks = [order[:first]]
    if first < len(order):
        blocks.append(order[first:draw(st.integers(first + 1, len(order)))])
    return "\n".join(lines) + "\n", blocks


def read_outcome(call):
    try:
        return [(block.shape, block.tobytes()) for block in call()]
    except (cli.DataError, cli.UsageError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(table=csv_tables())
def test_csv_reader_matches_the_cell_scan(tmp_path_factory, table):
    text, blocks = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_text(text)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    expected = read_outcome(
        lambda: [cli._scan_columns(cli._header_fields(lines[0]), lines[1:], blocks, str(path))])
    assert read_outcome(lambda: [cli._read_table(str(path), *blocks)]) == expected


@st.composite
def streams(draw):
    """(file text, its numbers, x columns, y column) of a headed table of at
    least MIN_WINDOW rows of finite numbers. Cells are padded by PADS, and
    each line's two edges by pads of their own; blank and whitespace-only
    lines fall between rows, lines end in LF, CRLF or a form feed, and the
    header may start with a byte-order mark."""
    names = [f"c{j}" for j in range(draw(st.integers(2, 3)))]
    rows = draw(st.integers(cli.MIN_WINDOW, cli.MIN_WINDOW + 8))
    values = draw(hnp.arrays(np.float64, (rows, len(names)),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    inner, edge = (draw(st.lists(PADS, min_size=1, max_size=2, unique=True)) for _ in range(2))
    # per row: which of the two pads goes on each side of each cell and edge,
    # the line after it (none when negative) and the ends of both lines
    picks = draw(hnp.arrays(np.bool_, (rows, 2 * len(names) + 2)))
    after = draw(hnp.arrays(np.int8, rows, elements=st.integers(-4, 3)))
    ends = draw(hnp.arrays(np.int8, (rows + 1, 2), elements=st.integers(0, 2)))
    line_ends, fillers = ["\n", "\r\n", "\x0c"], ["", "  ", "\t", "\x1f"]
    text = draw(st.sampled_from(["", "\ufeff"])) + ",".join(names) + line_ends[ends[0, 0]]
    for row, pick, filler, end in zip(values, picks, after, ends[1:]):
        pads = [inner[k % len(inner)] for k in pick[:-2]]
        cells = (pads[2 * j] + f"{value:.17g}" + pads[2 * j + 1] for j, value in enumerate(row))
        text += edge[pick[-2] % len(edge)] + ",".join(cells) + edge[pick[-1] % len(edge)]
        text += line_ends[end[0]] + (fillers[filler] + line_ends[end[1]] if filler >= 0 else "")
    return text, values, names[:-1], names[-1]


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def edge_padded_stream():
    """A stream whose one bad cell is a last cell ending in U+001F, which
    ``str.strip`` would take off its line."""
    values = np.arange(3.0 * cli.MIN_WINDOW).reshape(-1, 3)
    lines = ["c0,c1,c2"] + [",".join(f"{value:g}" for value in row) for row in values]
    lines[5] += "\x1f"
    return "\n".join(lines) + "\n", values, ["c0", "c1"], "c2"


@settings(max_examples=60, deadline=None)
@given(stream=streams())
@example(stream=edge_padded_stream())
def test_monitor_reads_the_rows_the_csv_reader_reads(tmp_path_factory, stream):
    """A table that the reader returns is the monitor's one window, read with
    no warning; from a file that the reader refuses, no window is filled."""
    text, values, x_cols, y_col = stream
    base = tmp_path_factory.getbasetemp()
    path, predictions = base / "stream.csv", base / "predictions.csv"
    path.write_bytes(text.encode())
    p = len(x_cols)
    np.savetxt(predictions, np.column_stack((values[:, :p], np.zeros(len(values)))),
               fmt="%.17g", delimiter=",", comments="",
               header=",".join([f"x_{j + 1}" for j in range(p)] + ["yhat_1"]))
    code, out, err = run_main("monitor", "--data", str(path), "--x-cols", ",".join(x_cols),
                              "--y-cols", y_col, "--predictions", str(predictions),
                              "--window-size", str(len(values)))
    try:
        table = cli._read_table(str(path), x_cols, [y_col])
    except cli.DataError:
        assert (code, out) == (3, "")
        return
    (record,) = map(json.loads, out.splitlines())
    assert (code in (0, 2), record["fingerprint"], err) == (True, cli._fingerprint(table), "")
