"""Span tracer that wraps rivkit's public functions from outside the package.

Each wrapper records one span: (layer, name, parent span, start, end). The
wrappers are installed at every import site of a function, because a module
that did ``from .partition import grow_tree`` keeps its own reference and
would bypass a patch of the defining module alone. Spans stay in memory
until the operation ends; ``summarize`` turns them into per-layer self
times and counts and checks that the self times account for the traced
wall time of the operation.

``systems.eval_eta`` is deliberately left unwrapped: ``ar_path`` calls it
once per time step, so a wrapper there would dominate the trace overhead.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "samples", "pipeline", "estimator", "partition", "systems",
          "detector", "trace")

# Span list layout: [layer, name, parent index, start, end, extra]
LAYER, NAME, PARENT, START, END, EXTRA = range(6)

# Share of the wall time that may lie outside every span: the benchmark's
# own loop between the operation clock and the first cli call.
MAX_GAP_SHARE = 0.02


class Tracer:
    """Installs span-recording wrappers and collects spans of one operation."""

    def __init__(self, rivkit_modules: Dict[str, Any]):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._sites = _import_sites(rivkit_modules)

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        if self._patches:
            return
        for owner, attr, layer, name, inspect in self._sites:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, layer, name, inspect))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, layer: str, name: str,
              inspect: Optional[Callable[[Any], int]]) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, name, parent, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if inspect is not None:
                # The tracer's own look at the result is a span of layer
                # "trace", so it is not billed to the caller.
                probe = ["trace", name + ".inspect", parent, perf_counter(), 0.0, None]
                spans.append(probe)
                span[EXTRA] = inspect(result)
                probe[END] = perf_counter()
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def _import_sites(m: Dict[str, Any]) -> List[tuple]:
    """(owner, attribute, layer, span name, result inspector) per wrapper."""
    cli, pipeline, estimator, detector = m["cli"], m["pipeline"], m["estimator"], m["detector"]
    leaves_of_tree = lambda tree: tree.leaf_count  # noqa: E731
    reading = lambda report: (report.emi, report.leaf_count)  # noqa: E731
    return [
        (cli, "main", "cli", "main", None),
        (cli, "riv", "pipeline", "riv", None),
        (cli, "rif", "pipeline", "rif", None),
        (cli, "fit_linear", "pipeline", "fit_linear", None),
        (cli, "table_model", "pipeline", "table_model", None),
        (cli, "decide", "detector", "decide", None),
        (cli, "estimate_error_rate", "detector", "estimate_error_rate", None),
        (cli, "sample_system", "systems", "sample", None),
        (m["pipeline"].NominalModel, "predict", "pipeline", "predict", None),
        (m["samples"].JointSample, "__post_init__", "samples", "joint_sample", None),
        (pipeline, "join", "samples", "join", None),
        (pipeline, "emi", "estimator", "emi", reading),
        (estimator, "grow_tree", "partition", "grow", leaves_of_tree),
        (estimator, "prune_tree", "partition", "prune", None),
        (detector, "emi", "estimator", "emi", reading),
        (detector, "decide", "detector", "decide", None),
        (detector, "sample_system", "systems", "sample", None),
        (detector, "eta_values", "systems", "residual", None),
    ]


# ------------------------------------------------------------- accounting

def summarize(spans: List[list], wall: float) -> Dict[str, Any]:
    """Self time per layer, inclusive time and count per span name, for one op.

    Counts and inclusive times take only the outermost span of a name, so a
    model whose evaluator calls another model's ``predict`` counts once.
    A span's self time is its duration minus the durations of its direct
    children. Single-threaded spans nest, so the self times of all spans
    add up to the time covered by the outermost spans; the rest of ``wall``
    is the gap no wrapper claimed. Raises ``AccountingError`` when spans do
    not nest or the gap is larger than ``MAX_GAP_SHARE`` of the wall time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[END] < span[START]:
            raise AccountingError(f"span {span[NAME]} ends before it starts")
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                raise AccountingError(f"span {span[NAME]} leaks out of {outer[NAME]}")
            child_time[parent] += span[END] - span[START]

    self_s = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    counts: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    extras: Dict[str, list] = {}
    for i, span in enumerate(spans):
        key = f"{span[LAYER]}.{span[NAME]}"
        duration = span[END] - span[START]
        own = duration - child_time[i]
        if own < -1e-9:
            raise AccountingError(f"children of {key} outlast it")
        self_s[span[LAYER]] += own
        if span[PARENT] < 0:
            covered += duration
        durations.setdefault(key, []).append(duration)
        if span[EXTRA] is not None:
            extras.setdefault(key, []).append(span[EXTRA])
        if not _has_ancestor_named(spans, i):
            counts[key] = counts.get(key, 0) + 1
            inclusive[key] = inclusive.get(key, 0.0) + duration

    total_self = sum(self_s.values())
    if abs(total_self - covered) > 1e-6 + 1e-9 * len(spans):
        raise AccountingError(f"self times add to {total_self}, spans cover {covered}")
    gap = wall - covered
    if gap < -1e-6 or gap > MAX_GAP_SHARE * wall:
        raise AccountingError(
            f"self times add to {total_self:.6f} s of {wall:.6f} s traced wall time")
    return {"wall": wall, "gap": gap, "self": self_s, "counts": counts,
            "inclusive": inclusive, "durations": durations, "extras": extras}


def _has_ancestor_named(spans: List[list], i: int) -> bool:
    """True when span i is nested inside a span of the same layer and name."""
    layer, name = spans[i][LAYER], spans[i][NAME]
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][LAYER] == layer and spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class AccountingError(RuntimeError):
    """Per-layer self times do not account for an operation's wall time."""


def layer_metrics(ops: List[Dict[str, Any]],
                  ingest: Tuple[int, int]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics averaged over traced operations.

    Times are shares of the traced wall time: a layer that a workload does
    not run reads 0 of the operation, never a constant 0 s. The caller adds
    ``trace.op_s``, the base that turns a share back into seconds, and
    ``trace.overhead_share``.
    """
    k = len(ops)
    wall = sum(op["wall"] for op in ops)

    def count(key: str) -> float:
        return sum(op["counts"].get(key, 0) for op in ops) / k

    def share(total: float) -> float:
        return total / wall

    def self_share(layer: str) -> float:
        return share(sum(op["self"][layer] for op in ops))

    def incl_share(key: str) -> float:
        return share(sum(op["inclusive"].get(key, 0.0) for op in ops))

    readings = count("estimator.emi")
    grows = count("partition.grow")
    grown = sum(sum(op["extras"].get("partition.grow", [])) for op in ops)
    kept = sum(leaves for op in ops for _, leaves in op["extras"].get("estimator.emi", []))
    emi_ms = [d * 1e3 for op in ops for d in op["durations"].get("estimator.emi", [])]
    rows, size = ingest
    per_reading = (lambda v: v / readings) if readings else (lambda v: 0.0)

    return {
        "cli.self_share": (self_share("cli"), "share"),
        "cli.rows_parsed": (rows, "count"),
        "cli.bytes_in": (size, "B"),
        "samples.joint_sample.count": (count("samples.joint_sample"), "count"),
        "samples.joint_sample_share": (self_share("samples"), "share"),
        "samples.constructions_per_reading": (per_reading(count("samples.joint_sample")),
                                              "count"),
        "pipeline.self_share": (self_share("pipeline"), "share"),
        "pipeline.predict.count": (count("pipeline.predict"), "count"),
        "pipeline.predict_share": (incl_share("pipeline.predict"), "share"),
        "pipeline.predicts_per_reading": (per_reading(count("pipeline.predict")), "count"),
        "pipeline.fit_linear_share": (incl_share("pipeline.fit_linear"), "share"),
        "estimator.emi.count": (readings, "count"),
        "estimator.self_share": (self_share("estimator"), "share"),
        "estimator.emi_ms_p50": (statistics.median(emi_ms) if emi_ms else 0.0, "ms"),
        "partition.grow.count": (grows, "count"),
        "partition.grow_share": (incl_share("partition.grow"), "share"),
        "partition.prune_share": (incl_share("partition.prune"), "share"),
        "partition.grown_leaves": (grown / k / grows if grows else 0.0, "count"),
        "partition.kept_leaves": (kept / k / grows if grows else 0.0, "count"),
        "partition.kept_leaf_share": (kept / grown if grown else 0.0, "share"),
        "systems.sample.count": (count("systems.sample"), "count"),
        "systems.sample_share": (incl_share("systems.sample"), "share"),
        "systems.residual_share": (incl_share("systems.residual"), "share"),
        "detector.self_share": (self_share("detector"), "share"),
        "detector.decide.count": (count("detector.decide"), "count"),
        "trace.self_share": (self_share("trace"), "share"),
        "trace.gap_share": (share(sum(op["gap"] for op in ops)), "share"),
    }
