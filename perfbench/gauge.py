"""Reference kernel that gauges how fast the CPU runs while an operation runs.

The reference box is a 2-vCPU virtual machine. Other guests share its host,
and each vCPU switches between a fast and a slow state (about 1.6x apart)
every few seconds. CPU time swings with wall time, so this is a slower
CPU, not preemption. The state of one vCPU says nothing about the other: a
kernel timed on the second vCPU did not track operations on the first. So
the gauge must run on the operation's own CPU, and inside the operation,
because a monitor or estimate operation outlasts a state.

``Sampler`` therefore times a short kernel at the start and end of an
operation and, from a SIGALRM handler, every ``INTERVAL_S`` inside it. The
handler runs between two bytecodes of the operation, on the same thread.
``reference_seconds`` converts any interval of the operation into seconds
at the reference speed. It integrates piece by piece and scales each piece
between two samples by the speed-up factor of ``speedup``. It also leaves
out the time the kernel itself took. On the reference box this cut the
spread of single operations from 10-20% to about 4-5%.

The kernel is frozen and shares no code with rivkit: median splits of a
fixed sample, the same mix of interpreter work and small numpy calls as the
estimator. Changing it rescales every gated time.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List, Tuple

import numpy as np

# Seconds the kernel takes at the reference speed. This only fixes the
# scale of the scaled times; it is about the kernel's time on the reference
# box in its fast state.
REFERENCE_S = 0.0024
# In the slow state the workloads slow down more than the kernel: by the
# kernel's slowdown to the power 1.21 (monitor-stream), 1.08 (estimate-bulk)
# and 1.17 (montecarlo), fitted by least squares over 25 operations of each
# on the reference box. One shared exponent cuts the bias of a run spent
# mostly in the slow state, from about 10% to under 3%.
SLOWDOWN_EXPONENT = 1.15
REPEATS = 4
INTERVAL_S = 0.2
_DATA = np.random.default_rng(0).normal(size=(2000, 3))

Mark = Tuple[float, float]  # (start, end) of one kernel run


def _split(idx: np.ndarray, depth: int) -> int:
    if idx.size <= 32:
        return 1
    col = _DATA[idx, depth % 3]
    order = np.sort(col)
    k = idx.size // 2
    left = col < 0.5 * (order[k - 1] + order[k])
    return _split(idx[left], depth + 1) + _split(idx[~left], depth + 1)


class Sampler:
    """Context manager that samples the kernel around and inside a block.

    With ``inside=False`` only the two bracketing samples are taken, which
    suits blocks that run in a child process or under the tracer.
    """

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.marks: List[Mark] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        for _ in range(REPEATS):
            _split(np.arange(_DATA.shape[0]), 0)
        self.marks.append((start, perf_counter()))

    def __enter__(self) -> "Sampler":
        self.sample()
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def speedup(kernel_s: float) -> float:
    """Factor from a time measured while the kernel took ``kernel_s`` to the
    reference speed."""
    return (REFERENCE_S / kernel_s) ** SLOWDOWN_EXPONENT


def own_seconds(marks: List[Mark], a: float, b: float) -> float:
    """Wall time in [a, b] that the kernel did not take."""
    return (b - a) - sum(max(0.0, min(b, end) - max(a, start)) for start, end in marks)


def reference_seconds(marks: List[Mark], a: float, b: float) -> float:
    """Time in [a, b], outside the kernel, scaled to the reference speed."""
    total = 0.0
    for (s0, e0), (s1, e1) in zip(marks, marks[1:]):
        lo, hi = max(a, e0), min(b, s1)
        if hi > lo:
            total += (hi - lo) * speedup(0.5 * ((e0 - s0) + (e1 - s1)))
    return total
