"""Joint samples of paired input/response (or input/residual) observations."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JointSample:
    """An n x (p+q) matrix of paired observations with a declared split point.

    The first ``p`` columns are the input block, the last ``q`` columns the
    response (or residual) block. The matrix is stored as float64 and must be
    finite everywhere.
    """

    data: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", operator.index(self.p))  # numpy ints pass, floats do not
        object.__setattr__(self, "q", operator.index(self.q))
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("sample must be a non-empty 2-D matrix")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be at least 1")
        if data.shape[1] != self.p + self.q:
            raise ValueError(
                f"matrix has {data.shape[1]} columns, declared p+q = {self.p + self.q}"
            )
        if not np.isfinite(data).all():
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def x(self) -> np.ndarray:
        """Input block, shape (n, p)."""
        return self.data[:, : self.p]

    @property
    def response(self) -> np.ndarray:
        """Response (or residual) block, shape (n, q)."""
        return self.data[:, self.p :]

    def head(self, n: int) -> "JointSample":
        """First ``n`` rows as a new sample."""
        if n < 1 or n > self.n:
            raise ValueError(f"cannot take {n} rows from a sample of {self.n}")
        return JointSample(self.data[:n], self.p, self.q)


def join(x: np.ndarray, r: np.ndarray) -> JointSample:
    """Pair an (n, p) input block with an (n, q) response block.

    One-dimensional arrays are treated as single columns.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if r.ndim == 1:
        r = r[:, None]
    if x.shape[0] != r.shape[0]:
        raise ValueError(f"row mismatch: {x.shape[0]} inputs vs {r.shape[0]} responses")
    return JointSample(np.hstack([x, r]), x.shape[1], r.shape[1])
