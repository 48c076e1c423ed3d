"""Benchmark harness: baselines, drift-grid sweeps, and closed-form oracles.

Reproduces the numerical analysis at desk scale: per-delta grids of the
information value and the two baselines (maximum absolute Pearson
correlation and residual RMSE), seed-averaged with standard deviations,
plus detection-rate curves over growing sample sizes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .detector import decide
from .estimator import Schedule, emi
from .pipeline import DegenerateDataError
from .systems import SystemSpec, residual_source

METHODS = ("riv", "mapc", "rmse")


def mapc(x: np.ndarray, r: np.ndarray) -> float:
    """Maximum absolute Pearson correlation between the residual and each input."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if x.shape[0] != r.shape[0]:
        raise ValueError("input and residual row counts differ")
    if x.shape[0] < 2:
        raise ValueError("correlation needs at least 2 rows")
    rc = r - r.mean()
    r_ss = float(rc @ rc)
    if r_ss == 0.0:
        raise DegenerateDataError("residual column has zero variance")
    best = 0.0
    for j in range(x.shape[1]):
        xc = x[:, j] - x[:, j].mean()
        x_ss = float(xc @ xc)
        if x_ss == 0.0:
            raise DegenerateDataError(f"input column {j} has zero variance")
        best = max(best, abs(float(xc @ rc) / math.sqrt(x_ss * r_ss)))
    return best


def rmse(r: np.ndarray) -> float:
    """Root mean squared residual.

    A strided dot product can round differently, so ``r`` is made contiguous.
    """
    r = np.ascontiguousarray(r, dtype=np.float64).reshape(-1)
    if r.size == 0:
        raise ValueError("rmse of an empty residual")
    return math.sqrt(float(r @ r) / r.size)


def gaussian_mi_oracle(rho: float) -> float:
    """Closed-form mutual information of a correlated bivariate Gaussian, in nats."""
    if not abs(rho) < 1:
        raise ValueError("|rho| must be below 1")
    return -0.5 * math.log(1.0 - rho * rho)


@dataclass(frozen=True)
class GridSpec:
    """A square drift grid with replicate seeds and an evaluation method."""

    delta_min: float
    delta_max: float
    step: float
    seeds: Tuple[int, ...]
    n: int
    method: str

    def __post_init__(self):
        if self.delta_min >= self.delta_max:
            raise ValueError("delta_min must be below delta_max")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @property
    def axis(self) -> np.ndarray:
        count = round((self.delta_max - self.delta_min) / self.step) + 1
        return self.delta_min + self.step * np.arange(count)


@dataclass(frozen=True)
class GridResult:
    """Per-delta mean and standard deviation over replicate seeds."""

    mean: np.ndarray
    std: np.ndarray
    grid: GridSpec
    family: str

    def __post_init__(self):
        shape = (self.grid.axis.size, self.grid.axis.size)
        if self.mean.shape != shape or self.std.shape != shape:
            raise ValueError("matrix shapes must match the grid")


def _cell_seed(base_seed: int, i: int, j: int) -> int:
    """Seed for one (delta-index, replicate) cell; stable under grid growth."""
    return int(np.random.SeedSequence((base_seed, i, j)).generate_state(1)[0])


def evaluate_method(method: str, spec: SystemSpec, n: int,
                    schedule: Schedule) -> float:
    """One method value on a fresh sample from the given system."""
    joint = residual_source(spec)(n)
    if method == "riv":
        return emi(joint, schedule).emi
    if method == "mapc":
        return mapc(joint.x, joint.response)
    if method == "rmse":
        return rmse(joint.response)
    raise ValueError(f"method must be one of {METHODS}")


def sweep_grid(family: str, grid: GridSpec, schedule: Schedule) -> GridResult:
    """Evaluate a method over the whole drift grid, seed-averaged per cell.

    Cells are independent; a failure is re-raised with its (delta, seed)
    identity. Deterministic for fixed seeds.
    """
    axis = grid.axis
    mean = np.empty((axis.size, axis.size))
    std = np.empty((axis.size, axis.size))
    for i, d1 in enumerate(axis):
        for j, d2 in enumerate(axis):
            values = np.empty(len(grid.seeds))
            for k, seed in enumerate(grid.seeds):
                spec = SystemSpec(family=family, delta=(float(d1), float(d2)),
                                  seed=_cell_seed(seed, i, j))
                try:
                    values[k] = evaluate_method(grid.method, spec, grid.n, schedule)
                except Exception as exc:
                    raise RuntimeError(
                        f"grid cell delta=({d1}, {d2}) seed={seed} failed: {exc}"
                    ) from exc
            mean[i, j] = values.mean()
            std[i, j] = values.std()
    return GridResult(mean=mean, std=std, grid=grid, family=family)


def detection_curve(system: SystemSpec, schedule: Schedule, ns: Sequence[int],
                    seeds: Iterable[int]) -> List[Tuple[int, float]]:
    """Rejection fraction of the full pipeline at each sample size.

    ``seeds`` is read once, so a generator serves every sample size.
    """
    ns = [int(n) for n in ns]
    seeds = [int(seed) for seed in seeds]
    if not ns:
        raise ValueError("ns must be non-empty")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    curve = []
    for n in ns:
        rejections = 0
        for seed in seeds:
            spec = SystemSpec(system.family, system.delta,
                              dict(system.coefficients), seed=seed)
            report = emi(residual_source(spec)(n), schedule)
            rejections += decide(report.emi, schedule.a(n), n).value
        curve.append((n, rejections / len(seeds)))
    return curve


def save_grid_result(result: GridResult, out_dir) -> None:
    """Write mean.csv, std.csv and a meta.json sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in (("mean", result.mean), ("std", result.std)):
        lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    meta = {
        "family": result.family,
        "method": result.grid.method,
        "delta_min": result.grid.delta_min,
        "delta_max": result.grid.delta_max,
        "step": result.grid.step,
        "seeds": list(result.grid.seeds),
        "n": result.grid.n,
        "grid_points_per_axis": int(result.grid.axis.size),
        "rows": "delta_1 index",
        "columns": "delta_2 index",
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
