"""Benchmark harness: baselines, drift-grid sweeps, and closed-form oracles.

Reproduces the numerical analysis at desk scale: per-delta grids of the
information value and the two baselines (maximum absolute Pearson
correlation and residual RMSE), seed-averaged with standard deviations,
plus detection-rate curves over growing sample sizes.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .detector import rejections, trial_seed
from .estimator import Schedule, emi
from .partition import grow_batch
from .pipeline import DegenerateDataError, _unit_scaled
from .samples import join
from .systems import SystemSpec, residual_source

METHODS = ("riv", "mapc", "rmse")


def mapc(x: np.ndarray, r: np.ndarray) -> float:
    """Maximum absolute Pearson correlation between the residual and each input.

    ``x`` and ``r`` are paired by ``join``, and ``r`` must be one column. A
    correlation does not change when a column is scaled, so the columns
    are scaled to unit magnitude first, and any finite magnitude works.
    """
    sample = join(x, r)  # a 1-D input or residual is one column
    if sample.q != 1:
        raise ValueError(f"residual must be one column, got {sample.q}")
    if sample.n < 2:
        raise ValueError("correlation needs at least 2 rows")
    x, r = _unit_scaled(sample.x)[0], _unit_scaled(sample.response[:, 0])[0]
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
    """Root mean squared residual, of any finite magnitude.

    ``r`` is scaled to unit magnitude and the result scaled back, both by a
    power of two. The scaled copy is contiguous: a strided dot product can
    round differently.
    """
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if r.size == 0:
        raise ValueError("rmse of an empty residual")
    r, exponent = _unit_scaled(r)
    return math.ldexp(math.sqrt(float(r @ r) / r.size), int(exponent))


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
        if not all(map(math.isfinite, (self.delta_min, self.delta_max, self.step))):
            raise ValueError("delta_min, delta_max and step must be finite")
        if self.delta_min >= self.delta_max:
            raise ValueError("delta_min must be below delta_max")
        if self.step <= 0:
            raise ValueError("step must be positive")
        steps = (self.delta_max - self.delta_min) / self.step
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValueError("step must divide delta_max - delta_min")
        seeds = tuple(operator.index(s) for s in self.seeds)  # numpy ints pass, floats do not
        if not seeds:
            raise ValueError("at least one seed is required")
        if min(seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(seeds)}")
        _check_distinct(seeds)
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        object.__setattr__(self, "seeds", seeds)

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


def _check_distinct(seeds: Sequence[int]) -> None:
    """Reject a repeated seed: its replicate would be the same draw counted twice."""
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise ValueError(f"seed {seed} is repeated; seeds must be distinct")
        seen.add(seed)


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
            specs = [SystemSpec(family=family, delta=(float(d1), float(d2)),
                                seed=trial_seed(seed, i, j)) for seed in grid.seeds]
            if grid.method == "riv":  # a cell's partitions are grown together
                samples = []
                for seed, spec in zip(grid.seeds, specs):
                    with _naming_cell(d1, d2, seed):
                        samples.append(residual_source(spec)(grid.n))
                grown = grow_batch(samples, schedule.cell_cap(grid.n))
            values = np.empty(len(grid.seeds))
            for k, (seed, spec) in enumerate(zip(grid.seeds, specs)):
                with _naming_cell(d1, d2, seed):
                    if grid.method == "riv":
                        sample, tree = next(grown)
                        values[k] = emi(sample, schedule, tree).emi
                    else:
                        values[k] = evaluate_method(grid.method, spec, grid.n, schedule)
            mean[i, j] = values.mean()
            std[i, j] = values.std()
    return GridResult(mean=mean, std=std, grid=grid, family=family)


@contextlib.contextmanager
def _naming_cell(d1: float, d2: float, seed: int):
    """Re-raise a failure with the (delta, seed) identity of its grid cell."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"grid cell delta=({d1}, {d2}) seed={seed} failed: {exc}") from exc


def detection_curve(system: SystemSpec, schedule: Schedule, ns: Sequence[int],
                    seeds: Iterable[int]) -> List[Tuple[int, float]]:
    """Rejection fraction of the full pipeline at each sample size.

    ``seeds`` is read once, so a generator serves every sample size.
    """
    ns = [int(n) for n in ns]
    seeds = [int(seed) for seed in seeds]
    if not ns:
        raise ValueError("ns must be non-empty")
    if min(ns) < 2:
        raise ValueError("n must be at least 2")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    _check_distinct(seeds)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    return [(n, rejections(system, seeds, schedule, n) / len(seeds)) for n in ns]


def save_grid_result(result: GridResult, out_dir) -> None:
    """Write mean.csv, std.csv and a meta.json sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in (("mean", result.mean), ("std", result.std)):
        np.savetxt(out / f"{name}.csv", matrix, fmt="%.17g", delimiter=",")
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
