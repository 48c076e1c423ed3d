"""Residual pipeline: nominal-model evaluation, residuals, RIV and RIF.

The monitored quantity is the estimated mutual information between a
system's input and its regression residual against a nominal model (the
residual information value, RIV). Per-input-coordinate estimations give the
residual information feature vector (RIF). A constant bias in the nominal
model shifts the residual but never the information value, because every
median split moves with the data. ``residuals`` is the one place that joins
inputs with residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .estimator import EmiReport, Schedule, emi
from .samples import JointSample, join


class DegenerateDataError(ValueError):
    """Input data cannot support the requested fit or statistic."""


@dataclass(frozen=True)
class NominalModel:
    """A deterministic input-to-output map standing in for the healthy system.

    ``evaluator`` takes an (m, p) input matrix and returns an (m, q) output
    matrix, or (m,) outputs when q = 1.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    kind: str

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.asarray(self.evaluator(x), dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape[0] != x.shape[0]:
            raise ValueError("model returned a row count different from its input")
        if not np.isfinite(out).all():
            raise ValueError("model produced non-finite predictions")
        return out


def residuals(samples: JointSample, model: NominalModel) -> JointSample:
    """The joined sample of the inputs x and the exact residuals y - model(x)."""
    predicted = model.predict(samples.x)
    if predicted.shape[1] != samples.q:
        raise ValueError(
            f"model outputs {predicted.shape[1]} coordinates, sample declares q={samples.q}"
        )
    joint = samples.data.copy()  # one contiguous copy, cheaper than stacking columns
    joint[:, samples.p:] -= predicted
    return JointSample(joint, samples.p, samples.q)


def riv(samples: JointSample, model: Optional[NominalModel], schedule: Schedule) -> EmiReport:
    """Residual information value: EMI of the joined (input, residual) sample.

    With ``model`` None, ``samples`` is that joined sample already, as
    ``residuals`` returns it.
    """
    return emi(samples if model is None else residuals(samples, model), schedule)


def rif(samples: JointSample, model: Optional[NominalModel], schedule: Schedule) -> np.ndarray:
    """Residual information feature: per-input-coordinate EMI with the residual.

    Entry j is the EMI of the bivariate pair (input coordinate j, residual);
    entries are independent of the processing order of other columns. With
    ``model`` None, ``samples`` is the joined (input, residual) sample already.
    """
    joint = samples if model is None else residuals(samples, model)
    return np.array([
        emi(join(joint.x[:, j], joint.response), schedule).emi for j in range(joint.p)
    ])


def fit_linear(samples: JointSample) -> NominalModel:
    """Affine least-squares nominal model, one fit per output coordinate.

    The rank check and the fit see each input and response column scaled to
    unit magnitude by a power of two, so data scaled by 2**k fits alike, and
    ``lstsq`` never rescales an extreme response itself, which is not exact.
    """
    n, p = samples.x.shape
    if n <= p + 1:
        raise DegenerateDataError(
            f"affine fit needs more than p+1={p + 1} rows, got {n}"
        )
    x_unit, x_exp = _unit_scaled(samples.x)
    design = np.hstack([np.ones((n, 1)), x_unit])
    y_unit, y_exp = _unit_scaled(samples.response)
    coef, _, rank, _ = np.linalg.lstsq(design, y_unit, rcond=None)
    if rank < p + 1:
        offending = _dependent_columns(design, rank)
        raise DegenerateDataError(
            "design matrix is rank deficient; offending input columns: "
            + ", ".join(f"x{k}" for k in offending)
        )
    intercept = np.ldexp(coef[0], y_exp)
    slopes = np.ldexp(coef[1:], y_exp - x_exp[:, None])

    def evaluate(x: np.ndarray) -> np.ndarray:
        return x @ slopes + intercept

    return NominalModel(evaluator=evaluate, kind="linear_affine")


def _unit_scaled(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a`` with each column scaled by the power of two that brings its largest
    magnitude into [0.5, 1), and the exponents of those powers.

    The scaling is exact, and a sum of squares or products of columns of
    unit magnitude neither overflows nor underflows.
    """
    exponent = np.frexp(np.abs(a).max(axis=0))[1]
    return np.ldexp(a, -exponent), exponent


def _dependent_columns(design: np.ndarray, rank: int) -> List[int]:
    """1-indexed input columns that do not add rank to a design of rank ``rank``."""
    offending = []
    for k in range(1, design.shape[1]):
        reduced = np.delete(design, k, axis=1)
        if np.linalg.matrix_rank(reduced) == rank:
            offending.append(k)
    return offending


# How far, per coordinate, a queried input may sit from the table's own.
TABLE_ATOL = 1e-9


def table_model(x: np.ndarray, predictions: np.ndarray) -> NominalModel:
    """Nominal model backed by a row-aligned prediction table.

    The evaluator only serves the inputs it was built from, to within
    ``TABLE_ATOL``; querying anything else is a misalignment error.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    predictions = np.asarray(predictions, dtype=np.float64)  # predict makes a column 2-D
    if x.shape[0] != predictions.shape[0]:
        raise ValueError(
            f"prediction table has {predictions.shape[0]} rows, inputs have {x.shape[0]}"
        )

    def evaluate(query: np.ndarray) -> np.ndarray:
        if query.shape != x.shape or not (abs(query - x) <= TABLE_ATOL).all():  # one buffer
            raise ValueError("queried inputs are not aligned with the prediction table")
        return predictions

    return NominalModel(evaluator=evaluate, kind="external_table")
