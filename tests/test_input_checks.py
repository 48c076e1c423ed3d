"""Each library input check that no other test reaches, by its message.

One case per check: the call that trips it and the whole message of the
``ValueError`` it raises. A last test runs ``predict``'s one branch that
raises nothing, a model returning one value per row.
"""

import re

import numpy as np
import pytest

from helpers import SCHEDULE
from rivkit import GridSpec, JointSample, NominalModel, SystemSpec, join, mapc, rmse
from rivkit.harness import evaluate_method
from rivkit.systems import ar_path, forward_response, noise_values, sample_system

THREE_ROWS = JointSample(np.zeros((3, 2)), 1, 1)


def predict_with(evaluator):
    return NominalModel(evaluator, "test").predict(np.zeros((3, 2)))


CHECKS = {
    "correlation needs at least 2 rows": lambda: mapc(np.zeros((1, 2)), np.zeros(1)),
    "n must be at least 2": lambda: GridSpec(0.0, 1.0, 0.5, (0,), 1, "riv"),
    "method must be one of ('riv', 'mapc', 'rmse')":
        lambda: evaluate_method("bad", SystemSpec("linear"), 50, SCHEDULE),
    "model returned a row count different from its input":
        lambda: predict_with(lambda x: np.zeros((len(x) + 1, 1))),
    "model produced non-finite predictions":
        lambda: predict_with(lambda x: np.full((len(x), 1), np.nan)),
    "p and q must be at least 1": lambda: JointSample(np.zeros((3, 2)), 0, 2),
    "matrix has 3 columns, declared p+q = 2": lambda: JointSample(np.zeros((3, 3)), 1, 1),
    "cannot take 0 rows from a sample of 3": lambda: THREE_ROWS.head(0),
    "cannot take 4 rows from a sample of 3": lambda: THREE_ROWS.head(4),
    "row mismatch: 3 inputs vs 4 responses": lambda: join(np.zeros(3), np.zeros(4)),
    "'arx' has no forward noise map": lambda: noise_values(SystemSpec("arx"), np.zeros(3)),
    "'arx' is not a forward family":
        lambda: forward_response(SystemSpec("arx"), np.zeros(3), np.zeros(3), np.zeros(3)),
    "'linear' is not an autoregressive family":
        lambda: ar_path(SystemSpec("linear"), np.zeros(3), np.zeros(3), np.zeros(3)),
    "n must be at least 1": lambda: sample_system(SystemSpec("narx"), 0),
    "residual contains non-finite entries": lambda: rmse(np.array([1.0, np.inf])),
}


@pytest.mark.parametrize("message", CHECKS)
def test_each_input_check_raises_its_message(message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CHECKS[message]()


def test_a_model_that_returns_one_value_per_row_predicts_one_column():
    predicted = predict_with(lambda x: np.arange(len(x), dtype=np.float64))
    assert predicted.shape == (3, 1)
    assert predicted[:, 0].tolist() == [0.0, 1.0, 2.0]
