"""Residual-information drift detection toolkit.

Distribution-free detection of input-output model drift: regression
residuals against a nominal model, tree-partition mutual information
estimation, vanishing-threshold decisions, and the synthetic benchmark
systems and baselines used to exercise them.
"""

from .detector import (
    UNRESOLVED,
    Decision,
    DecisionTrace,
    ErrorRateEstimate,
    collapse_time,
    decide,
    estimate_error_rate,
    run_scheme,
)
from .estimator import EmiReport, Schedule, emi, emi_fixed_partition
from .harness import (
    GridResult,
    GridSpec,
    detection_curve,
    gaussian_mi_oracle,
    mapc,
    rmse,
    save_grid_result,
    sweep_grid,
)
from .partition import CellBox, PartitionNode, PartitionTree, cell_term, grow_tree, prune_tree
from .pipeline import (
    DegenerateDataError,
    NominalModel,
    fit_linear,
    residuals,
    rif,
    rif_signature,
    riv,
    table_model,
)
from .samples import JointSample, join
from .systems import (
    SystemSpec,
    eval_eta,
    nominal_model,
    residual_source,
    sample_ar,
    sample_forward,
    sample_system,
)

__version__ = "0.1.0"
