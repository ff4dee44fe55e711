"""Multi-fidelity Gaussian-process target search.

A vehicle senses a 2D score field from several altitudes, each altitude a
fidelity level of an autoregressive GP stack.  The library plans greedy
max-variance sampling epochs with fidelity switching, routes them as TSP
tours, classifies cells with shrinking confidence intervals, eliminates
empty regions, and reports detection times — all against a built-in
synthetic simulator.
"""

# Importing the package loads no numpy: every module reads it from ``_np``,
# which binds it lazily, so the CLI pins the BLAS thread count before it loads.
from ._linalg import NumericalError
from .classifier import (
    ClassificationMap,
    Label,
    c_value,
    check_termination,
    classify_epoch,
    confidence_interval,
)
from .config import Bump, ConfidenceParams, FidelityModel, GridDomain, MissionConfig, PlanLimits
from .field_model import GroundTruth, kernel_eval, sample_ground_truth
from .inference import (
    PosteriorField,
    SampleLog,
    append_sample_variance_only,
    greedy_info_gain,
    posterior,
)
from .mission import (
    MissionReport,
    compare_decay,
    detection_time_study,
    run_mission,
    run_missions,
)
from .planner import (
    EpochPlan,
    PlanningComplete,
    plan_epoch,
    select_next_point,
    update_fidelity,
)
from .router import Tour, build_tour, execute_epoch, plan_tours

__version__ = "0.1.0"

__all__ = [
    "Bump",
    "ClassificationMap",
    "ConfidenceParams",
    "EpochPlan",
    "FidelityModel",
    "GridDomain",
    "GroundTruth",
    "Label",
    "MissionConfig",
    "MissionReport",
    "NumericalError",
    "PlanLimits",
    "PlanningComplete",
    "PosteriorField",
    "SampleLog",
    "Tour",
    "append_sample_variance_only",
    "build_tour",
    "c_value",
    "check_termination",
    "classify_epoch",
    "compare_decay",
    "confidence_interval",
    "detection_time_study",
    "execute_epoch",
    "greedy_info_gain",
    "kernel_eval",
    "plan_epoch",
    "plan_tours",
    "posterior",
    "run_mission",
    "run_missions",
    "sample_ground_truth",
    "select_next_point",
    "update_fidelity",
]
