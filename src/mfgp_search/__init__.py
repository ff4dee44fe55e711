"""Multi-fidelity Gaussian-process target search.

A vehicle senses a 2D score field from several altitudes, each altitude a
fidelity level of an autoregressive GP stack.  The library plans greedy
max-variance sampling epochs with fidelity switching, routes them as TSP
tours, classifies cells with shrinking confidence intervals, eliminates
empty regions, and reports detection times — all against a built-in
synthetic simulator.
"""

import importlib

__version__ = "0.1.0"

# Public names and the submodule of each.  They load on first access (PEP
# 562), so importing the package loads no numpy: the CLI pins the BLAS
# thread count before numpy's first import.
_EXPORTS = {
    "_linalg": ("NumericalError",),
    "classifier": (
        "ClassificationMap",
        "Label",
        "c_value",
        "check_termination",
        "classify_epoch",
        "confidence_interval",
    ),
    "config": (
        "Bump",
        "ConfidenceParams",
        "FidelityModel",
        "GridDomain",
        "MissionConfig",
        "PlanLimits",
    ),
    "field_model": ("GroundTruth", "kernel_eval", "sample_ground_truth"),
    "inference": (
        "PosteriorField",
        "SampleLog",
        "append_sample_variance_only",
        "greedy_info_gain",
        "posterior",
    ),
    "mission": (
        "DecayCurves",
        "DetectionTimeTable",
        "MissionReport",
        "compare_decay",
        "detection_time_study",
        "run_mission",
        "run_missions",
    ),
    "planner": (
        "EpochPlan",
        "PlanningComplete",
        "plan_epoch",
        "select_next_point",
        "update_fidelity",
    ),
    "router": ("Tour", "build_tour", "execute_epoch", "plan_tours"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
