"""Full search-mission orchestration and study harnesses.

One mission is the epoch loop: plan samples on the current posterior, route
them into tours, fly and measure, recompute the posterior, classify cells,
eliminate empty regions, and stop once enough of the floor is classified.
Everything is deterministic given the mission seed.
"""

from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args

import numpy as np

from .classifier import (
    ClassificationMap,
    ConfidenceParams,
    Label,
    check_termination,
    classify_epoch,
)
from .field_model import (
    Bump,
    FidelityModel,
    GridDomain,
    GroundTruth,
    _check_truth_inputs,
    sample_ground_truth,
)
from .inference import SampleLog, posterior
from .planner import FidelityState, PlanLimits, _greedy_steps, plan_epoch
from .router import execute_epoch, plan_tours

BOUNDARY_TOL = 1e-6  # |f - th| below this: cell excluded from error accounting
REPORT_SCHEMA_VERSION = 1

BASELINES = ("multi-fidelity", "single-fidelity-only")
_START_KEYS = ("mission.start_x", "mission.start_y", "mission.start_z")


def _config_fields(cls, section: str, level: int | None = None):
    """Yield (key, field, type) for the float, int and str fields of a config dataclass.

    The key is ``section.<name>``, or ``section.<name>_<level>`` with the element
    type for the per-level tuples of FidelityModel.  A field whose metadata
    names a section is walked under that section only, and alone.
    """
    marked = [f for f in fields(cls) if f.metadata.get("section") == section]
    for f in marked or [f for f in fields(cls) if "section" not in f.metadata]:
        typ = f.type if level is None else get_args(f.type)[0]
        if typ in (float, int, str):
            yield f"{section}.{f.name}" + ("" if level is None else f"_{level}"), f, typ


@dataclass(frozen=True)
class MissionConfig:
    """One mission; its float, int and str fields are config keys (``_config_fields``)."""

    domain: GridDomain
    model: FidelityModel
    delta: float
    th: float
    seed: int = 0
    mode: str = "prior-draw"
    baseline: str = "multi-fidelity"
    epoch_sample_cap: int = 200
    max_epochs: int = 30
    sigma_ratio: float = 0.75
    sample_time: float = 1.0
    termination_fraction: float = 0.99
    bumps: tuple[Bump, ...] = ()
    background: float = field(default=0.0, metadata={"section": "planted"})
    start: tuple[float, float, float] | None = None

    def __post_init__(self):
        self.params()  # delta in (0, 1/2), th finite
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        _check_truth_inputs(self.domain, self.mode, self.bumps, self.background)
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        self.limits()  # sigma_ratio in (0, 1], sample_cap positive
        if not 0.0 <= self.sample_time < np.inf:
            raise ValueError("sample_time must be non-negative and finite")
        if not 0.0 < self.termination_fraction <= 1.0:
            raise ValueError("termination_fraction must be in (0, 1]")
        if self.start is not None:
            d = self.domain
            if not (d.x_min <= self.start[0] <= d.x_max and d.y_min <= self.start[1] <= d.y_max):
                raise ValueError(f"start {self.start[:2]} lies outside the domain")
            if not np.all(np.isfinite(self.start)):
                raise ValueError("start must be finite")

    @property
    def initial_level(self) -> int:
        return self.model.levels if self.baseline == "single-fidelity-only" else 1

    def start_position(self) -> tuple[float, float, float]:
        if self.start is not None:
            return self.start
        return (self.domain.x_min, self.domain.y_min, self.model.z[self.initial_level - 1])

    def limits(self) -> PlanLimits:
        return PlanLimits(sigma_ratio=self.sigma_ratio, sample_cap=self.epoch_sample_cap)

    def params(self) -> ConfidenceParams:
        return ConfidenceParams(delta=self.delta, th=self.th)

    def to_flat_dict(self) -> dict:
        """The flat ``section.key`` values that ``resolve_config`` reads back."""
        d = {}

        def put(obj, section, level=None):
            for key, f, _ in _config_fields(type(obj), section, level):
                value = getattr(obj, f.name)
                d[key] = value if level is None else value[level - 1]

        put(self.domain, "domain")
        d["model.levels"] = self.model.levels
        for m in range(1, self.model.levels + 1):
            put(self.model, "model", m)
        put(self, "mission")
        if self.start is not None:
            d.update(zip(_START_KEYS, self.start))
        if self.mode == "planted" or self.bumps or self.background:
            put(self, "planted")
            d["planted.bumps"] = len(self.bumps)
            for k, b in enumerate(self.bumps, start=1):
                put(b, f"planted.bump_{k}")
        return d


@dataclass
class EpochRecord:
    epoch: int
    n_before: int
    n_after: int
    sigma_max_before: float
    sigma_max_after_pred: float
    sigma_max_after: float
    ratio: float
    capped: bool
    fidelity_levels: tuple[int, ...]
    altitude_changes: int
    classified_fraction: float
    clock: float
    coverage_outside: int = 0  # cells whose true score escaped [L, U] this epoch


@dataclass(frozen=True)
class MissionReport:
    """One mission's record, built once at its end.  The per-cell figures
    are read from their owners: the final map, the truth and the log."""

    config: MissionConfig
    epochs: list[EpochRecord]
    decay: list[tuple[int, float]]
    plan_rows: list[tuple]  # (epoch, order, x, y, fidelity, sigma_before)
    tour_rows: list[tuple]
    terminated: str
    clock_total: float
    final_map: ClassificationMap
    log: SampleLog
    truth: GroundTruth
    posterior_mu: np.ndarray
    posterior_sigma2: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        return self.final_map.labels

    @property
    def time_classified(self) -> np.ndarray:
        return self.final_map.time

    @property
    def truth_labels(self) -> np.ndarray:
        return self.truth.target_mask(self.config.th)

    @property
    def delta_x(self) -> np.ndarray:
        """Distance of each cell's true score to the threshold."""
        return np.abs(self.truth.f[-1] - self.config.th)

    @property
    def fidelity_trace(self) -> list[int]:
        return [row[4] for row in self.plan_rows]

    @property
    def n_total(self) -> int:
        return len(self.log)

    @property
    def classified_fraction(self) -> float:
        return self.final_map.classified_fraction()

    def misclassification(self) -> dict:
        """Errors among classified cells, excluding threshold-boundary cells."""
        classified = self.labels != Label.UNCERTAIN
        boundary = self.delta_x <= BOUNDARY_TOL
        counted = classified & ~boundary
        predicted_target = self.labels == Label.TARGET
        errors = counted & (predicted_target != self.truth_labels)
        return {
            "classified": int(np.sum(counted)),
            "errors": int(np.sum(errors)),
            "boundary_excluded": int(np.sum(classified & boundary)),
        }

    def to_json_dict(self) -> dict:
        mis = self.misclassification()
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config.to_flat_dict(),
            "terminated": self.terminated,
            "n_total": self.n_total,
            "clock_total": self.clock_total,
            "classified_fraction": self.classified_fraction,
            "label_counts": self.final_map.counts(),
            "misclassification": mis,
            "fidelity_trace": self.fidelity_trace,
            "epochs": [asdict(e) for e in self.epochs],
            "decay": [[n, v] for n, v in self.decay],
            "cells": {
                "label": [int(v) for v in self.labels],
                "truth_label": [int(v) for v in self.truth_labels],
                "truth_value": list(self.truth.f[-1]),
                "delta": list(self.delta_x),
                "epoch": [int(v) for v in self.final_map.epoch],
                "time": list(self.time_classified),
            },
        }


def _mission_rngs(seed: int):
    truth_seed, meas_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(truth_seed), np.random.default_rng(int(meas_seed))


def run_mission(config: MissionConfig) -> MissionReport:
    """Execute the full epoch loop; deterministic given config.seed."""
    domain, model = config.domain, config.model
    truth_seed, rng = _mission_rngs(config.seed)
    truth = sample_ground_truth(
        domain,
        model,
        seed=truth_seed,
        mode=config.mode,
        bumps=config.bumps,
        background=config.background,
    )
    params = config.params()
    limits = config.limits()

    log = SampleLog(domain)
    clock = 0.0
    cmap = ClassificationMap.initial(domain)
    state = FidelityState(model, level=config.initial_level)
    position = config.start_position()
    post = posterior(log, domain, model)
    candidates = cmap.candidate_indices()
    epochs, plan_rows, tour_rows = [], [], []
    decay = [(0, post.max_sigma2(candidates))]

    terminated = "epoch-cap"
    for j in range(1, config.max_epochs + 1):
        plan = plan_epoch(post, state, limits, candidates, epoch=j)
        state = plan.state_after
        tours = plan_tours(plan, model, position)
        trace = execute_epoch(
            plan,
            tours,
            truth,
            model,
            log,
            clock,
            rng,
            position,
            sample_time=config.sample_time,
        )
        position, clock = trace.end_position, trace.end_time
        post = posterior(log, domain, model)
        sigma_after = float(np.sqrt(post.max_sigma2(candidates)))
        cmap = classify_epoch(post, cmap, params, j, clock_time=clock)
        low_j, up_j = cmap.interval
        outside = int(np.sum((truth.f[-1] < low_j) | (truth.f[-1] > up_j)))

        for k, s in enumerate(plan.samples):
            plan_rows.append((j, k + 1, s.location[0], s.location[1], s.fidelity, s.sigma_before))
        tour_rows.extend(trace.waypoint_rows)
        for k, mv in enumerate(plan.max_var_trace):
            decay.append((plan.n_before + k + 1, mv))
        epochs.append(
            EpochRecord(
                epoch=j,
                n_before=plan.n_before,
                n_after=len(log),
                sigma_max_before=plan.sigma_max_before,
                sigma_max_after_pred=plan.sigma_max_after,
                sigma_max_after=sigma_after,
                ratio=sigma_after / plan.sigma_max_before if plan.sigma_max_before > 0 else 0.0,
                capped=plan.capped,
                fidelity_levels=plan.fidelity_levels(),
                altitude_changes=trace.altitude_changes,
                classified_fraction=cmap.classified_fraction(),
                clock=clock,
                coverage_outside=outside,
            )
        )

        candidates = cmap.candidate_indices()
        if check_termination(cmap, config.termination_fraction):
            terminated = "classified"
            break

    return MissionReport(
        config=config, epochs=epochs, decay=decay, plan_rows=plan_rows, tour_rows=tour_rows,
        terminated=terminated, clock_total=clock, final_map=cmap, log=log, truth=truth,
        posterior_mu=post.mu, posterior_sigma2=post.sigma2,
    )


@dataclass
class DecayCurves:
    """Max posterior variance versus sample count for the two samplers."""

    n: list[int]
    multi_fidelity: list[float]
    single_fidelity: list[float]


def _variance_decay(config: MissionConfig, n_samples: int, force_top: bool) -> list[float]:
    domain, model = config.domain, config.model
    state = FidelityState(model, level=model.levels if force_top else 1)
    post = posterior(SampleLog(domain), domain, model)
    steps = _greedy_steps(post, state, post.columns, n_samples)
    return [post.max_sigma2()] + [max_var for _, _, _, max_var, _ in steps]


def compare_decay(config: MissionConfig, n_samples: int = 80) -> DecayCurves:
    """Variance-only greedy sampling with and without fidelity switching.

    No classification or elimination happens here; the curves depend only on
    sampling locations, so they are observation-independent.
    """
    multi = _variance_decay(config, n_samples, force_top=False)
    single = _variance_decay(config, n_samples, force_top=True)
    return DecayCurves(n=list(range(n_samples + 1)), multi_fidelity=multi, single_fidelity=single)


def run_missions(config: MissionConfig, seeds) -> list[MissionReport]:
    """Run one mission per seed, one after another, results in seed order."""
    return [run_mission(replace(config, seed=int(s))) for s in seeds]


@dataclass
class DetectionTimeTable:
    """Mean classification time per bin of distance-to-threshold."""

    rows: list[dict]
    seeds: list[int]

    def mean_times(self) -> list[float]:
        return [r["mean_time"] for r in self.rows]


def detection_time_study(
    config: MissionConfig, seeds, delta_bins: int = 3
) -> DetectionTimeTable:
    """Bin cells by their distance to the threshold and average the time at
    which each cell was classified, pooled over per-seed missions.

    Cells never classified within the epoch cap are censored: counted per
    bin, excluded from the means.
    """
    if config.mode != "prior-draw":
        raise ValueError("detection-time study requires prior-draw mode")
    seeds = [int(s) for s in seeds]
    reports = run_missions(config, seeds)
    deltas = np.concatenate([r.delta_x for r in reports])
    times = np.concatenate([r.time_classified for r in reports])
    classified = np.concatenate([r.labels != Label.UNCERTAIN for r in reports])
    keep = deltas > BOUNDARY_TOL
    deltas, times, classified = deltas[keep], times[keep], classified[keep]

    qs = np.quantile(deltas, np.linspace(0.0, 1.0, delta_bins + 1))
    qs[0], qs[-1] = 0.0, np.inf
    rows = []
    for b in range(delta_bins):
        sel = (deltas >= qs[b]) & (deltas < qs[b + 1])
        done = sel & classified
        rows.append(
            {
                "bin": b + 1,
                "delta_min": float(qs[b]),
                "delta_max": float(np.max(deltas[sel])) if np.any(sel) else float(qs[b]),
                "mean_time": float(np.mean(times[done])) if np.any(done) else float("nan"),
                "classified": int(np.sum(done)),
                "censored": int(np.sum(sel & ~classified)),
            }
        )
    return DetectionTimeTable(rows=rows, seeds=seeds)
