"""Full search-mission orchestration and study harnesses.

One mission is the epoch loop: plan samples on the current posterior, route
them into tours, fly and measure, recompute the posterior, classify cells,
eliminate empty regions, and stop once enough of the floor is classified.
Everything is deterministic given the mission seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

from ._np import np
from .classifier import ClassificationMap, Label, check_termination, classify_epoch
from .config import BASELINES, MissionConfig, _check_int
from .field_model import GroundTruth, sample_ground_truth
from .inference import SampleLog, posterior
from .planner import _greedy_steps, plan_epoch
from .router import execute_epoch, plan_tours

BOUNDARY_TOL = 1e-6  # |f - th| below this: cell excluded from error accounting
REPORT_SCHEMA_VERSION = 1


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


@dataclass(frozen=True, eq=False)
class MissionReport:
    """One mission's record, built once at its end.  The per-cell figures
    are read from their owners: the final map, the truth and the log.
    Compares and hashes by identity, as every record that holds arrays does."""

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


def _mission_seeds(seed: int) -> tuple[int, int]:
    """The (truth, measurement) seeds of the mission with seed ``seed``."""
    truth_seed, meas_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(truth_seed), int(meas_seed)


def run_mission(config: MissionConfig) -> MissionReport:
    """Draw the mission's floor and execute the full epoch loop;
    deterministic given config.seed."""
    domain, model = config.domain, config.model
    truth_seed, meas_seed = _mission_seeds(config.seed)
    truth = sample_ground_truth(
        domain,
        model,
        seed=truth_seed,
        mode=config.mode,
        bumps=config.bumps,
        background=config.background,
    )
    rng = np.random.default_rng(meas_seed)
    params = config.params()
    limits = config.limits()

    log = SampleLog(domain)
    clock = 0.0
    cmap = ClassificationMap.initial(domain)
    level = config.initial_level
    position = config.start_position()
    post = posterior(log, model)
    candidates = cmap.candidate_indices()
    epochs, plan_rows, tour_rows = [], [], []
    decay = [(0, post.max_sigma2(candidates))]

    terminated = "epoch-cap"
    for j in range(1, config.max_epochs + 1):
        plan = plan_epoch(post, level, limits, candidates, epoch=j)
        del post  # the next posterior builds its W with no earlier W alive
        level = plan.level_after
        tours = plan_tours(plan, domain, model, position)
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
        post = posterior(log, model)
        sigma_after = float(np.sqrt(post.max_sigma2(candidates)))
        cmap = classify_epoch(post, cmap, params, j, clock_time=clock)
        low_j, up_j = cmap.interval
        outside = int(np.sum((truth.f[-1] < low_j) | (truth.f[-1] > up_j)))

        xy = domain.cell_centers[[s.cell for s in plan.samples]].tolist()
        for k, (s, (x, y)) in enumerate(zip(plan.samples, xy)):
            plan_rows.append((j, k + 1, x, y, s.fidelity, s.sigma_before))
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


def _variance_decay(config: MissionConfig, n_samples: int) -> list[float]:
    post = posterior(SampleLog(config.domain), config.model)
    steps = _greedy_steps(post, config.initial_level, post.columns, n_samples)
    return [post.max_sigma2()] + [max_var for _, _, _, max_var, _ in steps]


def compare_decay(config: MissionConfig, n_samples: int = 80) -> list[dict]:
    """Variance-only greedy sampling with and without fidelity switching: one
    row per sample count n = 0..n_samples, with the max posterior variance
    of each sampler after n samples.  The samplers are ``config`` under
    each of ``BASELINES``, starting at its ``MissionConfig.initial_level``.

    No classification or elimination happens here; the curves depend only on
    sampling locations, so they are observation-independent.
    """
    _check_int("n_samples", n_samples, 0)
    multi, single = (_variance_decay(replace(config, baseline=b), n_samples) for b in BASELINES)
    return [
        {"n": n, "multi_fidelity_max_var": m, "single_fidelity_max_var": s}
        for n, (m, s) in enumerate(zip(multi, single))
    ]


def run_missions(config: MissionConfig, seeds) -> Iterator[MissionReport]:
    """Run one mission per seed, one after another, and yield each report in
    seed order; each mission draws its own floor, and a caller that drops
    each report holds one floor and one report at a time."""
    for s in seeds:
        yield run_mission(replace(config, seed=int(s)))


def _linear_quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` (method "linear") bit for bit, for values
    that are finite and not -0.0, without the ``numpy.ma`` import that
    ``np.quantile`` makes on first use.

    The virtual index (n - 1) q into the sorted values is floored, and the
    index above it clipped to the last value; the result is
    below + diff * gamma, or above - diff * (1 - gamma) where gamma >= 0.5,
    as numpy's ``_lerp`` computes it.
    """
    x = np.sort(values)
    index = (len(x) - 1) * q
    below = np.floor(index)
    gamma = index - below
    lo = below.astype(np.intp)
    lower, upper = x[lo], x[np.minimum(lo + 1, len(x) - 1)]
    diff = upper - lower
    return np.where(gamma >= 0.5, upper - diff * (1 - gamma), lower + diff * gamma)


def detection_time_study(config: MissionConfig, seeds, delta_bins: int = 3) -> list[dict]:
    """Bin cells by their distance to the threshold and average the time at
    which each cell was classified, pooled over per-seed missions: one row
    per bin.

    Cells never classified within the epoch cap are censored: counted per
    bin, excluded from the means.
    """
    if config.mode != "prior-draw":
        raise ValueError("detection-time study requires prior-draw mode")
    _check_int("delta_bins", delta_bins, 1)
    deltas, times, classified = [], [], []
    for report in run_missions(config, seeds):
        deltas.append(report.delta_x)
        times.append(report.time_classified)
        classified.append(report.labels != Label.UNCERTAIN)
        del report  # one report alive at a time: drop it before the next mission
    if not deltas:
        raise ValueError("seeds must hold at least one seed")
    deltas, times, classified = map(np.concatenate, (deltas, times, classified))
    keep = deltas > BOUNDARY_TOL
    deltas, times, classified = deltas[keep], times[keep], classified[keep]

    qs = _linear_quantiles(deltas, np.linspace(0.0, 1.0, delta_bins + 1))
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
    return rows
