"""Epoch planning: greedy max-variance sampling and fidelity-level switching.

Each epoch is planned entirely before travel, which is possible because the
posterior variance depends only on where samples are taken, never on their
values.  The plan grows one point at a time (always the most uncertain
candidate cell) until the predicted maximum standard deviation drops to the
configured fraction of its value at the epoch start, or a sample cap is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .config import FidelityModel, PlanLimits
from .inference import PosteriorField, _WorkingSet, append_sample_variance_only

# Band below the maximum variance within which candidates count as tied,
# relative to the prior variance k0: the roundoff of k0 - sum(w^2) scales
# with k0, not with the variance that is left.  On the desk and planted
# missions, variances of symmetric cells differ by at most 1e-15 k0, while
# the first real gap between far cells (whose variance is still close to
# k0) is 1.3e-13 k0.  A band of 1e-11 would swallow the 6.8e-13 desk gap and
# change the decay curves that acceptance criterion 8 compares.
TIE_RTOL = 1e-14


class PlanningComplete(Exception):
    """Raised when no candidate cells remain to plan over."""


def _most_uncertain(values: np.ndarray, top: float, band: float) -> int:
    """Position of the largest variance ``top`` in ``values``; every value
    within ``band`` (``TIE_RTOL`` times the prior variance) of it ties, and
    ties go to the lowest position."""
    return int((values >= top - band).argmax())


def select_next_point(posterior: PosteriorField, candidates: np.ndarray) -> int:
    """Flat index of the most uncertain candidate cell; ties go to the lowest
    cell index.

    ``candidates`` is a sorted array of uneliminated cell indices.  Every
    candidate within ``TIE_RTOL`` times the prior variance of the maximum
    variance is a tie, so roundoff between tied cells does not decide the
    pick.
    """
    if len(candidates) == 0:
        raise PlanningComplete("no candidate cells remain")
    sigma2 = posterior.sigma2[posterior.column_of(candidates)]
    local = _most_uncertain(sigma2, sigma2.max(), TIE_RTOL * posterior.model.prior_variance())
    return int(candidates[local])


def update_fidelity(
    level: int, posterior: PosteriorField, candidates: np.ndarray | None = None
) -> int:
    """The fidelity level after the switch rule of the posterior's model,
    starting from ``level``.

    Multiple levels can be crossed in one call; the level never decreases.
    """
    posterior.model._check_level(level)
    return _advance(posterior.model, level, posterior.max_sigma2(candidates))


def _advance(model: FidelityModel, level: int, max_var: float) -> int:
    """The switch rule at maximum variance ``max_var``: raise the level while
    the accessible uncertainty (``max_var`` minus the variance that the
    level cannot reduce) is at or below the model's switch threshold."""
    while level < model.levels and (
        max_var - model.inaccessible_variance(level) <= model.switch_threshold(level)
    ):
        level += 1
    return level


@dataclass(frozen=True)
class PlannedSample:
    cell: int  # flat index of the sampled cell
    fidelity: int
    sigma_before: float  # predicted std dev at the cell before this sample


@dataclass(frozen=True)
class EpochPlan:
    """One epoch's ordered sampling points with assigned fidelities."""

    epoch: int
    samples: tuple[PlannedSample, ...]
    n_before: int
    sigma_max_before: float
    sigma_max_after: float  # predicted, over the epoch's candidate set
    capped: bool
    level_after: int
    max_var_trace: tuple[float, ...]  # predicted max variance after each sample

    def by_fidelity(self) -> dict[int, list[PlannedSample]]:
        groups: dict[int, list[PlannedSample]] = {}
        for s in self.samples:
            groups.setdefault(s.fidelity, []).append(s)
        return dict(sorted(groups.items()))

    def fidelity_levels(self) -> tuple[int, ...]:
        return tuple(sorted({s.fidelity for s in self.samples}))


def _greedy_steps(posterior: PosteriorField, level: int, columns: np.ndarray, steps: int):
    """The greedy sampler over the sorted cells ``columns``, for up to ``steps`` samples.

    Each step picks the most uncertain cell, assigns the current fidelity
    ``level``, appends it hypothetically and re-checks the fidelity switch
    rule; it yields (cell, level, variance at the pick, max variance after,
    level after).  The steps run on one working set restricted to ``columns``
    that appends in place; a pivot breakdown goes through
    ``append_sample_variance_only``, which refactorizes.
    """
    working = _WorkingSet(posterior, columns)
    band = TIE_RTOL * posterior.model.prior_variance()
    cells = working.columns.tolist()
    max_var = float(np.maximum.reduce(working.sigma2))
    for k in range(steps):
        local = _most_uncertain(working.sigma2, max_var, band)
        cell, fidelity, picked = cells[local], level, float(working.sigma2[local])
        if not working.add(local, fidelity):
            snapshot = append_sample_variance_only(working.snapshot(), cell, fidelity)
            working = _WorkingSet(snapshot, columns)
        max_var = float(np.maximum.reduce(working.sigma2))
        level = _advance(posterior.model, level, max_var)
        yield cell, fidelity, picked, max_var, level


def plan_epoch(
    posterior: PosteriorField,
    level: int,
    limits: PlanLimits,
    candidates: np.ndarray,
    epoch: int = 1,
) -> EpochPlan:
    """Plan one epoch of samples by simulated variance updates.

    Runs the greedy steps (``_greedy_steps``) over the candidates (sorted
    cell indices) until the predicted max std dev over them has fallen to
    ``sigma_ratio`` times its starting value, or the cap is reached.
    ``level`` is the fidelity level of the first sample, one of the
    posterior's model's levels.  Deterministic for a given posterior
    snapshot and level.
    """
    posterior.model._check_level(level)
    if len(candidates) == 0:
        raise PlanningComplete("no candidate cells remain")
    sigma_before = math.sqrt(posterior.max_sigma2(candidates))
    samples: list[PlannedSample] = []
    trace: list[float] = []
    capped = False
    for cell, fidelity, picked, max_var, level in _greedy_steps(
        posterior, level, candidates, limits.sample_cap
    ):
        samples.append(PlannedSample(cell, fidelity, sigma_before=math.sqrt(picked)))
        trace.append(max_var)
        if math.sqrt(max_var) <= limits.sigma_ratio * sigma_before:
            break
    else:
        capped = True
    return EpochPlan(
        epoch=epoch,
        samples=tuple(samples),
        n_before=posterior.n,
        sigma_max_before=sigma_before,
        sigma_max_after=math.sqrt(trace[-1]),
        capped=capped,
        level_after=level,
        max_var_trace=tuple(trace),
    )
