"""Epoch planning: greedy max-variance sampling and fidelity-level switching.

Each epoch is planned entirely before travel, which is possible because the
posterior variance depends only on where samples are taken, never on their
values.  The plan grows one point at a time (always the most uncertain
candidate cell) until the predicted maximum standard deviation drops to the
configured fraction of its value at the epoch start, or a sample cap is hit.
"""

from dataclasses import dataclass, replace

import numpy as np

from .field_model import FidelityModel
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


@dataclass(frozen=True)
class FidelityState:
    """Current fidelity level plus the switch rule's derived quantities.

    The level only ever increases.  Switching from m to m+1 happens when the
    accessible uncertainty (max posterior variance minus the variance that
    level m cannot reduce) falls to l_{m+1}^2/l_m^2 * v_{m+1}^2.
    """

    model: FidelityModel
    level: int = 1

    def __post_init__(self):
        self.model._check_level(self.level)

    def switch_threshold(self) -> float:
        """Accessible-uncertainty threshold for advancing past the current level."""
        m = self.level
        if m >= self.model.levels:
            raise ValueError("no switch threshold at the top fidelity level")
        lm = self.model.l[m - 1]
        ln = self.model.l[m]
        return (ln * ln) / (lm * lm) * self.model.v[m] ** 2


def _most_uncertain(values: np.ndarray, top: float, band: float) -> int:
    """Position of the largest variance ``top`` in ``values``; every value
    within ``band`` (``TIE_RTOL`` times the prior variance) of it ties, and
    ties go to the lowest position."""
    return int(np.argmax(values >= top - band))


def select_next_point(
    posterior: PosteriorField, candidates: np.ndarray
) -> tuple[float, float]:
    """Most uncertain candidate cell center; ties go to the lowest cell index.

    ``candidates`` is a sorted array of uneliminated cell indices.  Every
    candidate within ``TIE_RTOL`` times the prior variance of the maximum
    variance is a tie, so roundoff between tied cells does not decide the
    pick.
    """
    if len(candidates) == 0:
        raise PlanningComplete("no candidate cells remain")
    sigma2 = posterior.sigma2[posterior.column_of(candidates)]
    local = _most_uncertain(sigma2, sigma2.max(), TIE_RTOL * posterior.model.prior_variance())
    return posterior.domain.cell_center(int(candidates[local]))


def update_fidelity(
    state: FidelityState, posterior: PosteriorField, candidates: np.ndarray | None = None
) -> FidelityState:
    """Advance the fidelity level while the switch rule is satisfied.

    Multiple levels can be crossed in one call; the level never decreases.
    """
    return _advance(state, posterior.max_sigma2(candidates))


def _advance(state: FidelityState, max_var: float) -> FidelityState:
    """The switch rule at maximum variance ``max_var``: raise the level while
    the accessible uncertainty is at or below the switch threshold."""
    while state.level < state.model.levels and (
        max_var - state.model.inaccessible_variance(state.level) <= state.switch_threshold()
    ):
        state = replace(state, level=state.level + 1)
    return state


@dataclass(frozen=True)
class PlannedSample:
    location: tuple[float, float]
    fidelity: int
    sigma_before: float  # predicted std dev at the location before this sample


@dataclass(frozen=True)
class PlanLimits:
    sigma_ratio: float = 0.75
    sample_cap: int = 200

    def __post_init__(self):
        if not 0.0 < self.sigma_ratio <= 1.0:
            raise ValueError("sigma_ratio must be in (0, 1]")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be positive")


@dataclass(frozen=True)
class EpochPlan:
    """One epoch's ordered sampling points with assigned fidelities."""

    epoch: int
    samples: tuple[PlannedSample, ...]
    n_before: int
    sigma_max_before: float
    sigma_max_after: float  # predicted, over the epoch's candidate set
    capped: bool
    state_after: FidelityState
    max_var_trace: tuple[float, ...]  # predicted max variance after each sample

    def by_fidelity(self) -> dict[int, list[PlannedSample]]:
        groups: dict[int, list[PlannedSample]] = {}
        for s in self.samples:
            groups.setdefault(s.fidelity, []).append(s)
        return dict(sorted(groups.items()))

    def fidelity_levels(self) -> tuple[int, ...]:
        return tuple(sorted({s.fidelity for s in self.samples}))


def _greedy_steps(posterior: PosteriorField, state: FidelityState, columns: np.ndarray, steps: int):
    """The greedy sampler over the sorted cells ``columns``, for up to ``steps`` samples.

    Each step picks the most uncertain cell, assigns the current fidelity,
    appends it hypothetically and re-checks the fidelity switch rule; it
    yields (cell, level, variance at the pick, max variance after, state
    after).  The steps run on one working set restricted to ``columns``
    that appends in place; a pivot breakdown goes through
    ``append_sample_variance_only``, which refactorizes.
    """
    working = _WorkingSet(posterior, columns, steps)
    band = TIE_RTOL * posterior.model.prior_variance()
    max_var = float(working.sigma2.max())
    for k in range(steps):
        local = _most_uncertain(working.sigma2, max_var, band)
        cell, level, picked = int(columns[local]), state.level, float(working.sigma2[local])
        if not working.add(local, level):
            loc = posterior.domain.cell_center(cell)
            snapshot = append_sample_variance_only(working.snapshot(), loc, level)
            working = _WorkingSet(snapshot, columns, steps - k - 1)
        max_var = float(working.sigma2.max())
        state = _advance(state, max_var)
        yield cell, level, picked, max_var, state


def plan_epoch(
    posterior: PosteriorField,
    state: FidelityState,
    limits: PlanLimits,
    candidates: np.ndarray,
    epoch: int = 1,
) -> EpochPlan:
    """Plan one epoch of samples by simulated variance updates.

    Runs the greedy steps (``_greedy_steps``) over the candidates (sorted
    cell indices) until the predicted max std dev over them has fallen to
    ``sigma_ratio`` times its starting value, or the cap is reached.
    Deterministic for a given posterior snapshot and state.
    """
    if len(candidates) == 0:
        raise PlanningComplete("no candidate cells remain")
    sigma_before = float(np.sqrt(posterior.max_sigma2(candidates)))
    samples: list[PlannedSample] = []
    trace: list[float] = []
    capped = False
    for cell, level, picked, max_var, state in _greedy_steps(
        posterior, state, candidates, limits.sample_cap
    ):
        loc = posterior.domain.cell_center(cell)
        samples.append(
            PlannedSample(location=loc, fidelity=level, sigma_before=float(np.sqrt(picked)))
        )
        trace.append(max_var)
        if np.sqrt(max_var) <= limits.sigma_ratio * sigma_before:
            break
    else:
        capped = True
    return EpochPlan(
        epoch=epoch,
        samples=tuple(samples),
        n_before=posterior.n,
        sigma_max_before=sigma_before,
        sigma_max_after=float(np.sqrt(trace[-1])),
        capped=capped,
        state_after=state,
        max_var_trace=tuple(trace),
    )
