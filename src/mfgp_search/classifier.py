"""Confidence-bound classification of cells and region elimination.

At the end of epoch j every still-uncertain cell gets a Bayesian confidence
interval at tolerance delta/2^j.  Cells whose lower bound clears the
detection threshold become targets; cells whose upper bound stays below it
become empty and leave the sampling space permanently.  Halving the
tolerance each epoch keeps the total misclassification probability of any
cell below delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from ._np import np
from .config import ConfidenceParams, GridDomain
from .inference import PosteriorField


class Label(IntEnum):
    UNCERTAIN = 0
    EMPTY = 1
    TARGET = 2


LABEL_NAMES = {Label.UNCERTAIN: "uncertain", Label.EMPTY: "empty", Label.TARGET: "target"}


def c_value(epsilon: float) -> float:
    """Sub-Gaussian tail width c = sqrt(2 ln(1/(2 eps)))."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    return math.sqrt(2.0 * math.log(1.0 / (2.0 * epsilon)))


def confidence_interval(mu, sigma, epsilon: float):
    """Interval [mu - c*sigma, mu + c*sigma] containing the score with
    probability at least 1 - 2*epsilon.  Vectorizes over mu/sigma."""
    c = c_value(epsilon)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    return mu - c * sigma, mu + c * sigma


@dataclass(frozen=True, eq=False)
class ClassificationMap:
    """Per-cell tri-state labels with classification bookkeeping.

    Labels empty/target are permanent; epoch/time record when a cell left
    the uncertain set (-1 while uncertain).  ``interval`` is the (low, up)
    confidence interval over every cell that ``classify_epoch`` built this
    map with, so callers that score the epoch read the same arrays; it is
    None on a map no epoch has classified.  Like every record that holds
    arrays, a map compares and hashes by identity.
    """

    domain: GridDomain
    labels: np.ndarray  # (n_cells,) Label values
    epoch: np.ndarray  # (n_cells,) int, -1 if uncertain
    time: np.ndarray  # (n_cells,) float, -1.0 if uncertain
    interval: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def initial(cls, domain: GridDomain) -> "ClassificationMap":
        n = domain.n_cells
        arrays = (
            np.full(n, int(Label.UNCERTAIN), dtype=np.int8),
            np.full(n, -1, dtype=int),
            np.full(n, -1.0),
        )
        for a in arrays:
            a.setflags(write=False)
        return cls(domain, *arrays)

    def uncertain_mask(self) -> np.ndarray:
        return self.labels == Label.UNCERTAIN

    def candidate_indices(self) -> np.ndarray:
        """Cells still in the sampling space: everything not classified empty."""
        return np.flatnonzero(self.labels != Label.EMPTY)

    def classified_fraction(self) -> float:
        return float(np.mean(self.labels != Label.UNCERTAIN))

    def counts(self) -> dict[str, int]:
        return {
            LABEL_NAMES[lab]: int(np.sum(self.labels == lab))
            for lab in (Label.TARGET, Label.EMPTY, Label.UNCERTAIN)
        }


def classify_epoch(
    posterior: PosteriorField,
    cmap: ClassificationMap,
    params: ConfidenceParams,
    epoch: int,
    clock_time: float = -1.0,
) -> ClassificationMap:
    """Classify still-uncertain cells at tolerance delta/2^epoch.

    Returns a new map snapshot that carries the interval it was built
    with; already-classified cells are untouched.  A posterior and a map on
    different grids raise ValueError naming both.
    """
    if posterior.domain != cmap.domain:
        raise ValueError(
            f"the posterior's grid {posterior.domain} and the map's grid {cmap.domain} differ"
        )
    eps = params.epsilon(epoch)
    low, up = confidence_interval(posterior.mu, np.sqrt(posterior.sigma2), eps)
    uncertain = cmap.uncertain_mask()
    to_target = uncertain & (low >= params.th)
    to_empty = uncertain & (up < params.th)

    labels = cmap.labels.copy()
    ep = cmap.epoch.copy()
    tm = cmap.time.copy()
    labels[to_target] = Label.TARGET
    labels[to_empty] = Label.EMPTY
    newly = to_target | to_empty
    ep[newly] = epoch
    tm[newly] = clock_time
    for a in (labels, ep, tm, low, up):
        a.setflags(write=False)
    return ClassificationMap(cmap.domain, labels, ep, tm, (low, up))


def check_termination(cmap: ClassificationMap, fraction: float = 0.99) -> bool:
    """Mission is done once the classified fraction reaches the threshold."""
    return cmap.classified_fraction() >= fraction

