"""Exact posterior inference for the multi-fidelity GP over the sample log.

Observations at level m only see the layers 1..m, so the covariance between
two records truncates the layer sum at the lower of their two levels, and the
cross-covariance of a record with the full-fidelity field truncates at the
record's level.  Every record sits on a cell center and the layer kernels are
stationary, so all of these covariances are lookups in one per-level table
indexed by the row and column offsets between two cells.  One Cholesky
factorization of the observation covariance serves the whole grid;
within-epoch planning extends that factorization one rank at a time instead
of refactorizing.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import DEFAULT_JITTER, NumericalError, jittered_cholesky, solve_lower
from .field_model import FidelityModel, GridDomain, kernel_eval

SIGMA2_TOL = 1e-8  # most negative clamped variance tolerated before declaring failure


class SampleLog:
    """Ordered (location, value, fidelity) records collected by the vehicle.

    The planner only ever raises the fidelity level, so the record sequence
    must be non-decreasing in fidelity; that contract is asserted on append.
    Every location must be a cell center of the mission grid; the record
    keeps that cell's (row, col) indices.
    """

    def __init__(self, domain: GridDomain):
        self.domain = domain
        self._locations: list[tuple[float, float]] = []
        self._cells: list[tuple[int, int]] = []
        self._values: list[float] = []
        self._fidelities: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def append(self, location: tuple[float, float], value: float, fidelity: int):
        cell = self.domain.index_of(*location)  # raises if not a cell center
        if self._fidelities and fidelity < self._fidelities[-1]:
            raise ValueError(
                f"fidelity must be non-decreasing: got {fidelity} after {self._fidelities[-1]}"
            )
        self._locations.append((float(location[0]), float(location[1])))
        self._cells.append(divmod(cell, self.domain.resolution))
        self._values.append(float(value))
        self._fidelities.append(int(fidelity))

    def locations(self) -> np.ndarray:
        return np.array(self._locations, dtype=float).reshape(len(self), 2)

    def cells(self) -> np.ndarray:
        """(n, 2) integer (row, col) indices of the records' cells."""
        return np.array(self._cells, dtype=int).reshape(len(self), 2)

    def values(self) -> np.ndarray:
        return np.array(self._values, dtype=float)

    def fidelities(self) -> np.ndarray:
        return np.array(self._fidelities, dtype=int)


@lru_cache(maxsize=8)
def covariance_table(domain: GridDomain, model: FidelityModel) -> np.ndarray:
    """(M, R, R) table of truncated layer sums over cell offsets.

    Entry [t, dr, dc] is the sum of the layer kernels 1..t+1 between two cell
    centers dr rows and dc columns apart, accumulated from zero in layer
    order.  The covariance of records at levels ma and mb is the entry at
    t = min(ma, mb) - 1; level M gives the full field.
    """
    R = domain.resolution
    gx, gy = np.meshgrid(np.arange(R) * domain.cell_dx, np.arange(R) * domain.cell_dy)
    offsets = np.stack([gx, gy], axis=-1)  # [dr, dc] -> (dc * dx, dr * dy)
    layers = [kernel_eval(i, offsets, np.zeros(2), model) for i in range(1, model.levels + 1)]
    table = np.cumsum(layers, axis=0)
    table.setflags(write=False)
    return table


def _pair_cov(table, rc_a, m_a, rc_b, m_b) -> np.ndarray:
    """Covariance of records at cells rc_a (levels m_a) and rc_b (m_b); broadcasts."""
    d = np.abs(rc_a - rc_b)
    return table[np.minimum(m_a, m_b) - 1, d[..., 0], d[..., 1]]


def _grid_cov(table, rc: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(n, n_cells) covariance of each record with the full field at every cell."""
    axis = np.arange(table.shape[1])
    dr = np.abs(rc[:, 0, None] - axis)
    dc = np.abs(rc[:, 1, None] - axis)
    return table[m[:, None, None] - 1, dr[:, :, None], dc[:, None, :]].reshape(len(m), axis.size**2)


def _extend_factor(L: np.ndarray, b: np.ndarray, d: float):
    """Grow the lower factor L of A to that of [[A, b], [b^T, d]].

    Returns (L', c, gamma2) with c = L^-1 b and gamma2 = d - c.c, the squared
    new pivot.  L' is None when gamma2 <= 0; callers judge small pivots.
    """
    c = solve_lower(L, b)
    gamma2 = d - float(c @ c)
    if gamma2 <= 0.0:
        return None, c, gamma2
    n = L.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = L
    out[n, :n] = c
    out[n, n] = np.sqrt(gamma2)
    return out, c, gamma2


@dataclass(frozen=True)
class PosteriorField:
    """Posterior mean/variance grids plus the factorization state for appends.

    Snapshots are immutable; appending a hypothetical sample produces a new
    snapshot with an extended factorization.  Appends maintain only the
    variance grid (the mean is carried over unchanged), which is all the
    planner needs: the variance never depends on observed values.
    """

    domain: GridDomain
    model: FidelityModel
    cells: np.ndarray  # (n, 2) record (row, col) indices
    fidelities: np.ndarray  # (n,)
    mu: np.ndarray  # (n_cells,)
    sigma2: np.ndarray  # (n_cells,)
    chol: np.ndarray  # (n, n) lower factor of K + Theta + jitter*I
    w: np.ndarray  # (n, n_cells) = chol^-1 @ cross-covariances
    jitter: float

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def max_sigma2(self, candidates: np.ndarray | None = None) -> float:
        if candidates is None:
            return float(np.max(self.sigma2))
        if len(candidates) == 0:
            raise ValueError("empty candidate set")
        return float(np.max(self.sigma2[candidates]))


def _freeze(*arrays: np.ndarray):
    for a in arrays:
        a.setflags(write=False)


def _clamp_sigma2(sigma2: np.ndarray, jitter: float) -> np.ndarray:
    worst = float(np.min(sigma2)) if sigma2.size else 0.0
    if worst < -SIGMA2_TOL:
        raise NumericalError(f"posterior variance fell to {worst:g}", jitter)
    return np.maximum(sigma2, 0.0)


def posterior(
    log: SampleLog,
    domain: GridDomain,
    model: FidelityModel,
    jitter_scale: float = DEFAULT_JITTER,
) -> PosteriorField:
    """Exact posterior over all grid cells from one factorization.

    mean(x) = mu0 + k(x)^T (K+Theta)^-1 (y - nu) and
    var(x) = k0(x,x) - k(x)^T (K+Theta)^-1 k(x), evaluated for every cell via
    triangular solves against the shared Cholesky factor.
    """
    mu0 = model.prior_mean()
    k0 = model.prior_variance()
    table = covariance_table(domain, model)
    rc = log.cells()
    mrec = log.fidelities()
    K = _pair_cov(table, rc[:, None, :], mrec[:, None], rc[None, :, :], mrec[None, :])
    noise = np.array([model.s[mi - 1] ** 2 for mi in mrec])
    nu = np.array([sum(model.mu[:mi]) for mi in mrec])
    L, jitter = jittered_cholesky(K + np.diag(noise), jitter_scale)
    w = solve_lower(L, _grid_cov(table, rc, mrec))
    a = solve_lower(L, log.values() - nu)
    mu = mu0 + w.T @ a
    sigma2 = _clamp_sigma2(k0 - np.einsum("ij,ij->j", w, w), jitter)
    _freeze(mu, sigma2, w, L, rc, mrec)
    return PosteriorField(
        domain=domain,
        model=model,
        cells=rc,
        fidelities=mrec,
        mu=mu,
        sigma2=sigma2,
        chol=L,
        w=w,
        jitter=jitter,
    )


def append_sample_variance_only(
    state: PosteriorField, x_new, m_new: int
) -> PosteriorField:
    """Extend the factorization with a hypothetical sample at (x_new, m_new).

    ``x_new`` must be a cell center.  The variance grid of the result matches
    a full recompute with the extended log (observed values are irrelevant to
    the variance).  If the rank-one extension breaks down numerically, falls
    back to a full refactorization with placeholder observations.
    """
    model, domain = state.model, state.domain
    model._check_level(m_new)
    rc_new = np.array(divmod(domain.index_of(x_new[0], x_new[1]), domain.resolution))
    table = covariance_table(domain, model)
    b = _pair_cov(table, state.cells, state.fidelities, rc_new, m_new)
    d = model.prior_variance(m_new) + model.s[m_new - 1] ** 2
    chol, c, gamma2 = _extend_factor(state.chol, b, d + state.jitter)
    if gamma2 <= max(1e-12 * d, 1e-300):
        return _refactorized_append(state, x_new, m_new)
    kappa = _grid_cov(table, rc_new[None, :], np.array([m_new]))[0]
    w_new = (kappa - c @ state.w) / chol[-1, -1]
    sigma2 = _clamp_sigma2(state.sigma2 - w_new**2, state.jitter)
    w = np.vstack([state.w, w_new])
    cells = np.vstack([state.cells, rc_new])
    fidelities = np.append(state.fidelities, m_new)
    _freeze(sigma2, chol, w, cells, fidelities)
    return PosteriorField(
        domain=domain,
        model=model,
        cells=cells,
        fidelities=fidelities,
        mu=state.mu,
        sigma2=sigma2,
        chol=chol,
        w=w,
        jitter=state.jitter,
    )


def _refactorized_append(state: PosteriorField, x_new, m_new: int) -> PosteriorField:
    domain = state.domain
    log = SampleLog(domain)
    for (row, col), m in zip(state.cells, state.fidelities):
        log.append(domain.cell_center(int(row) * domain.resolution + int(col)), 0.0, int(m))
    log.append((float(x_new[0]), float(x_new[1])), 0.0, m_new)
    fresh = posterior(log, domain, state.model)
    # Variance-only contract: carry the previous mean through, as the
    # incremental path does.
    return PosteriorField(
        domain=fresh.domain,
        model=fresh.model,
        cells=fresh.cells,
        fidelities=fresh.fidelities,
        mu=state.mu,
        sigma2=fresh.sigma2,
        chol=fresh.chol,
        w=fresh.w,
        jitter=fresh.jitter,
    )


def _chain_terms(log: SampleLog, model: FidelityModel):
    """Per-record mutual-information increments in log order.

    Term i is 0.5*log(1 + s_{m_i}^-2 * var_{i-1}(x_i)) where var_{i-1} is the
    posterior variance of the full field given the first i-1 records.
    Returns (terms, variances-before-sampling).
    """
    n = len(log)
    terms = np.zeros(n)
    var_before = np.zeros(n)
    table = covariance_table(log.domain, model)
    rc = log.cells()
    mrec = log.fidelities()
    k0 = model.prior_variance()
    L = np.zeros((0, 0))
    for i in range(n):
        mi = int(mrec[i])
        wi = solve_lower(L, _pair_cov(table, rc[:i], mrec[:i], rc[i], model.levels))
        var_prev = max(k0 - float(wi @ wi), 0.0)
        s2 = model.s[mi - 1] ** 2
        terms[i] = 0.5 * np.log1p(var_prev / s2)
        var_before[i] = var_prev
        # extend the observation-covariance factor with record i
        b = _pair_cov(table, rc[:i], mrec[:i], rc[i], mi)
        L, _, _ = _extend_factor(L, b, model.prior_variance(mi) + s2)
        if L is None:
            raise NumericalError("information-chain factor broke down", 0.0)
    return terms, var_before


def greedy_info_gain(log: SampleLog, model: FidelityModel) -> float:
    """Accumulated mutual information of the log, in log order.

    Sums 0.5*log(1 + s^-2 * var) over the records using each record's own
    noise level.  For a single-fidelity log this equals the log-determinant
    form 0.5*log det(I + s^-2 K) exactly, so no jitter is added.
    """
    terms, _ = _chain_terms(log, model)
    return float(np.sum(terms))


def diagnostics_lines(log: SampleLog, model: FidelityModel) -> list[str]:
    """Line-protocol diagnostics: one record per sample with its variance
    before sampling and its information-gain increment."""
    terms, var_before = _chain_terms(log, model)
    X = log.locations()
    mrec = log.fidelities()
    lines = []
    for i in range(len(log)):
        lines.append(
            f"sample n={i + 1} x={X[i, 0]:.17g} y={X[i, 1]:.17g} "
            f"m={int(mrec[i])} sigma2_before={var_before[i]:.17g} info_gain={terms[i]:.17g}"
        )
    return lines
