"""Exact posterior inference for the multi-fidelity GP over the sample log.

Observations at level m only see the layers 1..m, so the covariance between
two records truncates the layer sum at the lower of their two levels, and the
cross-covariance of a record with the full-fidelity field truncates at the
record's level.  Every record sits on a cell center and the layer kernels are
stationary, so all of these covariances are reads of one window view
(``_grid_windows``) of the layer sums of ``field_model.offset_table``
(``covariance_table``), indexed by a level and two cells.  The posterior
serves the whole grid through W = L^-1 K_xn, L the Cholesky factor of the
observation covariance (GPML Alg. 2.1).  Records sorted by level see the
full field's covariance with every earlier record, so the solve of a new
record's covariance against L is a column of W: the rows of L below the
diagonal need no solve of their own, and L is never kept.  One planning
append adds one row of W (``_next_row``).  The epoch posterior over the
log's distinct (cell, level) records and the samples.log information chain
run in blocks of _CHAIN_BLOCK records instead (blocked left-looking
Cholesky, Golub & Van Loan 4.2): one matrix product takes the earlier
blocks off a block's rows, LAPACK factors the block's own Schur
complement, read off those rows, and inv(L_B) gives the block's rows of W
(``_block_factor``).  The chain keeps only W^T W of the earlier blocks.
A snapshot may carry W and the variance over a sorted subset of the cells
only (``restrict``); appends to it then cost O(n * len(columns)).  Appends
run in place on a ``_WorkingSet``, the one writable copy of a snapshot's
rows, which the planner keeps open for a whole epoch; snapshots are made
only at the API.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from ._linalg import DEFAULT_JITTER, NumericalError
from .field_model import FidelityModel, GridDomain, offset_table, offset_windows

SIGMA2_TOL = 1e-8  # most negative clamped variance tolerated before declaring failure
_CHAIN_BLOCK = 64  # records per block of the posterior and the information chain


class SampleLog:
    """Ordered (location, value, fidelity) records collected by the vehicle.

    The planner only ever raises the fidelity level, so the record sequence
    must be non-decreasing in fidelity, from level 1 up; that contract is
    asserted on append (the model's top level is checked by its readers).
    Every location must be a cell center of the mission grid; the record
    keeps that cell's (row, col) indices, and ``locations`` reads the
    centers back from them.
    """

    def __init__(self, domain: GridDomain):
        self.domain = domain
        self._cells: list[tuple[int, int]] = []
        self._values: list[float] = []
        self._fidelities: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def append(self, location: tuple[float, float], value: float, fidelity: int):
        cell = self.domain.index_of(*location)  # raises if not a cell center
        if fidelity < 1:
            raise ValueError(f"fidelity level {fidelity} out of range: levels start at 1")
        if self._fidelities and fidelity < self._fidelities[-1]:
            raise ValueError(
                f"fidelity must be non-decreasing: got {fidelity} after {self._fidelities[-1]}"
            )
        self._cells.append(divmod(cell, self.domain.resolution))
        self._values.append(float(value))
        self._fidelities.append(int(fidelity))

    def locations(self) -> np.ndarray:
        rc = self.cells()
        return self.domain.cell_centers[rc[:, 0] * self.domain.resolution + rc[:, 1]]

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
    centers dr rows and dc columns apart: the cumulative sum of
    ``offset_table`` in layer order, from zero.  The covariance of records
    at levels ma and mb is the entry at t = min(ma, mb) - 1; level M gives
    the full field.
    """
    table = np.cumsum(offset_table(domain, model), axis=0)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _grid_windows(domain: GridDomain, model: FidelityModel) -> np.ndarray:
    """``offset_windows`` of covariance_table: [t, r, c] is the level-(t+1) row of cell (r, c)."""
    return offset_windows(covariance_table(domain, model))


def _grid_cov(windows, rc: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(n, n_cells) covariance of each record with the full field at every cell."""
    return windows[m - 1, rc[:, 0], rc[:, 1]].reshape(len(m), windows.shape[-1] ** 2)


def _next_row(w: np.ndarray, j: int, kappa: np.ndarray, d: float, floor: float):
    """Row of W = L^-1 K for one more record, from W alone.

    The new record's covariance with the records of w is column j of the K
    that w was solved from, so c = L^-1 b = w[:, j] and the new pivot is
    gamma2 = d - c.c.  Returns (row, c, c.c) with row = (kappa - c W) / gamma,
    or (None, c, c.c) when gamma2 <= floor.
    """
    c = w[:, j]
    cc = float(c @ c)
    gamma2 = d - cc
    if gamma2 <= floor:
        return None, c, cc
    return (kappa - c @ w) / np.sqrt(gamma2), c, cc


def _block_factor(x, at, d, what: str, first: int, jitter: float):
    """inv(L) and the pivots diag(L)^2 of one block of records, L L^T = S.

    ``x`` holds the block's covariance rows with every earlier record taken
    off, and column at[k] is record k's own cell.  So the block's Schur
    complement S has x[k, at[l]] above its diagonal for k < l (the identity
    of ``_next_row``) and ``d`` on it, and LAPACK factors it.  A block whose
    S is not positive definite is rerun one record at a time with
    ``_next_row``, only to name the record of the first pivot <= 0 (or of
    the smallest pivot) in a NumericalError; ``first`` is the block's first
    record.
    """
    s = np.triu(x[:, at], 1)
    s += s.T
    np.fill_diagonal(s, d)
    try:
        factor = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        rows, pivots = np.empty_like(x), np.empty(len(d))
        for k in range(len(d)):
            row, _, cc = _next_row(rows[:k], at[k], x[k], d[k], 0.0)
            pivots[k] = d[k] - cc
            if row is None:
                break
            rows[k] = row
        k = int(np.argmin(pivots[: k + 1]))
        raise NumericalError(f"{what} pivot {pivots[k]:g} at record {first + k}", jitter) from None
    return np.linalg.inv(factor), np.square(np.diagonal(factor))


@dataclass(frozen=True)
class PosteriorField:
    """Posterior mean/variance plus the W rows that appends extend.

    One row of W per record: a distinct (cell, level) of the sample log with
    its replicate count, or one planning append (count 1).  ``columns`` are
    the sorted cells that mu, sigma2 and the columns of W cover: every cell
    for ``posterior``, a subset after ``restrict``.  Snapshots are
    immutable: their arrays are read-only and no writer changes them, and
    appending a hypothetical sample produces a new snapshot with one more
    row of W.  Appends maintain only the variance (the mean is carried over
    unchanged), which is all the planner needs: the variance never depends
    on observed values.
    """

    domain: GridDomain
    model: FidelityModel
    cells: np.ndarray  # (r, 2) record (row, col) indices
    fidelities: np.ndarray  # (r,)
    counts: np.ndarray  # (r,) samples merged into each record
    columns: np.ndarray  # (k,) sorted cell indices of the entries below
    _position: np.ndarray = field(repr=False)  # (n_cells,) each cell's index in columns, or -1
    mu: np.ndarray  # (k,)
    sigma2: np.ndarray  # (k,)
    w: np.ndarray  # (r, k) = L^-1 @ cross-covariances; L L^T = K + Theta + jitter*I
    jitter: float

    @property
    def n(self) -> int:
        """Number of samples (not records) the snapshot conditions on."""
        return int(self.counts.sum())

    def max_sigma2(self, candidates: np.ndarray | None = None) -> float:
        """Largest variance over the candidate cells, or over all columns."""
        if candidates is None:
            return float(np.max(self.sigma2))
        if len(candidates) == 0:
            raise ValueError("empty candidate set")
        return float(np.max(self.sigma2[self.column_of(candidates)]))

    def column_of(self, cells):
        """Positions of cell indices in ``columns``; ValueError for a cell outside them."""
        pos = self._position[cells]
        if (pos < 0).any():
            raise ValueError(f"cell outside the snapshot's {len(self.columns)} columns")
        return pos


def _freeze(*arrays: np.ndarray):
    for a in arrays:
        a.setflags(write=False)


def _check_top_level(log: SampleLog, model: FidelityModel):
    """ValueError naming the log's last (highest) level if the model lacks it."""
    if len(log):
        model._check_level(log._fidelities[-1])


def _clamp_sigma2(sigma2: np.ndarray, jitter: float) -> np.ndarray:
    """Clamp negative variances to zero in place; NumericalError below -SIGMA2_TOL."""
    worst = float(sigma2.min()) if sigma2.size else 0.0
    if worst < -SIGMA2_TOL:
        raise NumericalError(f"posterior variance fell to {worst:g}", jitter)
    return np.maximum(sigma2, 0.0, out=sigma2)


def posterior(
    log: SampleLog,
    domain: GridDomain,
    model: FidelityModel,
    jitter_scale: float = DEFAULT_JITTER,
) -> PosteriorField:
    """Exact posterior over all grid cells from the log's distinct records.

    mean(x) = mu0 + k(x)^T (K+Theta)^-1 (y - nu) and
    var(x) = k0(x,x) - k(x)^T (K+Theta)^-1 k(x).  The k samples at one
    (cell, level) enter only through their mean, as one record with noise
    s_m^2 / k (replicate aggregation), so the work scales with the distinct
    records, sorted by level then cell.  Every raw sample carries the
    diagonal jitter, jitter_scale times the largest raw k0_m + s_m^2, so a
    record's diagonal is k0_m + (s_m^2 + jitter) / k.  W and
    a = L^-1 (ybar - nu) are built in blocks of _CHAIN_BLOCK records, each
    block with one product for the earlier blocks and one LAPACK factor of
    its own (``_block_factor``); a block that is not positive definite
    raises NumericalError naming the record and its pivot.  A log above
    the model's top level raises ValueError naming the level.
    """
    n_cells = domain.n_cells
    _check_top_level(log, model)
    rc = log.cells()
    keys, group, counts = np.unique(
        log.fidelities() * n_cells + rc[:, 0] * domain.resolution + rc[:, 1],
        return_inverse=True,
        return_counts=True,
    )
    r = len(keys)
    levels, flat = np.divmod(keys, n_cells)
    cells = np.column_stack(np.divmod(flat, domain.resolution))
    mean, var, noise = model._moments[:, levels]
    a = np.bincount(group, weights=log.values(), minlength=r) / counts
    a -= mean  # ybar - nu, made L^-1 (ybar - nu) block by block below
    jitter = jitter_scale * float(np.max(var + noise)) if r else 0.0
    d = var + (noise + jitter) / counts
    w = _grid_cov(_grid_windows(domain, model), cells, levels)
    for start in range(0, r, _CHAIN_BLOCK):
        block = slice(start, start + _CHAIN_BLOCK)
        at, prev = flat[block], w[:start]
        cprev = prev[:, at]
        w[block] -= cprev.T @ prev
        a[block] -= cprev.T @ a[:start]
        schur_d = d[block] - np.einsum("ij,ij->j", cprev, cprev)
        linv, _ = _block_factor(w[block], at, schur_d, "posterior", start, jitter)
        w[block] = linv @ w[block]
        a[block] = linv @ a[block]
    mu = model.prior_mean() + w.T @ a
    sigma2 = _clamp_sigma2(model.prior_variance() - np.einsum("ij,ij->j", w, w), jitter)
    columns = np.arange(n_cells)  # every cell, so also each cell's position
    _freeze(cells, levels, counts, columns, mu, sigma2, w)
    return PosteriorField(
        domain=domain,
        model=model,
        cells=cells,
        fidelities=levels,
        counts=counts,
        columns=columns,
        _position=columns,
        mu=mu,
        sigma2=sigma2,
        w=w,
        jitter=jitter,
    )


def restrict(state: PosteriorField, columns: np.ndarray) -> PosteriorField:
    """The snapshot over the cells ``columns`` only: W[:, columns], sigma2[columns].

    ``columns`` must be sorted, unique and among the snapshot's own columns.
    Appends to the result compute the variance at these cells alone.
    """
    return _WorkingSet(state, columns, 0).snapshot()


class _WorkingSet:
    """The one writable copy of a snapshot's W rows, records and variance,
    over the sorted cells ``columns`` (which must be among the snapshot's
    own), with room for ``spare`` appends.

    The constructor gathers W[:, columns], sigma2 and mu at those columns
    and the records once.  ``add`` is the one variance-append step and
    writes row n in place.  ``snapshot`` freezes views of the set into a
    PosteriorField; the set takes no appends after that.  Nothing is shared
    with the snapshot the set was made from or with any other set.
    """

    def __init__(self, state: PosteriorField, columns: np.ndarray, spare: int):
        columns = np.asarray(columns)
        if len(columns) == 0 or np.any(np.diff(columns) <= 0):
            raise ValueError("columns must be non-empty, sorted and unique")
        local = state.column_of(columns)
        n = self.n = len(state.fidelities)
        self.base = state
        self.w = np.empty((n + spare, len(columns)))
        np.take(state.w, local, axis=1, out=self.w[:n])
        self.cells = np.empty((n + spare, 2), dtype=int)
        self.fidelities = np.empty(n + spare, dtype=int)
        self.counts = np.empty(n + spare, dtype=int)
        self.cells[:n], self.fidelities[:n], self.counts[:n] = (
            state.cells, state.fidelities, state.counts,
        )
        self.columns, self.mu, self.sigma2 = columns.copy(), state.mu[local], state.sigma2[local]
        self._position = np.full(state.domain.n_cells, -1)
        self._position[columns] = np.arange(len(columns))
        self._windows = _grid_windows(state.domain, state.model)
        _, var, noise = state.model._moments
        self._diag = var + noise

    def add(self, position: int, level: int) -> bool:
        """Append a sample at column ``position`` (an index into the set's
        columns) and fidelity ``level``.

        The new row of W comes from W alone (see ``_next_row``), in
        O(n * len(columns)).  Returns False, with nothing changed, when the
        new pivot falls below its floor.  Raises NumericalError, leaving the
        set unusable, when a variance falls below -SIGMA2_TOL.
        """
        n = self.n
        r, c = divmod(int(self.columns[position]), self._windows.shape[-1])
        kappa = self._windows[level - 1, r, c].reshape(-1)[self.columns]
        d, jitter = self._diag[level], self.base.jitter
        row, _, _ = _next_row(self.w[:n], position, kappa, d + jitter, max(1e-12 * d, 1e-300))
        if row is None:
            return False
        self.w[n] = row
        self.cells[n] = r, c
        self.fidelities[n] = level
        self.counts[n] = 1
        self.sigma2 -= np.square(row)
        _clamp_sigma2(self.sigma2, jitter)
        self.n = n + 1
        return True

    def snapshot(self) -> PosteriorField:
        """The PosteriorField of the set so far; freezes the set's variance."""
        n = self.n
        views = {
            "w": self.w[:n], "cells": self.cells[:n], "fidelities": self.fidelities[:n],
            "counts": self.counts[:n], "columns": self.columns, "_position": self._position,
            "mu": self.mu, "sigma2": self.sigma2,
        }
        _freeze(*views.values())
        return replace(self.base, **views)


def append_sample_variance_only(
    state: PosteriorField, x_new, m_new: int
) -> PosteriorField:
    """Add a hypothetical sample at (x_new, m_new) to the variance.

    ``x_new`` must be the center of one of the snapshot's columns and
    ``m_new`` at least the level of the last record.  Runs the working-set
    step (``_WorkingSet.add``) on a copy of this snapshot's rows, in
    O(n * len(columns)) and without a factor.  The variance of the result
    matches a full recompute with the extended log (observed values are
    irrelevant to the variance).  If the new pivot breaks down numerically,
    falls back to a full refactorization with placeholder observations,
    restricted to the same columns.
    """
    model, domain = state.model, state.domain
    model._check_level(m_new)
    n = len(state.fidelities)
    if n and m_new < state.fidelities[-1]:
        raise ValueError(
            f"fidelity must be non-decreasing: got {m_new} after {state.fidelities[-1]}"
        )
    working = _WorkingSet(state, state.columns, 1)
    if not working.add(int(state.column_of(domain.index_of(x_new[0], x_new[1]))), m_new):
        return _refactorized_append(state, x_new, m_new)
    return working.snapshot()


def _refactorized_append(state: PosteriorField, x_new, m_new: int) -> PosteriorField:
    domain = state.domain
    log = SampleLog(domain)
    for (row, col), m, k in zip(state.cells, state.fidelities, state.counts):
        for _ in range(k):
            log.append(domain.cell_center(int(row) * domain.resolution + int(col)), 0.0, int(m))
    log.append((float(x_new[0]), float(x_new[1])), 0.0, m_new)
    # Variance-only contract: carry the previous mean through, as the
    # incremental path does.
    return replace(restrict(posterior(log, domain, state.model), state.columns), mu=state.mu)


def _chain_terms(log: SampleLog, model: FidelityModel):
    """Per-record mutual-information increments in log order.

    Term i is 0.5*log(1 + s_{m_i}^-2 * var_{i-1}(x_i)) where var_{i-1} is the
    posterior variance of the full field given the first i-1 records.  W is
    solved against the log's U distinct cells only (no jitter), so
    var_{i-1}(x_i) = k0 - c.c with c the column of W at the record's cell.
    Only G = W^T W over the rows of earlier blocks is kept, never W itself:
    a block of _CHAIN_BLOCK records at cells j takes G[j] off its
    covariances and G[j, j] off its diagonal d, is factored by
    ``_block_factor`` and summed into G by one matrix product (blocked
    left-looking Cholesky, Golub & Van Loan 4.2).  A record's c.c is d less
    its squared pivot.  The work is O(n * U^2 + n * _CHAIN_BLOCK * U).
    Returns (terms, variances-before-sampling).
    """
    n = len(log)
    _check_top_level(log, model)
    windows = _grid_windows(log.domain, model)
    rc = log.cells()
    mrec = log.fidelities()
    flat, col = np.unique(rc[:, 0] * log.domain.resolution + rc[:, 1], return_inverse=True)
    rows, cols = np.divmod(flat, log.domain.resolution)  # the distinct cells
    _, var, noise = model._moments
    s2 = noise[mrec]
    d = var[mrec] + s2
    gram = np.zeros((len(flat), len(flat)))
    cc = np.empty(n)
    for start in range(0, n, _CHAIN_BLOCK):
        block = slice(start, start + _CHAIN_BLOCK)
        at = col[block]
        x = windows[mrec[block, None] - 1, rc[block, 0, None], rc[block, 1, None], rows, cols]
        x -= gram[at]
        linv, pivots = _block_factor(x, at, d[block] - gram[at, at], "information-chain", start, 0.0)
        wb = linv @ x
        cc[block] = d[block] - pivots
        gram += wb.T @ wb
    var_before = np.maximum(model.prior_variance() - cc, 0.0)
    return 0.5 * np.log1p(var_before / s2), var_before


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
    columns = (
        range(1, len(log) + 1),
        X[:, 0].tolist(),
        X[:, 1].tolist(),
        log.fidelities().tolist(),
        var_before.tolist(),
        terms.tolist(),
    )
    line = "sample n=%d x=%.17g y=%.17g m=%d sigma2_before=%.17g info_gain=%.17g\n"
    return ((line * len(log)) % tuple(chain.from_iterable(zip(*columns)))).splitlines()
