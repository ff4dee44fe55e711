"""Exact posterior inference for the multi-fidelity GP over the sample log.

Observations at level m only see the layers 1..m, so the covariance between
two records truncates the layer sum at the lower of their two levels, and the
cross-covariance of a record with the full-fidelity field truncates at the
record's level.  Every record sits on a cell center and the layer kernels are
stationary, so all of these covariances are reads of the layer sums in
``field_model.covariance_tables``, whose rows ``field_model.covariance_rows``
gathers, indexed by a level and two cells.  The posterior
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

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from ._linalg import DEFAULT_JITTER, NumericalError
from ._np import np
from .config import FidelityModel, GridDomain, _check_int
from .field_model import covariance_rows, covariance_tables

SIGMA2_TOL = 1e-8  # most negative clamped variance tolerated before declaring failure
_CHAIN_BLOCK = 64  # records per block of the posterior and the information chain


def _check_next_level(level, levels, top=None):
    """``_check_int`` of ``level`` from the last of the record levels
    ``levels`` (they never decrease; 1 when there is none) up to ``top``."""
    _check_int("fidelity level", level, levels[-1] if len(levels) else 1, top)


class SampleLog:
    """Ordered (cell, value, fidelity) records collected by the vehicle.

    The planner only ever raises the fidelity level, so the record sequence
    must be non-decreasing in fidelity, from level 1 up; that contract is
    asserted on append (the model's top level is checked by its readers).
    A record names its cell of the log's ``domain`` by flat index, and
    ``locations`` reads the cell centers from ``domain.cell_centers``.
    """

    def __init__(self, domain: GridDomain):
        self.domain = domain
        self._cells: list[int] = []
        self._values: list[float] = []
        self._fidelities: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def append(self, cell: int, value: float, fidelity: int):
        self.extend([cell], [value], fidelity)

    def extend(self, cells, values, fidelity: int):
        """Append one record per flat cell index in ``cells``, with the
        matching entry of ``values``, all at level ``fidelity``.  A cell
        index that is not an integer (``_is_int``: 3.0 and True are not) in
        [0, n_cells - 1], or a value that is not finite, is refused, naming
        its entry, and so is a fidelity that ``_check_next_level`` refuses."""
        last = self.domain.n_cells - 1
        index = [
            int(_check_int(f"cell index at entry {k}", c, 0, last)) for k, c in enumerate(cells)
        ]
        values = np.asarray(values, dtype=float)
        if len(index) != len(values):
            raise ValueError(f"{len(index)} cells but {len(values)} values")
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"value {values[k]} at entry {k} is not finite")
        _check_next_level(fidelity, self._fidelities)
        self._cells += index
        self._values += values.tolist()
        self._fidelities += [int(fidelity)] * len(index)

    def locations(self) -> np.ndarray:
        return self.domain.cell_centers[self.cell_indices()]

    def cell_indices(self) -> np.ndarray:
        """(n,) flat indices of the records' cells."""
        return np.array(self._cells, dtype=int)

    def values(self) -> np.ndarray:
        return np.array(self._values, dtype=float)

    def fidelities(self) -> np.ndarray:
        return np.array(self._fidelities, dtype=int)


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
    complement S has x[k, at[l]] at (l, k) below its diagonal (the identity
    of ``_next_row``) and ``d`` on it, the only entries LAPACK reads.  A
    block whose S is not positive definite is rerun from ``x`` one record at
    a time with ``_next_row``, only to name the record of the first pivot
    <= 0 (or of the smallest pivot) in a NumericalError; ``first`` is the
    block's first record.
    """
    s = x[:, at].T.copy()
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


@dataclass(frozen=True, eq=False)
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
    on observed values.  Compares and hashes by identity, as every record
    that holds arrays does.
    """

    domain: GridDomain
    model: FidelityModel
    cells: np.ndarray  # (r,) record flat cell indices
    fidelities: np.ndarray  # (r,)
    counts: np.ndarray  # (r,) samples merged into each record
    columns: np.ndarray  # (k,) sorted cell indices of the entries below
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
        """Positions of cell indices in the sorted ``columns``; ValueError
        naming the first cell outside them."""
        pos = np.searchsorted(self.columns, cells)
        outside = self.columns.take(pos, mode="clip") != cells
        if np.any(outside):
            cell = np.asarray(cells)[outside].flat[0]
            raise ValueError(f"cell {cell} outside the snapshot's {len(self.columns)} columns")
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
    worst = float(np.minimum.reduce(sigma2)) if sigma2.size else 0.0
    if worst < -SIGMA2_TOL:
        raise NumericalError(f"posterior variance fell to {worst:g}", jitter)
    if worst < 0.0:
        np.maximum(sigma2, 0.0, out=sigma2)
    return sigma2


def posterior(
    log: SampleLog, model: FidelityModel, jitter_scale: float = DEFAULT_JITTER
) -> PosteriorField:
    """Exact posterior over all cells of the log's grid from its distinct records.

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
    domain = log.domain
    n_cells = domain.n_cells
    _check_top_level(log, model)
    keys, group, counts = np.unique(
        log.fidelities() * n_cells + log.cell_indices(), return_inverse=True, return_counts=True
    )
    r = len(keys)
    levels, cells = np.divmod(keys, n_cells)
    mean, var, noise = model._moments[:, levels]
    a = np.bincount(group, weights=log.values(), minlength=r) / counts
    a -= mean  # ybar - nu, made L^-1 (ybar - nu) block by block below
    jitter = jitter_scale * float(np.max(var + noise)) if r else 0.0
    d = var + (noise + jitter) / counts
    w = covariance_rows(domain, model, cells, levels)
    for start in range(0, r, _CHAIN_BLOCK):
        block = slice(start, start + _CHAIN_BLOCK)
        at, prev = cells[block], w[:start]
        cprev = prev[:, at]
        w[block] -= cprev.T @ prev
        a[block] -= cprev.T @ a[:start]
        schur_d = d[block] - np.einsum("ij,ij->j", cprev, cprev)
        linv, _ = _block_factor(w[block], at, schur_d, "posterior", start, jitter)
        w[block] = linv @ w[block]
        a[block] = linv @ a[block]
    mu = model.prior_mean() + w.T @ a
    sigma2 = _clamp_sigma2(model.prior_variance() - np.einsum("ij,ij->j", w, w), jitter)
    columns = np.arange(n_cells)
    _freeze(cells, levels, counts, columns, mu, sigma2, w)
    return PosteriorField(
        domain=domain,
        model=model,
        cells=cells,
        fidelities=levels,
        counts=counts,
        columns=columns,
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
    return _WorkingSet(state, columns).snapshot()


class _WorkingSet:
    """The one writable copy of a snapshot's W rows and variance, over the
    sorted cells ``columns`` (which must be among the snapshot's own).

    The constructor gathers W[:, columns] and sigma2 at those columns once;
    W, with room for max(n, 16) more rows, is the set's one buffer.  ``add``
    is the one variance-append step: it writes row n of W in place and lists
    the sample's (position, level).  A full W doubles first, copying its
    filled rows, so the set holds memory for the rows it fills.  ``snapshot``
    builds the records and gathers mu when it is taken, and freezes views of
    the set into a PosteriorField; the set takes no appends after that.
    Nothing is shared with the snapshot the set was made from or with any
    other set.
    """

    def __init__(self, state: PosteriorField, columns: np.ndarray):
        columns = np.asarray(columns)
        if len(columns) == 0 or np.any(np.diff(columns) <= 0):
            raise ValueError("columns must be non-empty, sorted and unique")
        local = self._local = state.column_of(columns)
        n = self.n = len(state.fidelities)
        self.base = state
        self.w = np.empty((max(2 * n, n + 16), len(columns)))
        np.take(state.w, local, axis=1, out=self.w[:n])
        self.columns, self.sigma2 = columns.copy(), state.sigma2[local]
        self.appended: list[tuple[int, int]] = []  # (position, level) of each add
        # kappa of the cell at column k is one slice and gather of the flat
        # layer sums (the layout ``covariance_tables`` documents): the slice
        # starts at the level's block plus _start[k], and the columns sit
        # _offsets after it.
        R = state.domain.resolution
        rows, cols = np.divmod(columns, R)
        self._offsets = rows * (2 * R - 1) + cols
        self._start = ((R - 1 - rows) * (2 * R - 1) + (R - 1 - cols)).tolist()
        self._block = (2 * R - 1) ** 2
        self._reflected = covariance_tables(state.domain, state.model).ravel()  # a view
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
        start = (level - 1) * self._block + self._start[position]
        kappa = self._reflected[start:][self._offsets]
        d, jitter = self._diag[level], self.base.jitter
        row, _, _ = _next_row(self.w[:n], position, kappa, d + jitter, max(1e-12 * d, 1e-300))
        if row is None:
            return False
        if n == len(self.w):  # full: double W, copying the filled rows
            grown = np.empty((2 * n, self.w.shape[1]))
            grown[:n] = self.w
            self.w = grown
        self.w[n] = row
        self.appended.append((position, level))
        self.sigma2 -= np.square(row)
        _clamp_sigma2(self.sigma2, jitter)
        self.n = n + 1
        return True

    def snapshot(self) -> PosteriorField:
        """The PosteriorField of the set so far (appended samples count 1);
        freezes the set's variance."""
        base = self.base
        positions, levels = np.array(self.appended, dtype=int).reshape(-1, 2).T
        views = {
            "w": self.w[: self.n], "columns": self.columns, "sigma2": self.sigma2,
            "cells": np.concatenate((base.cells, self.columns[positions])),
            "fidelities": np.concatenate((base.fidelities, levels)),
            "counts": np.concatenate((base.counts, np.ones_like(levels))),
            "mu": base.mu[self._local],
        }
        _freeze(*views.values())
        return replace(base, **views)


def append_sample_variance_only(state: PosteriorField, cell: int, m_new: int) -> PosteriorField:
    """Add a hypothetical sample at the flat cell index ``cell`` and level
    ``m_new`` to the variance.

    ``cell`` must be a cell of the grid (``_check_int``) among the
    snapshot's columns, and ``m_new`` a level of the model at least that of
    the last record.
    Runs the working-set step (``_WorkingSet.add``) on a copy of this
    snapshot's rows, in O(n * len(columns)) and without a factor.  The variance of the
    result matches a full recompute with the extended log (observed values
    are irrelevant to the variance).  If the new pivot breaks down numerically,
    falls back to a full refactorization with placeholder observations,
    restricted to the same columns.
    """
    _check_int("cell", cell, 0, state.domain.n_cells - 1)
    _check_next_level(m_new, state.fidelities, state.model.levels)
    working = _WorkingSet(state, state.columns)
    if not working.add(int(state.column_of(cell)), m_new):
        return _refactorized_append(state, cell, m_new)
    return working.snapshot()


def _refactorized_append(state: PosteriorField, cell: int, m_new: int) -> PosteriorField:
    log = SampleLog(state.domain)
    for c, m, k in zip(state.cells, state.fidelities, state.counts):
        log.extend([c] * k, [0.0] * k, m)
    log.extend([cell], [0.0], m_new)
    # Variance-only contract: carry the previous mean through, as the
    # incremental path does.
    return replace(restrict(posterior(log, state.model), state.columns), mu=state.mu)


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
    mrec = log.fidelities()
    flat, col = np.unique(log.cell_indices(), return_inverse=True)  # the distinct cells
    _, var, noise = model._moments
    s2 = noise[mrec]
    d = var[mrec] + s2
    gram = np.zeros((len(flat), len(flat)))
    cc = np.empty(n)
    for start in range(0, n, _CHAIN_BLOCK):
        block = slice(start, start + _CHAIN_BLOCK)
        at = col[block]
        x = covariance_rows(log.domain, model, flat[at], mrec[block])[:, flat]
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
