"""Independent reference implementations used to check the library.

Everything here is deliberately brute force and shares no code path with the
package: joint-Gaussian conditioning, the raw-log posterior and the log
evidence via dense solves, textbook GP formulas, log-determinant
information, the factor-based variance append and information chain,
exhaustive TSP, the scalar nearest-neighbour plus 2-opt router, the
per-sample measurement of a flown tour, a from-scratch planning loop, and the per-value artifact writers, which print
each number on its own through ``reference_fmt``.  The five exceptions drive
the package's own appends: ``full_grid_plan``, the epoch-planning loop over
all cells of the grid, which planning on the candidate cells alone must
reproduce, ``snapshot_plan`` and ``snapshot_decay``, the planning loop and
the uncertainty-decay loop with one snapshot per sample, which the in-place
steps of ``plan_epoch`` and ``compare_decay`` must reproduce exactly, and
``record_chain`` and ``record_posterior``, the information chain and the
epoch posterior with one append step per record on all of W, which the
blocked forms of ``_chain_terms`` and ``posterior`` must reproduce.  Those
two read the layer sums of ``covariance_tables`` by offset arithmetic
(``_pair_cov``), which the package's window gathers must reproduce bit for
bit.  ``reference_mission`` joins these references into the epoch loop
around the package's truth draw and epoch posterior, which ``run_mission``
must reproduce bit for bit.
"""

import itertools
import json
import math
from types import SimpleNamespace

import numpy as np

from mfgp_search._linalg import NumericalError
from mfgp_search.classifier import Label
from mfgp_search.field_model import covariance_tables, sample_ground_truth
from mfgp_search.inference import (
    SampleLog,
    _next_row,
    append_sample_variance_only,
    posterior,
    restrict,
)
from mfgp_search.mission import EpochRecord
from mfgp_search.planner import (
    EpochPlan,
    PlannedSample,
    select_next_point,
    update_fidelity,
)


def sq_exp(v, l, A, B):
    """Squared-exponential kernel matrix between point sets A (n,2), B (p,2)."""
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)
    return v * v * np.exp(-d2 / (2.0 * l * l))


def _pair_cov(tables, rc_a, m_a, rc_b, m_b) -> np.ndarray:
    """Covariance of records at cells rc_a (levels m_a) and rc_b (m_b) by
    offset arithmetic on the layer sums of ``covariance_tables``, read at
    non-negative offsets only; broadcasts."""
    R = (tables.shape[-1] + 1) // 2
    table = tables[:, R - 1 :, R - 1 :]
    dr = rc_a[..., 0] - rc_b[..., 0]
    dc = rc_a[..., 1] - rc_b[..., 1]
    level = np.minimum(m_a, m_b) - 1
    return table[level, np.abs(dr, out=dr), np.abs(dc, out=dc)]


def _layer_sum_cov(A, ma, B, mb, v, l):
    """Covariance of points A seeing layers 1..ma with points B seeing 1..mb."""
    C = np.zeros((len(ma), len(mb)))
    for i in range(1, len(v) + 1):
        pair = np.minimum(ma[:, None], mb[None, :]) >= i
        C += np.where(pair, sq_exp(v[i - 1], l[i - 1], A, B), 0.0)
    return C


def _observation_covariance(X, mrec, v, l, s):
    """Dense covariance of observations that see layers 1..m plus their noise."""
    Cyy = np.zeros((len(mrec), len(mrec)))
    for i in range(1, len(v) + 1):
        pair = np.minimum(mrec[:, None], mrec[None, :]) >= i
        Cyy += np.where(pair, sq_exp(v[i - 1], l[i - 1], X, X), 0.0)
    return Cyy + np.diag([s[m - 1] ** 2 for m in mrec])


def joint_gaussian_posterior(X, mrec, y, cells, mu, v, l, s):
    """Condition the generative joint Gaussian of (observations, field).

    Observations at level m see layers 1..m plus their own noise; the field
    is the full layer sum.  Returns (mean, variance) at every cell.
    """
    X = np.asarray(X, dtype=float)
    mrec = np.asarray(mrec, dtype=int)
    y = np.asarray(y, dtype=float)
    Cyy = _observation_covariance(X, mrec, v, l, s)
    Cfy = np.zeros((cells.shape[0], len(y)))
    for i in range(1, len(v) + 1):
        cols = mrec >= i
        Cfy[:, cols] += sq_exp(v[i - 1], l[i - 1], cells, X[cols])
    nu = np.array([sum(mu[:m]) for m in mrec])
    inv = np.linalg.inv(Cyy)
    mean = sum(mu) + Cfy @ inv @ (y - nu)
    k0 = sum(vi * vi for vi in v)
    var = k0 - np.einsum("ij,jk,ik->i", Cfy, inv, Cfy)
    return mean, var


def dense_raw_posterior(X, mrec, y, cells, mu, v, l, s, jitter_scale=1e-10):
    """Posterior over every raw record, from one dense n x n factorization.

    Factors the observation covariance plus jitter_scale times its largest
    diagonal entry and solves W = L^-1 K_xn and a = L^-1 (y - nu) densely.
    Returns (mean, variance, jitter).
    """
    X = np.asarray(X, dtype=float)
    mrec = np.asarray(mrec, dtype=int)
    C = _observation_covariance(X, mrec, v, l, s)
    jitter = jitter_scale * float(np.max(np.diagonal(C))) if len(mrec) else 0.0
    L = np.linalg.cholesky(C + jitter * np.eye(len(mrec)))
    top = np.full(cells.shape[0], len(v))
    W = np.linalg.solve(L, _layer_sum_cov(X, mrec, cells, top, v, l))
    a = np.linalg.solve(L, np.asarray(y, dtype=float) - np.array([sum(mu[:m]) for m in mrec]))
    return sum(mu) + W.T @ a, sum(vi * vi for vi in v) - np.sum(W * W, axis=0), jitter


def log_marginal_likelihood(X, mrec, y, mu, v, l, s, jitter_scale=1e-10):
    """Gaussian log evidence of the observations under the layer-sum prior.

    Dense Cholesky of the observation covariance plus jitter_scale times its
    largest diagonal entry; raises LinAlgError if that is not positive definite.
    """
    X = np.asarray(X, dtype=float)
    mrec = np.asarray(mrec, dtype=int)
    y = np.asarray(y, dtype=float)
    C = _observation_covariance(X, mrec, v, l, s)
    L = np.linalg.cholesky(C + jitter_scale * np.max(np.diagonal(C)) * np.eye(len(y)))
    a = np.linalg.solve(L, y - np.array([sum(mu[:m]) for m in mrec]))
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L))))
    return -0.5 * (len(y) * np.log(2.0 * np.pi) + logdet) - 0.5 * float(a @ a)


def _extend_cholesky(L, b, d):
    """Lower factor of [[A, b], [b^T, d]] from the factor L of A, and c = L^-1 b."""
    c = np.linalg.solve(L, b) if len(b) else np.zeros(0)
    n = L.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = L
    out[n, :n] = c
    out[n, n] = np.sqrt(d - c @ c)
    return out, c


def factor_append_variance(X, mrec, n_start, cells, v, l, s, jitter_scale=1e-10):
    """Variance grid of a posterior on the first n_start records, grown by
    rank-one appends of the rest against the Cholesky factor.

    The start factors the observation covariance plus jitter_scale times its
    largest diagonal entry; each append solves c = L^-1 b for the new
    record's covariance b with the earlier ones, extends L by the row
    [c, gamma] and W = L^-1 K_xn by (kappa - c W) / gamma.
    """
    X = np.asarray(X, dtype=float)
    mrec = np.asarray(mrec, dtype=int)
    top = np.full(cells.shape[0], len(v))
    C = _observation_covariance(X[:n_start], mrec[:n_start], v, l, s)
    jitter = jitter_scale * float(np.max(np.diagonal(C))) if n_start else 0.0
    L = np.linalg.cholesky(C + jitter * np.eye(n_start))
    W = np.linalg.solve(L, _layer_sum_cov(X[:n_start], mrec[:n_start], cells, top, v, l))
    var = sum(vi * vi for vi in v) - np.sum(W * W, axis=0)
    for i in range(n_start, len(mrec)):
        new, m = X[i : i + 1], mrec[i : i + 1]
        b = _layer_sum_cov(X[:i], mrec[:i], new, m, v, l)[:, 0]
        d = sum(vi * vi for vi in v[: m[0]]) + s[m[0] - 1] ** 2 + jitter
        L, c = _extend_cholesky(L, b, d)
        w_new = (_layer_sum_cov(new, m, cells, top, v, l)[0] - c @ W) / L[-1, -1]
        W = np.vstack([W, w_new])
        var = var - w_new**2
    return var


def log_order_chain(X, mrec, v, l, s):
    """Information terms and variances before sampling, record by record.

    Record i solves the full-field covariance at its point against the
    factor of records 0..i-1 (no jitter), then extends that factor by itself.
    """
    X = np.asarray(X, dtype=float)
    mrec = np.asarray(mrec, dtype=int)
    top = np.array([len(v)])
    k0 = sum(vi * vi for vi in v)
    terms, var_before = np.zeros(len(mrec)), np.zeros(len(mrec))
    L = np.zeros((0, 0))
    for i, m in enumerate(mrec):
        new = X[i : i + 1]
        kvec = _layer_sum_cov(X[:i], mrec[:i], new, top, v, l)[:, 0]
        wi = np.linalg.solve(L, kvec) if i else np.zeros(0)
        var_before[i] = max(k0 - wi @ wi, 0.0)
        terms[i] = 0.5 * np.log1p(var_before[i] / s[m - 1] ** 2)
        b = _layer_sum_cov(X[:i], mrec[:i], new, mrec[i : i + 1], v, l)[:, 0]
        L, _ = _extend_cholesky(L, b, sum(vi * vi for vi in v[:m]) + s[m - 1] ** 2)
    return terms, var_before


def record_chain(log, model):
    """The information chain with all of W, one append step per record.

    W is solved against the log's distinct cells; record i takes the
    package's append step on rows 0..i-1 and becomes row i, so
    var_{i-1}(x_i) = k0 - c.c.  Returns (terms, variances-before-sampling).
    """
    n = len(log)
    R = log.domain.resolution
    tables = covariance_tables(log.domain, model)
    index = log.cell_indices()
    rc = np.column_stack(np.divmod(index, R))
    mrec = log.fidelities()
    flat, col = np.unique(index, return_inverse=True)
    distinct = np.column_stack(np.divmod(flat, R))
    kxu = _pair_cov(tables, rc[:, None, :], mrec[:, None], distinct[None, :, :], model.levels)
    _, var, noise = model._moments
    s2 = noise[mrec]
    d = var[mrec] + s2
    w = np.empty((n, len(flat)))
    terms = np.zeros(n)
    var_before = np.zeros(n)
    k0 = model.prior_variance()
    for i in range(n):
        row, _, cc = _next_row(w[:i], col[i], kxu[i], d[i], 0.0)
        if row is None:
            raise NumericalError("information-chain pivot broke down", 0.0)
        w[i] = row
        var_before[i] = max(k0 - cc, 0.0)
        terms[i] = 0.5 * np.log1p(var_before[i] / s2[i])
    return terms, var_before


def record_posterior(log, domain, model, jitter_scale=1e-10):
    """The epoch posterior with all of W, one append step per record.

    The log's distinct (cell, level) records, sorted by level then cell,
    each take the package's append step on rows 0..i-1 of W = L^-1 K_xn and
    of a = L^-1 (ybar - nu), with the replicate-aggregated diagonal of
    ``posterior``.  Returns (mean, variance, W) over every cell.
    """
    n_cells = domain.n_cells
    tables = covariance_tables(domain, model)
    keys, group, counts = np.unique(
        log.fidelities() * n_cells + log.cell_indices(),
        return_inverse=True,
        return_counts=True,
    )
    r = len(keys)
    levels, flat = np.divmod(keys, n_cells)
    cells = np.column_stack(np.divmod(flat, domain.resolution))
    mean, var, noise = model._moments[:, levels]
    resid = np.bincount(group, weights=log.values(), minlength=r) / counts - mean
    jitter = jitter_scale * float(np.max(var + noise)) if r else 0.0
    d = var + (noise + jitter) / counts
    grid = np.column_stack(np.divmod(np.arange(n_cells), domain.resolution))
    w = _pair_cov(tables, cells[:, None], levels[:, None], grid[None], model.levels)
    a = np.empty(r)
    for i, j in enumerate(flat):
        row, c, cc = _next_row(w[:i], j, w[i], d[i], 0.0)
        if row is None:
            raise NumericalError(f"posterior pivot {d[i] - cc:g} at record {i}", jitter)
        w[i] = row
        a[i] = (resid[i] - c @ a[:i]) / np.sqrt(d[i] - cc)
    sigma2 = np.maximum(model.prior_variance() - np.einsum("ij,ij->j", w, w), 0.0)
    return model.prior_mean() + w.T @ a, sigma2, w


def textbook_gp_posterior(X, y, cells, mu0, v, l, s):
    """Plain single-output GP regression (Rasmussen & Williams 2.23/2.24)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    K = sq_exp(v, l, X, X) + s * s * np.eye(len(y))
    Ks = sq_exp(v, l, cells, X)
    inv = np.linalg.inv(K)
    mean = mu0 + Ks @ inv @ (y - mu0)
    var = v * v - np.einsum("ij,jk,ik->i", Ks, inv, Ks)
    return mean, var


def logdet_information(X, v, l, s):
    """0.5 * log det(I + s^-2 K) for a single-fidelity design."""
    K = sq_exp(v, l, np.asarray(X, float), np.asarray(X, float))
    sign, logdet = np.linalg.slogdet(np.eye(len(X)) + K / (s * s))
    assert sign > 0
    return 0.5 * logdet


def exhaustive_open_tour(start, points):
    """Exact shortest open tour from a fixed start through all points."""

    def length(order):
        total = 0.0
        prev = start
        for i in order:
            total += float(np.linalg.norm(np.asarray(points[i]) - np.asarray(prev)))
            prev = points[i]
        return total

    return min(length(list(p)) for p in itertools.permutations(range(len(points))))


IMPROVE_EPS = 1e-12  # the router's minimum 2-opt gain


def scalar_dist3(a, b) -> float:
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def scalar_path_length(start, order, pts3) -> float:
    total = 0.0
    prev = start
    for i in order:
        total += scalar_dist3(prev, pts3[i])
        prev = pts3[i]
    return total


def scalar_nearest_neighbor(start, pts3) -> list[int]:
    """Greedy open path from start; ties go to the lowest index."""
    remaining = list(range(len(pts3)))
    order = []
    cur = start
    while remaining:
        best = min(remaining, key=lambda i: (scalar_dist3(cur, pts3[i]), i))
        order.append(best)
        remaining.remove(best)
        cur = pts3[best]
    return order


def scalar_two_opt(start, order, pts3) -> list[int]:
    """First-improvement 2-opt on an open path with a fixed start.

    Scans i ascending, then j; applies the first swap that gains more than
    IMPROVE_EPS and restarts the scan from i = 0.
    """
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            before = start if i == 0 else pts3[order[i - 1]]
            for j in range(i + 1, n):
                delta = scalar_dist3(before, pts3[order[j]]) - scalar_dist3(before, pts3[order[i]])
                if j < n - 1:
                    after = pts3[order[j + 1]]
                    delta += scalar_dist3(pts3[order[i]], after) - scalar_dist3(pts3[order[j]], after)
                if delta < -IMPROVE_EPS:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
                    break
            if improved:
                break
    return order


def scalar_measurements(tours, levels, truth, model, rng) -> list[tuple]:
    """(x, y, value, level) of every waypoint in visit order: the truth at
    the waypoint's cell (found by a search of the cell centres) plus one
    scalar ``rng.normal(0.0, s_m)`` draw per sample."""
    centers = truth.domain.cell_centers.tolist()
    rows = []
    for tour, m in zip(tours, levels):
        for x, y, _ in tour.waypoints:
            value = float(truth.f[m - 1, centers.index([x, y])])
            rows.append((x, y, value + rng.normal(0.0, model.s[m - 1]), m))
    return rows


def greedy_plan_reference(cells, candidates, v, l, s, sigma_ratio, cap):
    """From-scratch replay of the single-fidelity epoch-planning loop.

    Recomputes the full posterior variance grid by dense conditioning after
    every pick; returns the picked cell locations in order.
    """
    picks: list[int] = []
    var = np.full(cells.shape[0], v * v)
    sigma_before = np.sqrt(np.max(var[candidates]))
    while True:
        local = int(np.argmax(var[candidates]))
        picks.append(int(candidates[local]))
        X = cells[picks]
        K = sq_exp(v, l, X, X) + s * s * np.eye(len(picks))
        Ks = sq_exp(v, l, cells, X)
        var = v * v - np.einsum("ij,jk,ik->i", Ks, np.linalg.inv(K), Ks)
        if np.sqrt(np.max(var[candidates])) <= sigma_ratio * sigma_before:
            return picks, False
        if len(picks) >= cap:
            return picks, True


def full_grid_plan(post, level, limits, candidates):
    """The epoch-planning loop with every append over all cells of the grid.

    Picks, the max-variance trace and the fidelity switch read the candidate
    cells of each full-grid snapshot.  Returns (cells, fidelities,
    variances, trace, capped), where variances[k] is the variance at every
    cell before sample k.
    """
    start = np.sqrt(post.max_sigma2(candidates))
    cells, fidelities, variances, trace = [], [], [], []
    while True:
        cell = select_next_point(post, candidates)
        cells.append(cell)
        fidelities.append(level)
        variances.append(post.sigma2)
        post = append_sample_variance_only(post, cell, level)
        trace.append(post.max_sigma2(candidates))
        level = update_fidelity(level, post, candidates)
        done = np.sqrt(trace[-1]) <= limits.sigma_ratio * start
        if done or len(cells) >= limits.sample_cap:
            return cells, fidelities, variances, trace, not done


def snapshot_plan(post, level, limits, candidates, epoch=1) -> EpochPlan:
    """The epoch-planning loop with one new snapshot per planned sample.

    Restricts the posterior to the candidates once, then appends every
    planned sample through ``append_sample_variance_only`` and re-reads the
    pick, the max variance and the fidelity switch from each snapshot.
    """
    working = restrict(post, candidates)
    start = np.sqrt(working.max_sigma2())
    samples, trace = [], []
    while True:
        cell = select_next_point(working, candidates)
        sigma = np.sqrt(working.sigma2[working.column_of(cell)])
        samples.append(PlannedSample(cell=cell, fidelity=level, sigma_before=float(sigma)))
        working = append_sample_variance_only(working, cell, level)
        trace.append(working.max_sigma2())
        level = update_fidelity(level, working)
        done = np.sqrt(trace[-1]) <= limits.sigma_ratio * start
        if done or len(samples) >= limits.sample_cap:
            return EpochPlan(
                epoch=epoch,
                samples=tuple(samples),
                n_before=post.n,
                sigma_max_before=float(start),
                sigma_max_after=float(np.sqrt(trace[-1])),
                capped=not done,
                level_after=level,
                max_var_trace=tuple(trace),
            )


def snapshot_decay(config, n_samples: int) -> list[dict]:
    """The uncertainty-decay comparison with one new snapshot per sample.

    Greedy sampling over the whole grid from the prior, through
    ``append_sample_variance_only``, with the fidelity switch (multi) and
    at the top level throughout (single); one row per sample count with the
    max variance before the first sample and after each one.
    """
    domain, model = config.domain, config.model

    def curve(level, switch):
        post = posterior(SampleLog(domain), model)
        candidates = np.arange(domain.n_cells)
        out = [post.max_sigma2()]
        for _ in range(n_samples):
            cell = select_next_point(post, candidates)
            post = append_sample_variance_only(post, cell, level)
            if switch:
                level = update_fidelity(level, post, candidates)
            out.append(post.max_sigma2())
        return out

    return [
        {"n": n, "multi_fidelity_max_var": m, "single_fidelity_max_var": s}
        for n, (m, s) in enumerate(zip(curve(1, True), curve(model.levels, False)))
    ]


def reference_mission(config) -> dict:
    """The mission epoch loop, written plainly from the references.

    Each epoch plans with ``snapshot_plan``, tours each fidelity group over
    every planned sample (``scalar_nearest_neighbor``, then
    ``scalar_two_opt``; legs from ``scalar_dist3``), flies it with one
    clocked move per leg and altitude change and one clocked dwell per
    sample, measures it with ``scalar_measurements``, and classifies every
    cell on its own.  The posterior is the production ``posterior``, because
    ``record_posterior`` agrees with it only to 1e-11.  Returns what a
    ``MissionReport`` records, plus each tour's waypoints and length.
    """
    domain, model = config.domain, config.model
    truth_seed, meas_seed = (int(k) for k in np.random.SeedSequence(config.seed).generate_state(2))
    truth = sample_ground_truth(
        domain, model, truth_seed, config.mode, config.bumps, config.background
    )
    rng = np.random.default_rng(meas_seed)
    n_cells = domain.n_cells
    centers = domain.cell_centers.tolist()
    top = truth.f[-1].tolist()
    level = model.levels if config.baseline == "single-fidelity-only" else 1
    position = config.start or (domain.x_min, domain.y_min, model.z[level - 1])
    limits = config.limits()
    labels, epoch_of, time_of = [int(Label.UNCERTAIN)] * n_cells, [-1] * n_cells, [-1.0] * n_cells
    log = SampleLog(domain)
    clock = 0.0
    post = posterior(log, model)
    candidates = np.arange(n_cells)
    out = {"epochs": [], "plan_rows": [], "tour_rows": [], "tours": []}
    out["decay"] = [(0, float(np.max(post.sigma2[candidates])))]
    out["terminated"] = "epoch-cap"
    for j in range(1, config.max_epochs + 1):
        plan = snapshot_plan(post, level, limits, candidates, epoch=j)
        level = plan.level_after
        n_before = len(log)
        altitude_changes = 0
        order = 0
        for m in sorted({s.fidelity for s in plan.samples}):
            z = float(model.z[m - 1])
            pts3 = [(*centers[s.cell], z) for s in plan.samples if s.fidelity == m]
            start = (float(position[0]), float(position[1]), z)
            visit = scalar_two_opt(start, scalar_nearest_neighbor(start, pts3), pts3)
            waypoints = [pts3[i] for i in visit]
            out["tours"].append((waypoints, scalar_path_length(start, visit, pts3)))
            if position[2] != z:
                clock += abs(z - position[2])
                altitude_changes += 1
            position = start
            for wp in waypoints:
                clock += scalar_dist3(position, wp)
                position = wp
                order += 1
                out["tour_rows"].append((j, order, *wp, clock))
                clock += config.sample_time
            tour = SimpleNamespace(waypoints=waypoints)
            for x, y, value, _ in scalar_measurements([tour], [m], truth, model, rng):
                log.append(log.domain.index_of(x, y), value, m)
        post = posterior(log, model)
        sigma_after = math.sqrt(float(np.max(post.sigma2[candidates])))

        c = math.sqrt(2.0 * math.log(1.0 / (2.0 * (config.delta / 2.0**j))))
        outside = 0
        for i in range(n_cells):
            low = post.mu[i] - c * math.sqrt(post.sigma2[i])
            up = post.mu[i] + c * math.sqrt(post.sigma2[i])
            outside += top[i] < low or top[i] > up
            if labels[i] == Label.UNCERTAIN and (low >= config.th or up < config.th):
                labels[i] = int(Label.TARGET if low >= config.th else Label.EMPTY)
                epoch_of[i], time_of[i] = j, clock
        classified = sum(lab != Label.UNCERTAIN for lab in labels) / n_cells

        for k, s in enumerate(plan.samples):
            out["plan_rows"].append((j, k + 1, *centers[s.cell], s.fidelity, s.sigma_before))
        for k, mv in enumerate(plan.max_var_trace):
            out["decay"].append((n_before + k + 1, mv))
        before = plan.sigma_max_before
        out["epochs"].append(
            EpochRecord(
                epoch=j,
                n_before=n_before,
                n_after=len(log),
                sigma_max_before=before,
                sigma_max_after_pred=plan.sigma_max_after,
                sigma_max_after=sigma_after,
                ratio=sigma_after / before if before > 0 else 0.0,
                capped=plan.capped,
                fidelity_levels=tuple(sorted({s.fidelity for s in plan.samples})),
                altitude_changes=altitude_changes,
                classified_fraction=classified,
                clock=clock,
                coverage_outside=outside,
            )
        )
        candidates = np.array([i for i in range(n_cells) if labels[i] != Label.EMPTY], dtype=int)
        if classified >= config.termination_fraction:
            out["terminated"] = "classified"
            break
    out.update(
        clock_total=clock,
        log=(log.cell_indices(), log.values(), log.fidelities()),
        labels=labels,
        epoch=epoch_of,
        time=time_of,
        posterior_mu=post.mu,
        posterior_sigma2=post.sigma2,
    )
    return out


def scalar_resample_count(prior_var, noise_var, sigma_ratio):
    """Samples of one fixed cell needed to cut its std dev by sigma_ratio.

    Iterates var <- var * s^2 / (var + s^2), the repeated-measurement
    posterior recursion at a single location.
    """
    var = prior_var
    count = 0
    while True:
        var = var * noise_var / (var + noise_var)
        count += 1
        if np.sqrt(var / prior_var) <= sigma_ratio:
            return count


def reference_fmt(value) -> str:
    """Canonical text of one number, as every artifact prints it."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    raise TypeError(f"not a number: {value!r}")


def per_value_json(obj, indent: int = 0) -> str:
    """JSON text of obj, one value at a time (without the final newline).
    An inf or NaN float raises ValueError, as json.dumps(allow_nan=False) does."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        raise ValueError(f"{obj!r} is not JSON compliant")
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return reference_fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {per_value_json(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(per_value_json(v, indent + 1) for v in seq) + "]"
        items = [f"{inner}{per_value_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def per_value_csv(header, rows) -> str:
    """CSV text with each number printed on its own; strings pass through."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def per_value_grid_csv(domain, **columns) -> str:
    """x, y and named-column CSV text of per-cell arrays, one cell at a time."""
    centers = domain.cell_centers
    values = [np.asarray(v) for v in columns.values()]
    rows = (
        (centers[i, 0], centers[i, 1], *(v[i] for v in values)) for i in range(domain.n_cells)
    )
    return per_value_csv(["x", "y", *columns], rows)


def sample_log_lines(X, mrec, var_before, terms) -> list[str]:
    """The samples.log lines, one f-string per record."""
    return [
        f"sample n={i + 1} x={X[i, 0]:.17g} y={X[i, 1]:.17g} "
        f"m={int(mrec[i])} sigma2_before={var_before[i]:.17g} info_gain={terms[i]:.17g}"
        for i in range(len(mrec))
    ]
