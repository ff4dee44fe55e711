"""Covariances of the multi-fidelity GP prior, and synthetic ground-truth fields.

The sensing field over a 2D floor is modeled as a stack of ``M`` independent
GP layers, one per sensing altitude.  Level ``m`` accumulates the layers
``1..m``; the top level ``M`` is the full-fidelity score field used as ground
truth by the simulator.  Lower levels (higher altitudes) see a smoother,
lower-amplitude version of the field.  The grid and the per-level
hyperparameters are ``config.GridDomain`` and ``config.FidelityModel``.
Every covariance that inference reads comes from one cached table over cell
offsets per (domain, model), ``covariance_tables``: the running sum of the
layer kernels, whose rows ``covariance_rows`` gathers.  On the grid a
layer's kernel is v_m^2 K_y (x) K_x, the Kronecker product of the
squared-exponential correlations along the rows and along the columns, so
the prior draw factors the two R x R axis correlations and never the n x n
kernel (Saatci 2011, ch. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._linalg import jittered_cholesky
from ._np import np
from .config import Bump, FidelityModel, GridDomain, _check_int, _check_truth_inputs


def kernel_eval(m: int, x, xp, model: FidelityModel):
    """Squared-exponential kernel of layer m: v_m^2 exp(-|x-x'|^2 / (2 l_m^2)).

    ``x`` and ``xp`` are arrays of shape (..., 2) and broadcast together.
    """
    model._check_level(m)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    diff = x - xp
    d2 = np.sum(diff * diff, axis=-1)
    vm = model.v[m - 1]
    lm = model.l[m - 1]
    return vm * vm * np.exp(-d2 / (2.0 * lm * lm))


@lru_cache(maxsize=8)
def covariance_tables(domain: GridDomain, model: FidelityModel) -> np.ndarray:
    """(M, 2R-1, 2R-1) read-only table of covariances over cell offsets.

    [t, R-1+dr, R-1+dc] is the sum of the layers 1..t+1's kernels between
    two cell centers dr rows and dc columns apart (either sign): the
    covariance of records at levels ma and mb with t = min(ma, mb) - 1, and
    t = M-1 gives the full field.

    Flat, cell (r, c)'s R x R grid in table [t] starts (R-1-r)(2R-1) +
    R-1-c places after [t, 0, 0], and the cell (r', c') lies r'(2R-1) + c'
    places after that start.
    """
    R = domain.resolution
    offset = np.abs(np.arange(1 - R, R))
    gx, gy = np.meshgrid(offset * domain.cell_dx, offset * domain.cell_dy)
    offsets = np.stack([gx, gy], axis=-1)  # [R-1+dr, R-1+dc] -> (|dc| dx, |dr| dy)
    layers = np.array([kernel_eval(m, offsets, 0.0, model) for m in range(1, model.levels + 1)])
    table = np.cumsum(layers, axis=0)
    table.setflags(write=False)
    return table


def covariance_rows(domain: GridDomain, model: FidelityModel, cells, levels) -> np.ndarray:
    """(len(cells), n_cells) covariances of the records at the flat cell
    indices ``cells`` and the levels ``levels`` with the full field at every
    cell.  A record's row is its cell's R x R window of the level's table in
    ``covariance_tables``, read through a sliding-window view: each gather
    copies R rows of R contiguous entries and computes nothing."""
    R = domain.resolution
    table = covariance_tables(domain, model)
    view = np.lib.stride_tricks.sliding_window_view(table, (R, R), axis=(1, 2))[:, ::-1, ::-1]
    rows, cols = np.divmod(cells, R)
    return view[levels - 1, rows, cols].reshape(len(cells), R * R)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Synthetic per-level score fields over the grid.

    ``f`` has shape (M, n_cells) with level m stored at row m-1.  Compares
    and hashes by identity, as every record that holds arrays does.
    """

    domain: GridDomain
    f: np.ndarray

    def level_field(self, m: int) -> np.ndarray:
        _check_int("fidelity level", m, 1, len(self.f))
        return self.f[m - 1]

    def target_mask(self, th: float) -> np.ndarray:
        """Cells whose full-fidelity score reaches the detection threshold."""
        return self.f[-1] >= th


def _gaussian_blur(grid: np.ndarray, sigmas: tuple[float, float]) -> np.ndarray:
    """Separable Gaussian blur of a 2D grid with mirrored edges, by sigmas[a]
    cells along axis a.

    Along an axis the kernel is exp(-x^2 / (2 sigma^2)) on x = -r..r,
    r = int(4 sigma + 0.5), normalised to sum 1; at r = 0 it is the one tap
    1, so the axis is left as it is (sigma^2 may underflow there).  Each
    axis (0, then 1) is padded by reflection (edge cells repeated) and
    summed as the center term, then each symmetric pair of taps, farthest
    pair first.  That order reproduces scipy.ndimage.gaussian_filter(grid,
    sigmas) bit for bit.
    """
    out = np.asarray(grid, dtype=float)
    for axis, sigma in enumerate(sigmas):
        r = int(4.0 * sigma + 0.5)
        if r == 0:
            continue
        phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
        w = (phi / phi.sum())[r:]
        p = np.pad(np.moveaxis(out, axis, 0), [(r, r), (0, 0)], mode="symmetric")
        size = p.shape[0] - 2 * r
        acc = p[r : r + size] * w[0]
        for j in range(r, 0, -1):
            acc += (p[r - j : r - j + size] + p[r + j : r + j + size]) * w[j]
        out = np.moveaxis(acc, 0, axis)
    return out


def sample_ground_truth(
    domain: GridDomain,
    model: FidelityModel,
    seed: int,
    mode: str = "prior-draw",
    bumps: tuple[Bump, ...] = (),
    background: float = 0.0,
) -> GroundTruth:
    """Generate the deterministic synthetic ground truth of one seed.

    prior-draw: every layer is an exact joint GP draw over the grid (mean
    mu_m, layer kernel), accumulated across levels.  Layer m's kernel is
    v_m^2 K_y (x) K_x, so with L_y and L_x the jittered Cholesky factors of
    the unit-amplitude R x R correlations along the rows (spacing
    ``cell_dy``) and the columns (``cell_dx``), the layer is mu_m +
    v_m L_y Z L_x^T for Z the seed's n normals in row-major order: the
    seed's generator yields its level-1 normals, then its level-2 normals,
    and so on.  planted: the top-level field is a configured sum of radial
    bumps plus a background; lower levels are Gaussian blurs of it with blur
    radius proportional to their length scale, the same in metres along
    both axes, so coarser levels are smoother.  The seed is unused.  Inputs
    that ``_check_truth_inputs`` refuses raise ValueError before any work.
    """
    _check_truth_inputs(domain, model, mode, bumps, background)
    M = model.levels
    n = domain.n_cells
    R = domain.resolution
    f = np.empty((M, n))
    if mode == "planted":
        centers = domain.cell_centers
        top = np.full(n, float(background))
        for b in bumps:
            dx, dy = centers[:, 0] - b.x, centers[:, 1] - b.y
            d2 = dx * dx + dy * dy
            top += b.amplitude * np.exp(-d2 / (2.0 * b.radius * b.radius))
        f[M - 1] = top
        for m in range(M - 1, 0, -1):
            sigmas = (model.l[m - 1] / domain.cell_dy, model.l[m - 1] / domain.cell_dx)
            f[m - 1] = _gaussian_blur(top.reshape(R, R), sigmas).ravel()
    else:
        offset = np.subtract.outer(np.arange(R), np.arange(R))
        rng = np.random.default_rng(seed)
        for m in range(1, M + 1):
            scale = 2.0 * (model.l[m - 1] * model.l[m - 1])
            L_y, L_x = (
                jittered_cholesky(np.exp(-np.square(offset * h) / scale))[0]
                for h in (domain.cell_dy, domain.cell_dx)
            )
            below = f[m - 2] if m > 1 else 0.0
            Z = rng.standard_normal(n).reshape(R, R)
            f[m - 1] = below + (model.mu[m - 1] + model.v[m - 1] * (L_y @ Z @ L_x.T).ravel())
    f.setflags(write=False)
    return GroundTruth(domain=domain, f=f)


def measure_cells(truth: GroundTruth, cells, m: int, model: FidelityModel, rng) -> np.ndarray:
    """Noisy observations of the level-m field at the flat cell indices
    ``cells``: the truth there plus one noise draw per cell, in order, from
    one ``rng.normal`` call (the stream of one scalar draw per cell)."""
    model._check_level(m)
    return truth.level_field(m)[cells] + rng.normal(0.0, model.s[m - 1], size=len(cells))

