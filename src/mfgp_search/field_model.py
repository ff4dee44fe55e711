"""Search domain, multi-fidelity GP prior, and synthetic ground-truth fields.

The sensing field over a 2D floor is modeled as a stack of ``M`` independent
GP layers, one per sensing altitude.  Level ``m`` accumulates the layers
``1..m``; the top level ``M`` is the full-fidelity score field used as ground
truth by the simulator.  Lower levels (higher altitudes) see a smoother,
lower-amplitude version of the field.  Every covariance between two cell
centers, in the prior draw and in inference, is read through the window
view (``offset_windows``) of one cached per-layer offset table.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import jittered_cholesky

MAX_EXACT_CELLS = 10_000


@dataclass(frozen=True)
class GridDomain:
    """Uniform cell grid over the rectangle [x_min, x_max] x [y_min, y_max].

    Cells are indexed row-major: index ``i`` maps to row ``i // resolution``
    (the y axis) and column ``i % resolution`` (the x axis).
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max])):
            raise ValueError("domain extents must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("domain extents must satisfy x_max > x_min and y_max > y_min")
        if self.resolution < 1:
            raise ValueError("resolution must be a positive integer")

    @property
    def n_cells(self) -> int:
        return self.resolution * self.resolution

    @property
    def cell_dx(self) -> float:
        return (self.x_max - self.x_min) / self.resolution

    @property
    def cell_dy(self) -> float:
        return (self.y_max - self.y_min) / self.resolution

    @property
    def side(self) -> float:
        return max(self.x_max - self.x_min, self.y_max - self.y_min)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """(n_cells, 2) array of cell-center coordinates, row-major."""
        xs = self.x_min + (np.arange(self.resolution) + 0.5) * self.cell_dx
        ys = self.y_min + (np.arange(self.resolution) + 0.5) * self.cell_dy
        gx, gy = np.meshgrid(xs, ys)  # row-major: y varies by row
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        centers.setflags(write=False)
        return centers

    def cell_center(self, i: int) -> tuple[float, float]:
        if not 0 <= i < self.n_cells:
            raise ValueError(f"cell index {i} out of range [0, {self.n_cells})")
        row, col = divmod(i, self.resolution)
        return (
            self.x_min + (col + 0.5) * self.cell_dx,
            self.y_min + (row + 0.5) * self.cell_dy,
        )

    def index_of(self, x: float, y: float) -> int:
        """Cell index of a point that must lie on a cell center."""
        dx, dy, R = self.cell_dx, self.cell_dy, self.resolution
        col = int(round((x - self.x_min) / dx - 0.5))
        row = int(round((y - self.y_min) / dy - 0.5))
        if not (0 <= col < R and 0 <= row < R):
            raise ValueError(f"point ({x}, {y}) outside the domain grid")
        # cell_center's expression, without its range check.
        cx = self.x_min + (col + 0.5) * dx
        cy = self.y_min + (row + 0.5) * dy
        tol = 1e-9 * max(self.side, 1.0)
        if abs(cx - x) > tol or abs(cy - y) > tol:
            raise ValueError(f"point ({x}, {y}) is not a cell center")
        return row * R + col


@dataclass(frozen=True)
class FidelityModel:
    """Per-level hyperparameters of the autoregressive GP stack.

    Level arrays are indexed 1..M in the API (level 1 = highest altitude =
    lowest fidelity).  Amplitudes, length scales, and altitudes must be
    strictly decreasing with the level index; noise must be positive.
    """

    mu: tuple[float, ...]
    v: tuple[float, ...]
    l: tuple[float, ...]
    s: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        M = len(self.v)
        if M < 1:
            raise ValueError("need at least one fidelity level")
        for name in ("mu", "l", "s", "z"):
            if len(getattr(self, name)) != M:
                raise ValueError(f"level arrays disagree in length: {name}")
        if not np.all(np.isfinite([self.mu, self.v, self.l, self.s, self.z])):
            raise ValueError("model parameters must be finite")
        if any(x <= 0 for x in self.v) or any(np.diff(self.v) >= 0):
            raise ValueError("kernel amplitudes v must be positive and strictly decreasing")
        if any(x <= 0 for x in self.l) or any(np.diff(self.l) >= 0):
            raise ValueError("length scales l must be positive and strictly decreasing")
        if any(x <= 0 for x in self.z) or any(np.diff(self.z) >= 0):
            raise ValueError("altitudes z must be positive and strictly decreasing")
        if any(x <= 0 for x in self.s):
            raise ValueError("noise levels s must be positive")

    @property
    def levels(self) -> int:
        return len(self.v)

    @cached_property
    def _moments(self) -> np.ndarray:
        """(3, M+1) read-only table: column m holds level m's prior mean (sum
        of mu_i for i <= m), prior variance (sum of v_i^2) and noise variance
        s_m^2; column 0 is unused.  The sums run left to right (``np.cumsum``)
        on every Python version, and the noise keeps Python's ``s ** 2``."""
        table = np.zeros((3, self.levels + 1))
        table[:, 1:] = np.cumsum(self.mu), np.cumsum(np.square(self.v)), [s**2 for s in self.s]
        table.setflags(write=False)
        return table

    def prior_mean(self) -> float:
        return float(self._moments[0, -1])

    def prior_variance(self, level: int | None = None) -> float:
        """Prior variance of the level-m field: sum of v_i^2 for i <= m."""
        m = self.levels if level is None else level
        self._check_level(m)
        return float(self._moments[1, m])

    def inaccessible_variance(self, level: int) -> float:
        """Variance contributed by layers above ``level`` (zero at the top)."""
        self._check_level(level)
        return float(sum(vi * vi for vi in self.v[level:]))

    def _check_level(self, m: int):
        if not 1 <= m <= self.levels:
            raise ValueError(f"fidelity level {m} out of range [1, {self.levels}]")


def kernel_eval(m: int, x, xp, model: FidelityModel):
    """Squared-exponential kernel of layer m: v_m^2 exp(-|x-x'|^2 / (2 l_m^2)).

    ``x`` and ``xp`` are arrays of shape (..., 2) and broadcast together.
    """
    model._check_level(m)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d2 = np.sum((x - xp) ** 2, axis=-1)
    vm = model.v[m - 1]
    lm = model.l[m - 1]
    return vm * vm * np.exp(-d2 / (2.0 * lm * lm))


@lru_cache(maxsize=8)
def offset_table(domain: GridDomain, model: FidelityModel) -> np.ndarray:
    """(M, R, R) read-only table: [i, dr, dc] is layer i+1's kernel between
    two cell centers dr rows and dc columns apart."""
    R = domain.resolution
    gx, gy = np.meshgrid(np.arange(R) * domain.cell_dx, np.arange(R) * domain.cell_dy)
    offsets = np.stack([gx, gy], axis=-1)  # [dr, dc] -> (dc * dx, dr * dy)
    table = np.array([kernel_eval(m, offsets, 0.0, model) for m in range(1, model.levels + 1)])
    table.setflags(write=False)
    return table


def offset_windows(table: np.ndarray) -> np.ndarray:
    """(M, R, R, R, R) read-only view of an (M, R, R) offset table: [t, r, c]
    is table t between the cell (r, c) and every cell, as an R x R grid.

    The view holds R x R windows of the table reflected about the zero
    offset on both axes, an (M, 2R-1, 2R-1) array, so gathering a cell's
    grid copies R rows of R contiguous entries and computes nothing.
    """
    R = table.shape[-1]
    offset = np.abs(np.arange(1 - R, R))
    reflected = table[:, offset[:, None], offset]
    windows = np.lib.stride_tricks.sliding_window_view(reflected, (R, R), axis=(1, 2))
    return windows[:, ::-1, ::-1]


@dataclass(frozen=True)
class Bump:
    """Radial score bump for planted ground truth: a*exp(-d^2/(2 r^2))."""

    x: float
    y: float
    amplitude: float
    radius: float


@dataclass(frozen=True)
class GroundTruth:
    """Synthetic per-level score fields over the grid.

    ``f`` has shape (M, n_cells) with level m stored at row m-1.
    """

    domain: GridDomain
    f: np.ndarray

    def level_field(self, m: int) -> np.ndarray:
        if not 1 <= m <= len(self.f):
            raise ValueError(f"fidelity level {m} out of range [1, {len(self.f)}]")
        return self.f[m - 1]

    def value_at(self, x: float, y: float, m: int) -> float:
        return float(self.level_field(m)[self.domain.index_of(x, y)])

    def target_mask(self, th: float) -> np.ndarray:
        """Cells whose full-fidelity score reaches the detection threshold."""
        return self.f[-1] >= th


def _gaussian_blur(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2D grid with mirrored edges.

    The kernel is exp(-x^2 / (2 sigma^2)) on x = -r..r, r = int(4 sigma + 0.5),
    normalised to sum 1.  Each axis (0, then 1) is padded by reflection
    (edge cells repeated) and summed as the center term, then each symmetric
    pair of taps, farthest pair first.  That order reproduces
    scipy.ndimage.gaussian_filter(grid, sigma) bit for bit.
    """
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (phi / phi.sum())[r:]
    out = np.asarray(grid, dtype=float)
    for axis in (0, 1):
        p = np.pad(np.moveaxis(out, axis, 0), [(r, r), (0, 0)], mode="symmetric")
        size = p.shape[0] - 2 * r
        acc = p[r : r + size] * w[0]
        for j in range(r, 0, -1):
            acc += (p[r - j : r - j + size] + p[r + j : r + j + size]) * w[j]
        out = np.moveaxis(acc, 0, axis)
    return out


@lru_cache(maxsize=8)
def _level_cholesky(domain: GridDomain, model: FidelityModel, m: int):
    # a fresh C-ordered copy, so (n, n) is a view of it that takes the jitter in place
    K = np.array(offset_windows(offset_table(domain, model)[m - 1 : m])[0], order="C")
    L, _ = jittered_cholesky(K.reshape(domain.n_cells, domain.n_cells))
    return L


def _check_truth_inputs(domain: GridDomain, mode: str, bumps: tuple[Bump, ...], background: float):
    """ValueError for a ground truth ``sample_ground_truth`` does not draw:
    a grid over MAX_EXACT_CELLS, an unknown mode, a bump radius that is not
    positive, or a bump or background that is not finite."""
    if domain.n_cells > MAX_EXACT_CELLS:
        raise ValueError(
            f"grid has {domain.n_cells} cells; exact joint draws are guarded at {MAX_EXACT_CELLS}"
        )
    modes = ("prior-draw", "planted")
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}")
    if any(not b.radius > 0.0 for b in bumps):
        raise ValueError("bump radius must be positive")
    values = [background, *(v for b in bumps for v in (b.x, b.y, b.amplitude, b.radius))]
    if not np.all(np.isfinite(values)):
        raise ValueError("bumps and background must be finite")


def sample_ground_truth(
    domain: GridDomain,
    model: FidelityModel,
    seed: int,
    mode: str = "prior-draw",
    bumps: tuple[Bump, ...] = (),
    background: float = 0.0,
) -> GroundTruth:
    """Generate a deterministic synthetic ground truth.

    prior-draw: every layer is an exact joint GP draw over the grid (mean
    mu_m, layer kernel), accumulated across levels.  planted: the top-level
    field is a configured sum of radial bumps plus a background; lower levels
    are Gaussian blurs of it with blur radius proportional to their length
    scale, so coarser levels are smoother.  Inputs that
    ``_check_truth_inputs`` refuses raise ValueError before any work.
    """
    _check_truth_inputs(domain, mode, bumps, background)
    M = model.levels
    n = domain.n_cells
    f = np.empty((M, n))
    if mode == "prior-draw":
        rng = np.random.default_rng(seed)
        acc = np.zeros(n)
        for m in range(1, M + 1):
            L = _level_cholesky(domain, model, m)
            draw = model.mu[m - 1] + L @ rng.standard_normal(n)
            acc = acc + draw
            f[m - 1] = acc
    else:
        centers = domain.cell_centers
        top = np.full(n, float(background))
        for b in bumps:
            d2 = (centers[:, 0] - b.x) ** 2 + (centers[:, 1] - b.y) ** 2
            top += b.amplitude * np.exp(-d2 / (2.0 * b.radius * b.radius))
        f[M - 1] = top
        res = domain.resolution
        for m in range(M - 1, 0, -1):
            sigma_cells = model.l[m - 1] / domain.cell_dx
            blurred = _gaussian_blur(top.reshape(res, res), sigma_cells)
            f[m - 1] = blurred.ravel()
    f.setflags(write=False)
    return GroundTruth(domain=domain, f=f)


def measure(truth: GroundTruth, x: float, y: float, m: int, model: FidelityModel, rng) -> float:
    """One noisy observation of the level-m field at a cell center."""
    model._check_level(m)
    value = truth.value_at(x, y, m)
    return value + rng.normal(0.0, model.s[m - 1])


def field_to_grid(domain: GridDomain, values: np.ndarray) -> np.ndarray:
    """Reshape a row-major cell vector to a (resolution, resolution) grid."""
    return np.asarray(values).reshape(domain.resolution, domain.resolution)
