"""The config schema: what a valid mission config is, and its flat keys.

The config dataclasses (the grid, the multi-fidelity prior, the planted
bumps, the planner's limits, the confidence parameters and the mission)
check their own inputs.  Their float, int and str fields are the keys of the
flat ``section.key = value`` text (``_config_fields``): ``resolve_config``
reads them and ``MissionConfig.to_flat_dict`` writes them.  The module loads
no numpy; the array members (``GridDomain.cell_centers``,
``FidelityModel._moments``) read it from ``_np`` on first use.
"""

import json
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import get_args

MAX_EXACT_CELLS = 10_000


def _is_int(value) -> bool:
    """The one integer rule of levels and int fields: an int or a numpy
    integer (``numbers.Integral``), never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not all(math.isfinite(v) for v in (self.x_min, self.x_max, self.y_min, self.y_max)):
            raise ValueError("domain extents must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("domain extents must satisfy x_max > x_min and y_max > y_min")
        if not (_is_int(self.resolution) and self.resolution >= 1):
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
    def cell_centers(self):
        """(n_cells, 2) read-only array of cell-center coordinates, row-major."""
        from ._np import np

        xs = self.x_min + (np.arange(self.resolution) + 0.5) * self.cell_dx
        ys = self.y_min + (np.arange(self.resolution) + 0.5) * self.cell_dy
        gx, gy = np.meshgrid(xs, ys)  # row-major: y varies by row
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        centers.setflags(write=False)
        return centers

    def index_of(self, x: float, y: float) -> int:
        """Cell index of a point that must lie on a cell center."""
        dx, dy, R = self.cell_dx, self.cell_dy, self.resolution
        col = int(round((x - self.x_min) / dx - 0.5))
        row = int(round((y - self.y_min) / dy - 0.5))
        if not (0 <= col < R and 0 <= row < R):
            raise ValueError(f"point ({x}, {y}) outside the domain grid")
        i = row * R + col
        cx, cy = self.cell_centers[i].tolist()
        tol = 1e-9 * max(self.side, 1.0)
        if abs(cx - x) > tol or abs(cy - y) > tol:
            raise ValueError(f"point ({x}, {y}) is not a cell center")
        return i


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class FidelityModel:
    """Per-level hyperparameters of the autoregressive GP stack.

    Level arrays are indexed 1..M in the API (level 1 = highest altitude =
    lowest fidelity) and are stored as tuples, so a model built from lists
    hashes and compares like one built from tuples.  Amplitudes, length
    scales, and altitudes must be strictly decreasing with the level index;
    noise must be positive, and no l_m^2 or s_m^2 may underflow.
    """

    mu: tuple[float, ...]
    v: tuple[float, ...]
    l: tuple[float, ...]
    s: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        for name in ("mu", "v", "l", "s", "z"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        M = len(self.v)
        if M < 1:
            raise ValueError("need at least one fidelity level")
        for name in ("mu", "l", "s", "z"):
            if len(getattr(self, name)) != M:
                raise ValueError(f"level arrays disagree in length: {name}")
        if not all(map(math.isfinite, (*self.mu, *self.v, *self.l, *self.s, *self.z))):
            raise ValueError("model parameters must be finite")
        if any(x <= 0 for x in self.v) or not _decreasing(self.v):
            raise ValueError("kernel amplitudes v must be positive and strictly decreasing")
        if any(x <= 0 for x in self.l) or not _decreasing(self.l):
            raise ValueError("length scales l must be positive and strictly decreasing")
        if any(x <= 0 for x in self.z) or not _decreasing(self.z):
            raise ValueError("altitudes z must be positive and strictly decreasing")
        if any(x <= 0 for x in self.s):
            raise ValueError("noise levels s must be positive")
        for what, xs in (("length scale l", self.l), ("noise level s", self.s)):
            for m, x in enumerate(xs, start=1):
                if x * x < sys.float_info.min:
                    raise ValueError(
                        f"{what}_{m} = {x!r}: its square underflows (below sys.float_info.min)"
                    )

    @property
    def levels(self) -> int:
        return len(self.v)

    @cached_property
    def _moments(self):
        """(3, M+1) read-only table: column m holds level m's prior mean (sum
        of mu_i for i <= m), prior variance (sum of v_i^2) and noise variance
        s_m^2; column 0 is unused.  The sums run left to right (``np.cumsum``)
        on every Python version."""
        from ._np import np

        table = np.zeros((3, self.levels + 1))
        table[:, 1:] = np.cumsum(self.mu), np.cumsum(np.square(self.v)), np.square(self.s)
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
        total = 0.0  # left to right: builtin sum() is compensated from Python 3.12 on
        for vi in self.v[level:]:
            total += vi * vi
        return total

    def switch_threshold(self, level: int) -> float:
        """Accessible uncertainty (max posterior variance minus
        ``inaccessible_variance(level)``) at or below which the fidelity
        switch advances past ``level``: l_{m+1}^2/l_m^2 * v_{m+1}^2 at m = level."""
        self._check_level(level)
        if level >= self.levels:
            raise ValueError("no switch threshold at the top fidelity level")
        lm, ln = self.l[level - 1], self.l[level]
        return (ln * ln) / (lm * lm) * (self.v[level] * self.v[level])

    def _check_level(self, m: int):
        _check_fidelity_level(m, self.levels)


def _check_fidelity_level(m: int, levels: int):
    """ValueError naming ``m`` unless it is an integer (``_is_int``) in 1..levels."""
    if not _is_int(m):
        raise ValueError(f"fidelity level {m} is not an integer")
    if not 1 <= m <= levels:
        raise ValueError(f"fidelity level {m} out of range [1, {levels}]")


@dataclass(frozen=True)
class Bump:
    """Radial score bump for planted ground truth: a*exp(-d^2/(2 r^2))."""

    x: float
    y: float
    amplitude: float
    radius: float


def _check_truth_inputs(domain: GridDomain, mode: str, bumps: tuple[Bump, ...], background: float):
    """ValueError for a ground truth ``sample_ground_truth`` does not draw:
    a grid over MAX_EXACT_CELLS, an unknown mode, a bump radius that is not
    positive, a bump or background that is not finite, or a bump or a
    non-zero background outside planted mode, which would go unused."""
    if domain.n_cells > MAX_EXACT_CELLS:
        raise ValueError(
            f"grid has {domain.n_cells} cells; the posterior is exact over every cell, "
            f"so a grid is capped at {MAX_EXACT_CELLS}"
        )
    modes = ("prior-draw", "planted")
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}")
    if any(not b.radius > 0.0 for b in bumps):
        raise ValueError("bump radius must be positive")
    values = [background, *(v for b in bumps for v in (b.x, b.y, b.amplitude, b.radius))]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("bumps and background must be finite")
    if mode != "planted" and (bumps or background != 0.0):
        raise ValueError(f"bumps and background apply in planted mode only, not in {mode}")


@dataclass(frozen=True)
class PlanLimits:
    sigma_ratio: float = 0.75
    sample_cap: int = 200

    def __post_init__(self):
        if not 0.0 < self.sigma_ratio <= 1.0:
            raise ValueError("sigma_ratio must be in (0, 1]")
        if not _is_int(self.sample_cap):
            raise ValueError(f"sample_cap must be an integer, got {self.sample_cap}")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be positive")


@dataclass(frozen=True)
class ConfidenceParams:
    """Misclassification tolerance and detection threshold."""

    delta: float
    th: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if not math.isfinite(self.th):
            raise ValueError("th must be finite")

    @property
    def last_epoch(self) -> int:
        """The last epoch j whose tolerance delta / 2^j is a normal float (at
        least ``sys.float_info.min``): 1018 at delta = 0.1."""
        return math.frexp(self.delta)[1] - sys.float_info.min_exp

    def epsilon(self, epoch: int) -> float:
        """Per-epoch tolerance delta / 2^j; halves every epoch."""
        if epoch < 1:
            raise ValueError("epoch index starts at 1")
        if epoch > self.last_epoch:
            raise ValueError(
                f"epoch {epoch}: the tolerance delta / 2^{epoch} underflows "
                f"(the last epoch at delta={self.delta!r} is {self.last_epoch})"
            )
        return math.ldexp(self.delta, -epoch)


BASELINES = ("multi-fidelity", "single-fidelity-only")
_START_KEYS = ("mission.start_x", "mission.start_y", "mission.start_z")


def _config_fields(cls, section: str, level: int | None = None):
    """Yield (key, field, type) for the float, int and str fields of a config dataclass.

    The key is ``section.<name>``, or ``section.<name>_<level>`` with the element
    type for the per-level tuples of FidelityModel.  A field whose metadata
    names a section is walked under that section only, and alone.
    """
    marked = [f for f in fields(cls) if f.metadata.get("section") == section]
    for f in marked or [f for f in fields(cls) if "section" not in f.metadata]:
        typ = f.type if level is None else get_args(f.type)[0]
        if typ in (float, int, str):
            yield f"{section}.{f.name}" + ("" if level is None else f"_{level}"), f, typ


@dataclass(frozen=True)
class MissionConfig:
    """One mission; its float, int and str fields are config keys (``_config_fields``)."""

    domain: GridDomain
    model: FidelityModel
    delta: float
    th: float
    seed: int = 0
    mode: str = "prior-draw"
    baseline: str = "multi-fidelity"
    epoch_sample_cap: int = PlanLimits.sample_cap
    max_epochs: int = 30
    sigma_ratio: float = PlanLimits.sigma_ratio
    sample_time: float = 1.0
    termination_fraction: float = 0.99
    bumps: tuple[Bump, ...] = ()
    background: float = field(default=0.0, metadata={"section": "planted"})
    start: tuple[float, float, float] | None = None

    def __post_init__(self):
        # stored as tuples, so a config built from lists hashes and compares like one built from tuples
        object.__setattr__(self, "bumps", tuple(self.bumps))
        if self.start is not None:
            object.__setattr__(self, "start", tuple(float(x) for x in self.start))
        self.params()  # delta in (0, 1/2), th finite
        for name, least in (("seed", 0), ("max_epochs", 1), ("epoch_sample_cap", 1)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        last = self.params().last_epoch
        if self.max_epochs > last:
            raise ValueError(
                f"max_epochs must be at most {last} at delta={self.delta!r}: the last "
                "epoch's tolerance delta / 2^max_epochs is below sys.float_info.min"
            )
        _check_truth_inputs(self.domain, self.mode, self.bumps, self.background)
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        self.limits()  # sigma_ratio in (0, 1]
        if not 0.0 <= self.sample_time < math.inf:
            raise ValueError("sample_time must be non-negative and finite")
        if not 0.0 < self.termination_fraction <= 1.0:
            raise ValueError("termination_fraction must be in (0, 1]")
        if self.start is not None:
            if len(self.start) != 3:
                raise ValueError("start must be (x, y, z)")
            if not all(math.isfinite(v) for v in self.start):
                raise ValueError("start must be finite")
            d = self.domain
            if not (d.x_min <= self.start[0] <= d.x_max and d.y_min <= self.start[1] <= d.y_max):
                raise ValueError(f"start {self.start[:2]} lies outside the domain")
            if self.start[2] < 0.0:
                raise ValueError(f"start altitude {self.start[2]} lies below the floor (z = 0)")

    @property
    def initial_level(self) -> int:
        return self.model.levels if self.baseline == "single-fidelity-only" else 1

    def start_position(self) -> tuple[float, float, float]:
        if self.start is not None:
            return self.start
        return (self.domain.x_min, self.domain.y_min, self.model.z[self.initial_level - 1])

    def limits(self) -> PlanLimits:
        return PlanLimits(sigma_ratio=self.sigma_ratio, sample_cap=self.epoch_sample_cap)

    def params(self) -> ConfidenceParams:
        return ConfidenceParams(delta=self.delta, th=self.th)

    def to_flat_dict(self) -> dict:
        """The flat ``section.key`` values that ``resolve_config`` reads back."""
        d = {}

        def put(obj, section, level=None):
            for key, f, _ in _config_fields(type(obj), section, level):
                value = getattr(obj, f.name)
                d[key] = value if level is None else value[level - 1]

        put(self.domain, "domain")
        d["model.levels"] = self.model.levels
        for m in range(1, self.model.levels + 1):
            put(self.model, "model", m)
        put(self, "mission")
        if self.start is not None:
            d.update(zip(_START_KEYS, self.start))
        if self.mode == "planted":
            put(self, "planted")
            d["planted.bumps"] = len(self.bumps)
            for k, b in enumerate(self.bumps, start=1):
                put(b, f"planted.bump_{k}")
        return d


class ConfigError(Exception):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; raises ConfigError with the line number."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _get(kv: dict, key: str, cast, default=MISSING):
    """Cast and remove ``kv[key]``, so the keys ``resolve_config`` leaves are the unread ones."""
    if key not in kv:
        if default is not MISSING:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    try:
        return cast(kv.pop(key))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _as_int(v: str) -> int:
    """An integer literal exactly, or a whole float literal such as "3.0"."""
    try:
        return int(v)
    except ValueError:
        f = float(v)
    if not (math.isfinite(f) and f == int(f)):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(f)


_CASTS = {float: float, int: _as_int, str: str}
# bench.<name>: (default, smallest allowed value)
_BENCH_KEYS = {"samples": (80, 0), "seeds": (30, 1), "delta_bins": (3, 1)}


def _at_least(key: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"config key {key!r}: must be >= {low}")
    return value


def _read(kv: dict, cls, section: str, level: int | None = None) -> dict:
    """Field values of a config dataclass from its keys, cast and defaulted by its fields."""
    return {
        f.name: _get(kv, key, _CASTS[typ], f.default)
        for key, f, typ in _config_fields(cls, section, level)
    }


def resolve_config(kv: dict) -> tuple[MissionConfig, dict]:
    """Build a MissionConfig (and bench settings) from flat key-values; refuse a key left unread."""
    kv = {str(k): str(v) for k, v in kv.items()}
    domain = GridDomain(**_read(kv, GridDomain, "domain"))
    levels = _at_least("model.levels", _get(kv, "model.levels", _as_int), 1)
    rows = [_read(kv, FidelityModel, "model", m) for m in range(1, levels + 1)]
    try:
        model = FidelityModel(**{name: tuple(r[name] for r in rows) for name in rows[0]})
    except ValueError as exc:
        raise ConfigError(f"model block: {exc}") from exc
    n_bumps = _at_least("planted.bumps", _get(kv, "planted.bumps", _as_int, default=0), 0)
    bumps = tuple(Bump(**_read(kv, Bump, f"planted.bump_{k}")) for k in range(1, n_bumps + 1))
    start = None
    if any(key in kv for key in _START_KEYS):
        start = tuple(_get(kv, key, float) for key in _START_KEYS)
    try:
        config = MissionConfig(
            domain=domain,
            model=model,
            **_read(kv, MissionConfig, "mission"),
            **_read(kv, MissionConfig, "planted"),
            bumps=bumps,
            start=start,
        )
    except ValueError as exc:
        raise ConfigError(f"mission block: {exc}") from exc
    bench = {
        name: _at_least(f"bench.{name}", _get(kv, f"bench.{name}", _as_int, default), low)
        for name, (default, low) in _BENCH_KEYS.items()
    }
    if kv:
        raise ConfigError(f"unknown config key {next(iter(kv))!r}")
    return config, bench


def load_config(path: Path) -> dict[str, str]:
    """Read a flat config file, or the resolved block of a manifest.json."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if path.suffix == ".json":
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ConfigError(f"{path}: manifest is not a JSON object")
        if "resolved" not in manifest:
            raise ConfigError(f"{path}: manifest has no 'resolved' config block")
        if not isinstance(manifest["resolved"], dict):
            raise ConfigError(f"{path}: manifest's 'resolved' block is not a JSON object")
        return {str(k): str(v) for k, v in manifest["resolved"].items()}
    return parse_config_text(text)


def apply_overrides(kv: dict[str, str], sets: list[str], seed: int | None) -> dict[str, str]:
    out = dict(kv)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    if seed is not None:
        out["mission.seed"] = str(seed)
    return out
