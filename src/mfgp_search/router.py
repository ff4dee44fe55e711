"""Measurement tours and mission time accounting.

Each epoch's sampling points are grouped by fidelity level and visited along
one open tour per level (nearest-neighbor construction, then 2-opt).  The
vehicle moves at unit speed in 3D, changes altitude vertically between
fidelity groups, and spends a fixed sampling time at each waypoint.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .field_model import FidelityModel, GroundTruth, measure
from .inference import SampleLog
from .planner import EpochPlan

_IMPROVE_EPS = 1e-12  # minimum 2-opt gain; guards against float cycling


def _dist3(a, b) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


@dataclass(frozen=True)
class Tour:
    """Open tour from the vehicle position through every planned point once."""

    start: tuple[float, float, float]
    waypoints: tuple[tuple[float, float, float], ...]
    length: float

    @property
    def end(self) -> tuple[float, float, float]:
        return self.waypoints[-1] if self.waypoints else self.start


def _path_length(start, order, pts3) -> float:
    total = 0.0
    prev = start
    for i in order:
        total += _dist3(prev, pts3[i])
        prev = pts3[i]
    return total


def _axis_squares(coords: np.ndarray) -> np.ndarray:
    """Squared pairwise differences along one axis, bit-identical to ``(a - b) ** 2``.

    Python's ``**`` goes through libm ``pow``, which differs from ``d * d`` in
    the last bit for a fraction of inputs; squaring the few distinct
    differences with ``**`` keeps the matrix on the same bits as ``_dist3``.
    """
    uniq, inv = np.unique(coords, return_inverse=True)
    diffs = (uniq[:, None] - uniq[None, :]).tolist()
    squares = np.array([[d**2 for d in row] for row in diffs])
    return squares[inv[:, None], inv[None, :]]


def _distance_matrix(start, pts3) -> np.ndarray:
    """(k+1)² distances with the start as row 0 and point i as row i + 1."""
    xyz = np.array([start, *pts3], dtype=float)
    sq = _axis_squares(xyz[:, 0]) + _axis_squares(xyz[:, 1]) + _axis_squares(xyz[:, 2])
    return np.sqrt(sq)


def _nearest_neighbor(dist: np.ndarray) -> list[int]:
    """Greedy order from row 0; ties go to the lowest point index."""
    k = dist.shape[0] - 1
    free = np.ones(k, dtype=bool)
    order = []
    cur = 0
    for _ in range(k):
        row = np.where(free, dist[cur, 1:], np.inf)
        best = int(np.argmin(row))
        order.append(best)
        free[best] = False
        cur = best + 1
    return order


def _two_opt(dist: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt on an open path with a fixed start.

    Reversing order[i..j] swaps the edges entering i and leaving j.  Every
    pass builds the whole (i, j) gain matrix, applies the lexicographically
    first improving swap and rescans from i = 0, so the result is the same
    as a scalar scan with i ascending, then j.
    """
    n = len(order)
    path = np.array([0, *(i + 1 for i in order)])  # matrix rows, start first
    upper = np.triu(np.ones((n - 1, n), dtype=bool), k=1)  # j > i
    while True:
        d = dist[path[:, None], path[None, :]]
        entering = d.diagonal(1)  # d[i, i + 1]: edge into position i
        delta = d[: n - 1, 1:] - entering[: n - 1, None]
        delta[:, : n - 1] += d[1:n, 2:] - entering[None, 1:]
        hits = np.flatnonzero(upper & (delta < -_IMPROVE_EPS))
        if hits.size == 0:
            return [int(p) - 1 for p in path[1:]]
        i, j = divmod(int(hits[0]), n)
        path[i + 1 : j + 2] = path[i + 1 : j + 2][::-1]


def build_tour(points, altitude: float, start: tuple[float, float, float]) -> Tour:
    """Order 2D points into an open tour at the given altitude.

    Nearest-neighbor from the start position, then 2-opt until no improving
    swap remains.  The 2-opt result is never longer than the NN tour.
    """
    if len(points) == 0:
        raise ValueError("build_tour needs at least one point")
    pts3 = [(float(p[0]), float(p[1]), float(altitude)) for p in points]
    start = (float(start[0]), float(start[1]), float(start[2]))
    dist = _distance_matrix(start, pts3)
    order = _two_opt(dist, _nearest_neighbor(dist))
    return Tour(
        start=start,
        waypoints=tuple(pts3[i] for i in order),
        length=_path_length(start, order, pts3),
    )


def plan_tours(
    plan: EpochPlan, model: FidelityModel, position: tuple[float, float, float]
) -> list[Tour]:
    """One tour per fidelity group, chained in ascending fidelity order.

    Each tour starts above the end of the previous one at its own altitude;
    the vertical altitude move itself is charged at execution time.
    """
    tours = []
    pos = position
    for level, group in plan.by_fidelity().items():
        z = model.z[level - 1]
        tour = build_tour([s.location for s in group], z, (pos[0], pos[1], z))
        tours.append(tour)
        pos = tour.end
    return tours


@dataclass
class ExecutionTrace:
    """What one executed epoch did to the clock and where it ended."""

    waypoint_rows: list[tuple[int, int, float, float, float, float]] = field(default_factory=list)
    altitude_changes: int = 0
    travel: float = 0.0
    end_time: float = 0.0
    end_position: tuple[float, float, float] = (0.0, 0.0, 0.0)


def execute_epoch(
    plan: EpochPlan,
    tours: list[Tour],
    truth: GroundTruth,
    model: FidelityModel,
    log: SampleLog,
    start_time: float,
    rng,
    position: tuple[float, float, float],
    sample_time: float = 1.0,
) -> ExecutionTrace:
    """Fly the epoch's tours from mission time ``start_time`` and measure at
    every waypoint.

    Fidelity groups run lowest level first; between groups the vehicle first
    climbs or descends vertically (|dz| at unit speed), then follows the
    tour.  The clock adds each move and each dwell as it happens, so every
    waypoint time is the running sum in visit order.  Observations are
    appended to the log in visit order.
    """
    groups = plan.by_fidelity()
    if len(tours) != len(groups):
        raise ValueError("tours do not match the plan's fidelity groups")
    for tour, (level, group) in zip(tours, groups.items()):
        if sorted(w[:2] for w in tour.waypoints) != sorted(s.location for s in group):
            raise ValueError(f"tour waypoints do not cover the level-{level} plan points")

    trace = ExecutionTrace()
    clock = start_time
    pos = (float(position[0]), float(position[1]), float(position[2]))
    order = 0
    for tour, (level, _) in zip(tours, groups.items()):
        if pos[2] != tour.start[2]:
            dz = abs(tour.start[2] - pos[2])
            clock += dz
            trace.travel += dz
            trace.altitude_changes += 1
            pos = (pos[0], pos[1], tour.start[2])
        for wp in tour.waypoints:
            seg = _dist3(pos, wp)
            clock += seg
            trace.travel += seg
            pos = wp
            order += 1
            trace.waypoint_rows.append((plan.epoch, order, wp[0], wp[1], wp[2], clock))
            value = measure(truth, wp[0], wp[1], level, model, rng)
            log.append((wp[0], wp[1]), value, level)
            clock += sample_time
    trace.end_time = clock
    trace.end_position = pos
    return trace
