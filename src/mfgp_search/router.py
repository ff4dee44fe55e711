"""Measurement tours and mission time accounting.

Each epoch's planned cells are grouped by fidelity level and visited along
one open tour per level (nearest-neighbor construction, then 2-opt, over the
distinct cells; repeats are flown in a row) that names each waypoint's cell.
The vehicle moves at unit speed in 3D, changes altitude vertically between
fidelity groups, and spends a fixed sampling time at each waypoint.  Every
tour distance is read from one distance matrix per tour
(``_distance_matrix``): the tour keeps its legs, and the clock charges them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ._np import np
from .config import FidelityModel, GridDomain
from .field_model import GroundTruth, measure_cells
from .inference import SampleLog
from .planner import EpochPlan

_IMPROVE_EPS = 1e-12  # minimum 2-opt gain; guards against float cycling
_GAIN_ROWS = 16  # 2-opt gain rows evaluated per block


@dataclass(frozen=True)
class Tour:
    """Open tour from the vehicle position through every planned point once."""

    start: tuple[float, float, float]
    waypoints: tuple[tuple[float, float, float], ...]
    legs: tuple[float, ...]  # legs[k]: the distance flown into waypoints[k]
    length: float  # the legs' running sum
    cells: tuple[int, ...] = ()  # cells[k]: waypoints[k]'s flat cell index (none for free points)

    @property
    def end(self) -> tuple[float, float, float]:
        return self.waypoints[-1] if self.waypoints else self.start


def _distance_matrix(start, pts3) -> np.ndarray:
    """(k+1)² distances with the start as row 0 and point i as row i + 1:
    sqrt(dx*dx + dy*dy + dz*dz), squared as IEEE products and summed x, y, z."""
    xyz = np.array([start, *pts3], dtype=float)
    d = xyz[:, None, :] - xyz[None, :, :]
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


def _nearest_neighbor(dist: np.ndarray) -> list[int]:
    """Greedy order from row 0; ties go to the lowest point index.

    Visited points are masked in place: their columns of one copy of the
    point columns are set to inf, so each step is one argmin over a row.
    """
    k = dist.shape[0] - 1
    to_point = dist[:, 1:].copy()
    order = []
    cur = 0
    for _ in range(k):
        best = int(np.argmin(to_point[cur]))
        order.append(best)
        to_point[:, best] = np.inf
        cur = best + 1
    return order


def _first_gain_hit(dist, path, entering, upper, rows, cols):
    """First (i, j) in row-major order over rows × cols whose gain is below
    ``-_IMPROVE_EPS``, or None.

    The gain of reversing path positions i+1..j+1 (position 0 is the start)
    is ``(d1 - d2) + (d3 - d4)``: the edges into positions i+1 and j+2 are
    replaced.  The last column, j = n - 1, ends the path and has no second
    term.
    """
    n = len(path) - 1
    (a0, a1), (c0, c1) = rows, cols
    d = dist[path[a0 : a1 + 1, None], path[c0 + 1 : c1 + 2]]  # positions a and c + 1
    gain = d[:-1, : c1 - c0] - entering[a0:a1, None]
    m = min(c1, n - 1) - c0  # columns with a successor after position c + 1
    gain[:, :m] += d[1:, 1 : m + 1] - entering[c0 + 1 : c0 + 1 + m]
    hits = np.flatnonzero(upper[a0:a1, c0:c1] & (gain < -_IMPROVE_EPS))
    if hits.size == 0:
        return None
    i, j = divmod(int(hits[0]), c1 - c0)
    return a0 + i, c0 + j


def _two_opt(dist: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt on an open path with a fixed start.

    Reversing order[i..j] swaps the edges entering i and leaving j.  Each
    pass applies the lexicographically first improving swap in (i, j)
    order, so the result is the same as a scalar scan that restarts from
    i = 0 after every swap.  A pass evaluates gains only for the rows it has
    to scan, in blocks of ``_GAIN_ROWS`` rows, and stops at the first block
    with a hit.  After swap (i, j), the rows a < i had no hit, and the swap
    changes their gains only in columns i - 1..j; so the next pass checks
    rows 0..i - 1 of those columns first and, if none of them improves,
    resumes the scan at row i.
    """
    n = len(order)
    path = np.array([0, *(i + 1 for i in order)])  # matrix rows, start first
    upper = np.triu(np.ones((n - 1, n), dtype=bool), k=1)  # j > i
    start, recheck = 0, []
    while True:
        entering = dist[path[:-1], path[1:]]  # entering[i]: edge into position i + 1
        scan = [
            ((a, min(a + _GAIN_ROWS, n - 1)), (a + 1, n)) for a in range(start, n - 1, _GAIN_ROWS)
        ]
        for rows, cols in recheck + scan:
            hit = _first_gain_hit(dist, path, entering, upper, rows, cols)
            if hit is not None:
                break
        else:
            return [int(p) - 1 for p in path[1:]]
        i, j = hit
        path[i + 1 : j + 2] = path[i + 1 : j + 2][::-1]
        start, recheck = i, [((0, i), (i - 1, j + 1))] if i else []


def build_tour(points, altitude: float, start: tuple[float, float, float], cells=()) -> Tour:
    """Order 2D points into an open tour at the given altitude.

    Nearest-neighbor from the start position, then 2-opt until no improving
    swap remains.  The 2-opt result is never longer than the NN tour.  Every
    point is its own stop, and repeated points are flown in a row:
    nearest-neighbor reaches a copy at distance 0 before anything else, and
    a 2-opt move that cuts between two copies gains nothing (triangle
    inequality), so it never passes the threshold.  ``cells``, if given,
    names each point's grid cell, and the tour names each waypoint's.
    """
    if len(points) == 0:
        raise ValueError("build_tour needs at least one point")
    if len(cells) not in (0, len(points)):
        raise ValueError(f"{len(cells)} cells for {len(points)} points")
    pts3 = [(float(p[0]), float(p[1]), float(altitude)) for p in points]
    start = (float(start[0]), float(start[1]), float(start[2]))
    dist = _distance_matrix(start, pts3)
    order = _two_opt(dist, _nearest_neighbor(dist))
    path = [0, *(i + 1 for i in order)]  # matrix rows, start first
    legs = dist[path[:-1], path[1:]].tolist()
    length = 0.0
    for leg in legs:  # left to right: sum() compensates on Python >= 3.12
        length += leg
    named = tuple(cells[i] for i in order) if len(cells) else ()
    return Tour(start, tuple(pts3[i] for i in order), tuple(legs), length, named)


def plan_tours(
    plan: EpochPlan, domain: GridDomain, model: FidelityModel, position: tuple[float, float, float]
) -> list[Tour]:
    """One tour per fidelity group, chained in ascending fidelity order.

    A group is toured over its distinct cells' centres, and each cell is
    flown once per sample: the first copy with the cell's leg, the others
    with legs of 0.0.  Each tour starts above the end of the previous one at
    its own altitude; the vertical move is charged at execution time.
    """
    tours = []
    pos = position
    for level, group in plan.by_fidelity().items():
        z = model.z[level - 1]
        copies = Counter(s.cell for s in group)  # in first-occurrence order
        stops = list(copies)
        route = build_tour(domain.cell_centers[stops].tolist(), z, (pos[0], pos[1], z), stops)
        waypoints, legs, cells = [], [], []
        for wp, leg, c in zip(route.waypoints, route.legs, route.cells):
            waypoints += [wp] * copies[c]
            legs += [leg] + [0.0] * (copies[c] - 1)
            cells += [c] * copies[c]
        tours.append(Tour(route.start, tuple(waypoints), tuple(legs), route.length, tuple(cells)))
        pos = tours[-1].end
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
    tour.  Each tour must start above the vehicle's position at that point,
    since its legs are what the clock charges.  The clock adds each move and
    each dwell as it happens, so every waypoint time is the running sum in
    visit order.  Each tour must fly its group's planned cells, and its
    cells are measured in one pass (``measure_cells``: one noise draw per
    waypoint, in visit order) and logged in visit order; the log and the
    truth must share one grid.
    """
    groups = plan.by_fidelity()
    if len(tours) != len(groups):
        raise ValueError("tours do not match the plan's fidelity groups")
    if log.domain != truth.domain:
        raise ValueError("the log and the truth are on different grids")
    at = (float(position[0]), float(position[1]))
    for tour, (level, group) in zip(tours, groups.items()):
        if sorted(tour.cells) != sorted(s.cell for s in group):
            raise ValueError(f"tour cells do not cover the level-{level} plan cells")
        if tour.start[:2] != at:
            raise ValueError(f"the level-{level} tour starts at {tour.start[:2]}, not at {at}")
        at = tour.end[:2]

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
        for wp, seg in zip(tour.waypoints, tour.legs):
            clock += seg
            trace.travel += seg
            pos = wp
            order += 1
            trace.waypoint_rows.append((plan.epoch, order, wp[0], wp[1], wp[2], clock))
            clock += sample_time
        log.extend(tour.cells, measure_cells(truth, list(tour.cells), level, model, rng), level)
    trace.end_time = clock
    trace.end_position = pos
    return trace
