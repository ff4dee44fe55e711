import math
from collections import Counter
from dataclasses import replace
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgp_search import (
    EpochPlan,
    FidelityModel,
    GridDomain,
    PlanLimits,
    SampleLog,
    build_tour,
    execute_epoch,
    plan_epoch,
    plan_tours,
    posterior,
    sample_ground_truth,
)
from mfgp_search.planner import PlannedSample
from mfgp_search.router import _GAIN_ROWS, _distance_matrix, _nearest_neighbor, _two_opt

from oracles import (
    exhaustive_open_tour,
    scalar_dist3,
    scalar_nearest_neighbor,
    scalar_measurements,
    scalar_path_length,
    scalar_two_opt,
)


def tour_points(rng, n, side=20.0):
    return [tuple(p) for p in rng.uniform(0.0, side, size=(n, 2))]


class TestBuildTour:
    def test_collinear_points_visited_in_order(self):
        pts = [(6.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
        tour = build_tour(pts, altitude=5.0, start=(0.0, 0.0, 5.0))
        assert [w[:2] for w in tour.waypoints] == [(2.0, 0.0), (4.0, 0.0), (6.0, 0.0)]
        assert tour.length == pytest.approx(6.0)

    def test_two_opt_never_worse_than_nearest_neighbor(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pts = tour_points(rng, int(rng.integers(2, 12)))
            start = (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)), 5.0)
            tour = build_tour(pts, 5.0, start)
            pts3 = [(p[0], p[1], 5.0) for p in pts]
            nn_len = scalar_path_length(start, scalar_nearest_neighbor(start, pts3), pts3)
            assert tour.length <= nn_len + 1e-9

    def test_near_optimal_on_small_instances(self):
        # exhaustive 7-point oracle: 2-opt within 5% of the true optimum
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = tour_points(rng, 7)
            start = (0.0, 0.0, 5.0)
            tour = build_tour(pts, 5.0, start)
            best = exhaustive_open_tour(
                np.array([0.0, 0.0]), [np.array(p) for p in pts]
            )
            assert tour.length <= 1.05 * best + 1e-9

    def test_visits_each_point_exactly_once(self):
        rng = np.random.default_rng(1)
        pts = tour_points(rng, 9)
        tour = build_tour(pts, 4.0, (0.0, 0.0, 4.0))
        assert sorted(w[:2] for w in tour.waypoints) == sorted(pts)

    def test_length_is_sum_of_segments(self):
        rng = np.random.default_rng(2)
        pts = tour_points(rng, 6)
        start = (1.0, 1.0, 9.0)
        tour = build_tour(pts, 4.0, start)
        prev = tour.start
        total = 0.0
        for wp in tour.waypoints:
            total += float(np.linalg.norm(np.subtract(wp, prev)))
            prev = wp
        assert tour.length == pytest.approx(total, abs=1e-12)

    def test_tour_length_sanity_ceiling(self):
        # classical shortest-tour ceiling for n points in a d x d square
        rng = np.random.default_rng(3)
        for n in (5, 20, 60):
            pts = tour_points(rng, n, side=20.0)
            tour = build_tour(pts, 4.0, (0.0, 0.0, 4.0))
            assert tour.length <= 20.0 * (0.984 * np.sqrt(2 * n) + 11)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            build_tour([], 4.0, (0.0, 0.0, 4.0))

    def test_named_points_name_their_waypoints(self):
        pts = [(6.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
        tour = build_tour(pts, 5.0, (0.0, 0.0, 5.0), cells=[16, 12, 14])
        assert tour.cells == (12, 14, 16)
        assert build_tour(pts, 5.0, (0.0, 0.0, 5.0)).cells == ()
        with pytest.raises(ValueError, match="2 cells for 3 points"):
            build_tour(pts, 5.0, (0.0, 0.0, 5.0), cells=[16, 12])


coord = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)
grid_coord = st.integers(0, 19).map(lambda k: k + 0.5)  # desk cell centres
altitude = st.sampled_from([4.0, 8.0, 5.3])


@st.composite
def tour_case(draw, points_of):
    """(points, altitude, start): the start is free, on the grid or on a waypoint."""
    n = draw(st.integers(1, 14))
    points = draw(points_of(n))
    z = draw(altitude)
    where = draw(st.sampled_from(["free", "corner", "waypoint"]))
    if where == "waypoint":
        x, y = points[draw(st.integers(0, n - 1))]
    elif where == "corner":
        x, y = 0.0, 0.0
    else:
        x, y = draw(coord), draw(coord)
    start_z = draw(st.sampled_from([z, z + 4.0]))
    return points, z, (x, y, start_z)


def random_points(n):
    return st.lists(st.tuples(coord, coord), min_size=n, max_size=n)


def grid_points(n):
    # cell centres tie exactly in distance; duplicates allowed
    return st.lists(st.tuples(grid_coord, grid_coord), min_size=n, max_size=n)


def repeated_points(n):
    pool = st.lists(st.tuples(coord, coord), min_size=1, max_size=3)
    return pool.flatmap(lambda p: st.lists(st.sampled_from(p), min_size=n, max_size=n))


@st.composite
def start_order_case(draw, points_of, sizes):
    """(points, altitude, start, order) with a free start order, not only NN's."""
    n = draw(sizes)
    points = draw(points_of(n))
    z = draw(altitude)
    x, y = draw(st.one_of(st.tuples(coord, coord), st.sampled_from(points)))
    start = (x, y, draw(st.sampled_from([z, z + 4.0])))
    return points, z, start, draw(st.permutations(range(n)))


class TestMatchesScalarOracle:
    """The array router reproduces the scalar router bit for bit."""

    def check(self, points, z, start):
        pts3 = [(float(p[0]), float(p[1]), z) for p in points]
        s = tuple(float(c) for c in start)
        nn = scalar_nearest_neighbor(s, pts3)
        expected = scalar_two_opt(s, list(nn), pts3)
        dist = _distance_matrix(s, pts3)
        assert _nearest_neighbor(dist) == nn
        assert _two_opt(dist, nn) == expected
        tour = build_tour(points, z, start)
        assert tour.waypoints == tuple(pts3[i] for i in expected)
        assert tour.length == scalar_path_length(s, expected, pts3)  # exact: same bits

    @settings(max_examples=150, deadline=None)
    @given(tour_case(random_points))
    def test_random_points(self, case):
        self.check(*case)

    @settings(max_examples=150, deadline=None)
    @given(tour_case(grid_points))
    def test_grid_centres_with_ties(self, case):
        self.check(*case)

    @settings(max_examples=100, deadline=None)
    @given(tour_case(repeated_points))
    def test_repeated_points(self, case):
        self.check(*case)

    def test_distance_matrix_bits(self):
        # squares are IEEE products: libm pow (Python's **) rounds some differently
        rng = np.random.default_rng(5)
        for _ in range(5):
            pts3 = [(x, y, 4.0) for x, y in tour_points(rng, 60)]
            start = (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)), 7.0)
            dist = _distance_matrix(start, pts3)
            rows = [start, *pts3]
            expected = [[scalar_dist3(a, b) for b in rows] for a in rows]
            assert dist.tolist() == expected

    def test_squares_that_pow_rounds_differently(self):
        # 120 uniform points on the 20 m floor, enough that glibc's pow (behind
        # math.pow and **) rounds some squared difference, and through it some
        # distance, differently from the product; the drawn tour cases hold
        # too few points to be sure of reaching the squaring rule
        rng = np.random.default_rng(0)
        points = tour_points(rng, 120)
        start = (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)), 7.0)
        rows = [start, *((x, y, 4.0) for x, y in points)]
        pairs = [(a, b) for a in rows for b in rows]
        assert any(math.pow(d, 2) != d * d for a, b in pairs for d in map(sub, a, b))
        pow_dist = [math.sqrt(sum(math.pow(d, 2) for d in map(sub, a, b))) for a, b in pairs]
        expected = [scalar_dist3(a, b) for a, b in pairs]
        assert pow_dist != expected
        assert _distance_matrix(start, rows[1:]).ravel().tolist() == expected
        self.check(points, 4.0, start)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_tours(self, n):
        rng = np.random.default_rng(n)
        for _ in range(30):
            pts = tour_points(rng, n)
            self.check(pts, 4.0, (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)), 4.0))
            self.check(pts, 4.0, (pts[0][0], pts[0][1], 8.0))

    @pytest.mark.parametrize(
        "start", [None, (-1.5, 21.25, 12.0)], ids=["on-a-waypoint", "off-the-grid"]
    )
    def test_capped_epoch_with_repeats(self, start):
        # a capped epoch's shape: 200 samples with replacement on the desk
        # grid, on far fewer distinct cells, all flown over every point
        rng = np.random.default_rng(8)
        cells = [(i + 0.5, j + 0.5) for i in range(20) for j in range(20)]
        pool = rng.choice(len(cells), size=100, replace=False)
        points = [cells[k] for k in rng.choice(pool, size=200)]
        assert len(set(points)) < 100
        start = start or (*points[57], 8.0)
        self.check(points, 8.0, start)
        tour = build_tour(points, 8.0, start)
        path = [start, *tour.waypoints]
        assert tour.legs == tuple(scalar_dist3(a, b) for a, b in zip(path, path[1:]))

    def test_distinct_points_zero_apart(self):
        # offsets below about 1e-154 square to 0.0, so these two points tie
        # with each other's copies: each point must be its own stop
        self.check([(0.0, 0.0), (5e-324, 0.0), (0.0, 0.0)], 4.0, (1.0, 1.0, 4.0))

    def test_large_grid_epoch(self):
        rng = np.random.default_rng(4)
        cells = [(i + 0.5, j + 0.5) for i in range(20) for j in range(20)]
        picks = rng.choice(len(cells), size=120, replace=False)
        self.check([cells[k] for k in picks], 8.0, (0.0, 0.0, 8.0))

    # From a free start order, moves with i > 0 make the next pass re-check
    # the rows above i, and the scans cross gain-row block boundaries.
    def check_from(self, points, z, start, order):
        pts3 = [(float(p[0]), float(p[1]), z) for p in points]
        s = tuple(float(c) for c in start)
        dist = _distance_matrix(s, pts3)
        assert _two_opt(dist, list(order)) == scalar_two_opt(s, list(order), pts3)

    @settings(max_examples=20, deadline=None)
    @given(start_order_case(random_points, st.integers(30, 80)))
    def test_random_points_from_any_order(self, case):
        self.check_from(*case)

    @settings(max_examples=20, deadline=None)
    @given(start_order_case(grid_points, st.integers(30, 80)))
    def test_grid_centres_from_any_order(self, case):
        self.check_from(*case)

    @settings(max_examples=20, deadline=None)
    @given(start_order_case(repeated_points, st.integers(30, 80)))
    def test_repeated_points_from_any_order(self, case):
        self.check_from(*case)

    @pytest.mark.parametrize(
        "n", [_GAIN_ROWS - 1, _GAIN_ROWS, _GAIN_ROWS + 1, _GAIN_ROWS + 2, 2 * _GAIN_ROWS + 1]
    )
    @pytest.mark.parametrize("points_of", [grid_points, repeated_points], ids=["grid", "repeated"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_block_edges(self, n, points_of, data):
        points, z, start, order = data.draw(start_order_case(points_of, st.just(n)))
        self.check_from(points, z, start, order)
        self.check(points, z, start)

    def test_nearest_neighbor_on_desk_grid_with_duplicates(self):
        rng = np.random.default_rng(6)
        cells = [(i + 0.5, j + 0.5) for i in range(20) for j in range(20)]
        picks = rng.choice(len(cells), size=200, replace=True)
        assert len(set(picks.tolist())) < 200  # duplicates present
        pts3 = [(*cells[k], 8.0) for k in picks]
        start = (0.5, 0.5, 8.0)
        assert _nearest_neighbor(_distance_matrix(start, pts3)) == scalar_nearest_neighbor(
            start, pts3
        )


@pytest.fixture
def epoch_setup():
    domain = GridDomain(0.0, 20.0, 0.0, 20.0, 20)
    model = FidelityModel(
        mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(0.1, 0.08), z=(8.0, 4.0)
    )
    truth = sample_ground_truth(domain, model, seed=0)
    return domain, model, truth


class TestExecuteEpoch:
    def test_single_point_at_current_position_costs_one_sample(self, epoch_setup):
        domain, model, truth = epoch_setup
        loc = domain.cell_centers[0].tolist()
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post, 1, PlanLimits(sigma_ratio=1.0), np.arange(domain.n_cells)
        )
        assert len(plan.samples) == 1 and plan.samples[0].cell == 0
        start = (loc[0], loc[1], model.z[0])
        tours = plan_tours(plan, domain, model, start)
        log = SampleLog(domain)
        trace = execute_epoch(plan, tours, truth, model, log, 0.0, np.random.default_rng(0), start)
        assert trace.end_time == pytest.approx(1.0)
        assert len(log) == 1

    def test_two_fidelity_groups_one_altitude_change(self, epoch_setup):
        domain, model, truth = epoch_setup
        post = posterior(SampleLog(domain), model)
        # force a two-group epoch by driving the ratio deep
        plan = plan_epoch(
            post,
            1,
            PlanLimits(sigma_ratio=0.25, sample_cap=400),
            np.arange(domain.n_cells),
        )
        assert plan.fidelity_levels() == (1, 2)
        start = (0.0, 0.0, model.z[0])
        tours = plan_tours(plan, domain, model, start)
        log = SampleLog(domain)
        trace = execute_epoch(plan, tours, truth, model, log, 0.0, np.random.default_rng(0), start)
        assert trace.altitude_changes == 1

    def test_replay_is_identical(self, epoch_setup):
        domain, model, truth = epoch_setup
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post, 1, PlanLimits(), np.arange(domain.n_cells)
        )
        start = (0.0, 0.0, model.z[0])

        def run():
            tours = plan_tours(plan, domain, model, start)
            log = SampleLog(domain)
            trace = execute_epoch(
                plan, tours, truth, model, log, 0.0, np.random.default_rng(7), start
            )
            return log.values().tolist(), trace.end_time

        values_a, time_a = run()
        values_b, time_b = run()
        assert values_a == values_b
        assert time_a == time_b

    def test_time_accounting_exact(self, epoch_setup):
        domain, model, truth = epoch_setup
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post,
            1,
            PlanLimits(sigma_ratio=0.5),
            np.arange(domain.n_cells),
        )
        start = (0.0, 0.0, model.z[0])
        tours = plan_tours(plan, domain, model, start)
        log = SampleLog(domain)
        trace = execute_epoch(plan, tours, truth, model, log, 0.0, np.random.default_rng(1), start)
        rows = trace.waypoint_rows
        assert len(rows) == len(plan.samples)
        assert trace.end_time == rows[-1][5] + 1.0  # exact: the epoch ends on a dwell
        assert trace.end_time == pytest.approx(trace.travel + len(rows) * 1.0, abs=1e-12)

    def test_mismatched_tours_rejected(self, epoch_setup):
        domain, model, truth = epoch_setup
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post, 1, PlanLimits(sigma_ratio=0.9), np.arange(domain.n_cells)
        )
        start = (0.0, 0.0, model.z[0])
        wrong = [build_tour([tuple(domain.cell_centers[5].tolist())], model.z[0], start)]
        # the wrong tour must really miss the plan, or the test checks nothing
        assert [s.cell for s in plan.samples] != [5]
        with pytest.raises(ValueError):
            execute_epoch(
                plan, wrong, truth, model, SampleLog(domain), 0.0, np.random.default_rng(0), start
            )

    def test_log_on_another_grid_rejected(self, epoch_setup):
        # one cell index per waypoint serves the truth and the log
        domain, model, truth = epoch_setup
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post, 1, PlanLimits(sigma_ratio=0.9), np.arange(domain.n_cells)
        )
        start = (0.0, 0.0, model.z[0])
        tours = plan_tours(plan, domain, model, start)
        other = SampleLog(GridDomain(0.0, 20.0, 0.0, 20.0, 10))
        with pytest.raises(ValueError, match="different grids"):
            execute_epoch(plan, tours, truth, model, other, 0.0, np.random.default_rng(0), start)
        assert len(other) == 0

    def test_tour_from_elsewhere_rejected(self, epoch_setup):
        # the clock charges the tour's own legs, so they must start at the vehicle
        domain, model, truth = epoch_setup
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post, 1, PlanLimits(sigma_ratio=0.9), np.arange(domain.n_cells)
        )
        tours = plan_tours(plan, domain, model, (0.0, 0.0, model.z[0]))
        with pytest.raises(ValueError, match="tour starts at"):
            execute_epoch(
                plan, tours, truth, model, SampleLog(domain), 0.0, np.random.default_rng(0),
                (1.0, 0.0, model.z[0]),
            )

    def test_clock_bits_on_inexact_grid(self, planted_config):
        # planted at resolution 30: cells 2/3 m apart, centres not binary
        # fractions; every waypoint time is the running sum of the scalar
        # legs, |dz| moves and dwells, bit for bit
        c = planted_config
        domain = GridDomain(c.domain.x_min, c.domain.x_max, c.domain.y_min, c.domain.y_max, 30)
        model = c.model
        truth = sample_ground_truth(
            domain, model, 0, mode="planted", bumps=c.bumps, background=c.background
        )
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post,
            1,
            PlanLimits(sigma_ratio=0.25, sample_cap=400),
            np.arange(domain.n_cells),
        )
        assert plan.fidelity_levels() == (1, 2)
        start = (0.0, 0.0, 10.0)
        tours = plan_tours(plan, domain, model, start)
        trace = execute_epoch(
            plan, tours, truth, model, SampleLog(domain), 3.0, np.random.default_rng(0), start
        )
        clock, pos, times = 3.0, start, []
        for tour in tours:
            clock += abs(tour.start[2] - pos[2])
            pos = (pos[0], pos[1], tour.start[2])
            for wp in tour.waypoints:
                clock += scalar_dist3(pos, wp)
                times.append(clock)
                clock += 1.0
                pos = wp
        assert [row[5] for row in trace.waypoint_rows] == times
        assert trace.end_time == clock
        assert trace.altitude_changes == 2

    def test_log_matches_scalar_measurements(self, epoch_setup):
        # one noise vector per tour gives the values of one scalar draw per
        # waypoint in visit order, repeated cells and both levels included
        domain, model, truth = epoch_setup
        rng = np.random.default_rng(9)
        cells = [int(k) for k in rng.choice(domain.n_cells, size=12)]
        picks = [(cells[int(k)], m) for m in (1, 2) for k in rng.integers(0, 12, size=40)]
        plan = EpochPlan(
            epoch=1,
            samples=tuple(PlannedSample(cell, m, 1.0) for cell, m in picks),
            n_before=0,
            sigma_max_before=1.0,
            sigma_max_after=0.5,
            capped=True,
            level_after=2,
            max_var_trace=(0.25,) * len(picks),
        )
        start = (3.0, 3.0, model.z[0])
        tours = plan_tours(plan, domain, model, start)
        log = SampleLog(domain)
        execute_epoch(plan, tours, truth, model, log, 0.0, np.random.default_rng(4), start)
        expected = scalar_measurements(tours, (1, 2), truth, model, np.random.default_rng(4))
        got = zip(*log.locations().T.tolist(), log.values().tolist(), log.fidelities().tolist())
        assert list(got) == expected
        assert len(expected) == 80 and len(set(log.cell_indices().tolist())) <= 12

    def test_custom_sample_time(self, epoch_setup):
        domain, model, truth = epoch_setup
        loc = domain.cell_centers[0].tolist()
        post = posterior(SampleLog(domain), model)
        plan = plan_epoch(
            post, 1, PlanLimits(sigma_ratio=1.0), np.arange(domain.n_cells)
        )
        start = (loc[0], loc[1], model.z[0])
        tours = plan_tours(plan, domain, model, start)
        trace = execute_epoch(
            plan, tours, truth, model, SampleLog(domain), 0.0,
            np.random.default_rng(0), start, sample_time=20.0,
        )
        assert trace.end_time == pytest.approx(20.0)


class TestTourCells:
    """Every waypoint of a planned tour names its cell, on a grid whose cells
    are 3.33 m by 1.67 m, so a row/column swap shows."""

    @pytest.fixture
    def setup(self):
        domain = GridDomain(0, 40, 0, 20, 12)
        model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(8.0, 4.0), s=(0.1, 0.08), z=(8.0, 4.0)
        )
        rng = np.random.default_rng(3)
        cells = [int(k) for k in rng.choice(domain.n_cells, size=15, replace=False)]
        picks = [(cells[int(k)], m) for m in (1, 2) for k in rng.integers(0, 15, size=30)]
        plan = EpochPlan(
            epoch=1,
            samples=tuple(PlannedSample(cell, m, 1.0) for cell, m in picks),
            n_before=0,
            sigma_max_before=1.0,
            sigma_max_after=0.5,
            capped=True,
            level_after=2,
            max_var_trace=(0.25,) * len(picks),
        )
        start = (3.0, 17.0, 9.0)
        return domain, model, plan, start, plan_tours(plan, domain, model, start)

    def test_each_cell_flown_once_per_sample_at_its_centre(self, setup):
        domain, model, plan, _, tours = setup
        for tour, (level, group) in zip(tours, plan.by_fidelity().items(), strict=True):
            assert Counter(tour.cells) == Counter(s.cell for s in group)
            assert len(tour.waypoints) == len(tour.legs) == len(tour.cells) == len(group)
            for k, cell in enumerate(tour.cells):
                centre = domain.cell_centers[cell].tolist()
                assert tour.waypoints[k] == (*centre, model.z[level - 1])
                if k and tour.cells[k - 1] == cell:
                    assert tour.legs[k] == 0.0  # a copy after the first
                elif k:
                    assert tour.legs[k] > 0.0  # distinct cells are never 0.0 apart
            # the copies of a cell are flown in a row
            runs = [c for k, c in enumerate(tour.cells) if k == 0 or tour.cells[k - 1] != c]
            assert len(runs) == len(set(runs))
        assert len(set(tours[0].cells)) < len(tours[0].cells)  # the plan repeats cells

    def test_same_tour_as_over_every_sample(self, setup):
        domain, model, plan, start, tours = setup
        pos = start
        for tour, (level, group) in zip(tours, plan.by_fidelity().items(), strict=True):
            z = model.z[level - 1]
            points = [tuple(domain.cell_centers[s.cell].tolist()) for s in group]
            every = build_tour(points, z, (*pos[:2], z))
            assert (tour.start, tour.waypoints, tour.legs) == (every.start, every.waypoints, every.legs)
            assert tour.length == every.length
            pos = tour.end

    def test_tour_missing_a_planned_cell_refused(self, setup):
        # the waypoints still cover the plan's centres; only the names miss one
        domain, model, plan, start, tours = setup
        truth = sample_ground_truth(domain, model, seed=0)
        tour = tours[0]
        other = next(c for c in range(domain.n_cells) if c not in tour.cells)
        renamed = replace(tour, cells=(other, *tour.cells[1:]))
        assert sorted(w[:2] for w in renamed.waypoints) == sorted(
            tuple(domain.cell_centers[s.cell].tolist()) for s in plan.samples if s.fidelity == 1
        )
        log = SampleLog(domain)
        with pytest.raises(ValueError, match="do not cover the level-1 plan cells"):
            execute_epoch(
                plan, [renamed, tours[1]], truth, model, log, 0.0, np.random.default_rng(0), start
            )
        assert len(log) == 0
