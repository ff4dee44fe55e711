import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mfgp_search import (
    Bump,
    FidelityModel,
    GridDomain,
    Label,
    MissionConfig,
    PlanLimits,
    SampleLog,
    append_sample_variance_only,
    classifier,
    compare_decay,
    confidence_interval,
    detection_time_study,
    mission,
    run_mission,
    run_missions,
    sample_ground_truth,
)
from mfgp_search.config import BASELINES, ConfigError, parse_config_text, resolve_config
from mfgp_search.formats import dump_json
from mfgp_search.inference import posterior

from oracles import reference_mission


@pytest.fixture(scope="module")
def small_domain():
    return GridDomain(0.0, 12.0, 0.0, 12.0, 12)


@pytest.fixture(scope="module")
def small_model():
    return FidelityModel(
        mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.08), z=(8.0, 4.0)
    )


@pytest.fixture(scope="module")
def small_report(small_domain, small_model):
    config = MissionConfig(
        domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=3, max_epochs=8
    )
    return run_mission(config)


class TestRunMission:
    def test_zero_targets_all_empty(self, small_domain, small_model):
        config = MissionConfig(
            domain=small_domain,
            model=small_model,
            delta=0.2,
            th=0.6,
            seed=0,
            mode="planted",
            bumps=(),
            background=-0.2,
            max_epochs=20,
        )
        report = run_mission(config)
        assert report.terminated == "classified"
        assert np.sum(report.labels == Label.TARGET) == 0
        assert np.mean(report.labels == Label.EMPTY) >= 0.99

    def test_fidelity_trace_low_to_high(self, small_report):
        trace = small_report.fidelity_trace
        assert trace[0] == 1
        assert 2 in trace
        assert all(a <= b for a, b in zip(trace, trace[1:]))

    def test_deterministic_byte_identical(self, small_domain, small_model):
        config = MissionConfig(
            domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=9, max_epochs=4
        )
        a = dump_json(run_mission(config).to_json_dict()).encode()
        b = dump_json(run_mission(config).to_json_dict()).encode()
        assert a == b

    def test_model_built_from_lists_runs(self, small_model):
        # the level sequences are stored as tuples: the model equals and
        # hashes as the tuple-built one, so the covariance table cache
        # takes it
        levels = {name: list(getattr(small_model, name)) for name in ("mu", "v", "l", "s", "z")}
        listed = FidelityModel(**levels)
        assert listed == small_model and hash(listed) == hash(small_model)
        domain = GridDomain(0.0, 6.0, 0.0, 6.0, 6)
        reports = [
            run_mission(
                MissionConfig(domain=domain, model=m, delta=0.1, th=0.3, seed=5, max_epochs=3)
            )
            for m in (listed, small_model)
        ]
        a, b = (dump_json(r.to_json_dict()) for r in reports)
        assert a == b

    def test_epoch_ratio_contract(self, small_report):
        for er in small_report.epochs:
            if not er.capped:
                assert er.ratio <= 0.75 + 1e-6

    def test_planned_variance_realized_exactly(self, small_report):
        # plans are simulated before travel; the posterior recomputed after
        # execution must land on the predicted max sigma
        for er in small_report.epochs:
            assert er.sigma_max_after == pytest.approx(er.sigma_max_after_pred, abs=1e-8)

    def test_report_consistency(self, small_report):
        per_epoch = sum(e.n_after - e.n_before for e in small_report.epochs)
        assert per_epoch == small_report.n_total
        assert small_report.epochs[-1].classified_fraction == pytest.approx(
            small_report.classified_fraction
        )
        clocks = [e.clock for e in small_report.epochs]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))
        fractions = [e.classified_fraction for e in small_report.epochs]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert len(small_report.fidelity_trace) == small_report.n_total

    def test_epochs_chain_raw_sample_counts(self, small_report):
        # the posterior merges replicates into records; n_before still
        # counts samples, so each epoch starts where the previous one ended
        log = small_report.log
        assert len(set(zip(log.cell_indices().tolist(), log.fidelities().tolist()))) < len(log)
        epochs = small_report.epochs
        assert epochs[0].n_before == 0
        for prev, cur in zip(epochs, epochs[1:]):
            assert cur.n_before == prev.n_after
        assert epochs[-1].n_after == small_report.n_total

    def test_decay_curve_non_increasing_and_consistent(self, small_report):
        ns = [n for n, _ in small_report.decay]
        vars_ = [v for _, v in small_report.decay]
        assert ns == list(range(small_report.n_total + 1))
        assert all(b <= a + 1e-12 for a, b in zip(vars_, vars_[1:]))

    def test_clock_accounts_travel_plus_samples(self, small_report):
        config, rows = small_report.config, small_report.tour_rows
        last_time = {row[0]: row[5] for row in rows}
        for e in small_report.epochs:  # exact: each epoch ends on a dwell
            assert e.clock == last_time[e.epoch] + config.sample_time
        assert small_report.clock_total == rows[-1][5] + config.sample_time
        travel, pos = 0.0, config.start_position()
        for _, _, x, y, z, _ in rows:  # climb or descend first, then fly level
            travel += abs(z - pos[2]) + math.dist((x, y), pos[:2])
            pos = (x, y, z)
        assert small_report.clock_total == pytest.approx(
            travel + len(rows) * config.sample_time, rel=1e-12
        )

    def test_single_fidelity_baseline_forces_top_level(self, small_domain, small_model):
        config = MissionConfig(
            domain=small_domain,
            model=small_model,
            delta=0.1,
            th=0.3,
            seed=4,
            baseline="single-fidelity-only",
            max_epochs=4,
        )
        report = run_mission(config)
        assert set(report.fidelity_trace) == {2}

    def test_m3_levels_visited_in_order(self, small_domain):
        model = FidelityModel(
            mu=(0.0, 0.0, 0.0),
            v=(0.5, 0.3, 0.2),
            l=(6.0, 3.0, 1.5),
            s=(0.08, 0.06, 0.05),
            z=(9.0, 6.0, 3.0),
        )
        config = MissionConfig(
            domain=small_domain, model=model, delta=0.1, th=0.3, seed=5, max_epochs=12
        )
        report = run_mission(config)
        trace = report.fidelity_trace
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        seen = sorted(set(trace))
        assert seen == list(range(1, max(trace) + 1))
        assert max(trace) == 3

    def test_altitude_changes_bounded_by_levels(self, small_report):
        total = sum(e.altitude_changes for e in small_report.epochs)
        assert total <= small_report.config.model.levels - 1

    def test_eliminated_cells_never_planned_again(self, small_report):
        domain = small_report.config.domain
        eliminated_at = {}
        for cell in np.flatnonzero(small_report.labels == Label.EMPTY):
            eliminated_at[int(cell)] = int(small_report.final_map.epoch[cell])
        for (epoch, _order, x, y, _fid, _sig) in small_report.plan_rows:
            cell = domain.index_of(x, y)
            if cell in eliminated_at:
                assert epoch <= eliminated_at[cell]

    def test_one_confidence_interval_per_epoch(self, small_domain, small_model, monkeypatch):
        # classification and the coverage count read one interval per epoch
        calls = []

        def counted(*args):
            calls.append(args)
            return confidence_interval(*args)

        for module in (classifier, mission):
            if hasattr(module, "confidence_interval"):
                monkeypatch.setattr(module, "confidence_interval", counted)
        config = MissionConfig(
            domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=3, max_epochs=8
        )
        report = run_mission(config)
        assert len(report.epochs) > 1
        assert len(calls) == len(report.epochs)
        last = report.epochs[-1]
        eps = config.params().epsilon(last.epoch)
        low, up = confidence_interval(report.posterior_mu, np.sqrt(report.posterior_sigma2), eps)
        assert report.final_map.interval[0].tolist() == low.tolist()
        assert report.final_map.interval[1].tolist() == up.tolist()
        f = report.truth.f[-1]
        assert last.coverage_outside == int(np.sum((f < low) | (f > up)))

    def test_config_built_from_lists_equals_and_hashes(self):
        domain = GridDomain(0.0, 6.0, 0.0, 6.0, 6)
        model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0))
        base = dict(domain=domain, model=model, delta=0.1, th=0.3, mode="planted")
        bump = Bump(3.0, 3.0, 1.0, 1.5)
        listed = MissionConfig(**base, start=[1.5, 1.5, 8], bumps=[bump])
        tupled = MissionConfig(**base, start=(1.5, 1.5, 8.0), bumps=(bump,))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.start == (1.5, 1.5, 8.0) and type(listed.start[2]) is float
        assert listed.bumps == (bump,)

    def test_records_with_arrays_compare_and_hash_by_identity(self):
        # field-wise == would compare arrays and raise; these records hold arrays
        domain = GridDomain(0.0, 6.0, 0.0, 6.0, 6)
        model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0))
        config = MissionConfig(
            domain=domain, model=model, delta=0.1, th=0.3, mode="planted",
            bumps=(Bump(3.0, 3.0, 1.0, 1.5),), max_epochs=1,
        )
        a, b = run_mission(config), run_mission(config)
        for x, y in [
            (a, b),
            (a.final_map, b.final_map),
            (a.truth, b.truth),
            (posterior(a.log, model), posterior(b.log, model)),
        ]:
            assert (x == y) is False and x != y
            assert x == x and hash(x) == hash(x)
            assert len({x, y}) == 2

    def test_default_limits_are_the_planners(self, small_domain, small_model):
        # the 3/4 rule and the epoch cap are written once, in PlanLimits
        config = MissionConfig(domain=small_domain, model=small_model, delta=0.1, th=0.3)
        assert config.limits() == PlanLimits()

    def test_config_validation(self, small_domain, small_model):
        with pytest.raises(ValueError):
            MissionConfig(domain=small_domain, model=small_model, delta=0.6, th=0.3, seed=0)
        with pytest.raises(ValueError):
            MissionConfig(
                domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0, mode="x"
            )
        with pytest.raises(ValueError):
            MissionConfig(
                domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0, baseline="x"
            )
        base = dict(domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0)
        for bad in (
            {"sigma_ratio": 1.5},
            {"sample_time": -1.0},
            {"termination_fraction": 1.5},
            {"domain": GridDomain(0.0, 10.0, 0.0, 10.0, 101)},  # 10201 cells
            {"start": (50.0, 50.0, 8.0)},
            {"start": (5.0, -0.5, 8.0)},
            {"bumps": (Bump(5.0, 5.0, 1.0, -1.0),)},
            {"bumps": (Bump(5.0, 5.0, 1.0, 0.0),)},
            {"seed": -1},
            {"sample_time": float("inf")},
            {"start": (5.0, 5.0, float("nan"))},
            {"bumps": (Bump(5.0, 5.0, float("nan"), 1.0),)},
            {"background": float("inf")},
        ):
            with pytest.raises(ValueError):
                MissionConfig(**{**base, **bad})

    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    def test_int_fields_refuse_what_is_not_an_integer(self, small_domain, small_model, value):
        base = dict(domain=small_domain, model=small_model, delta=0.1, th=0.3)
        for name in ("seed", "max_epochs", "epoch_sample_cap"):
            with pytest.raises(
                ValueError, match=f"^{name} must be an integer >= [01], got {value}$"
            ):
                MissionConfig(**base, **{name: value})
        with pytest.raises(ValueError, match=f"^sample_cap must be an integer >= 1, got {value}$"):
            PlanLimits(sample_cap=value)
        with pytest.raises(ValueError, match=f"^resolution must be an integer >= 1, got {value}$"):
            GridDomain(0, 4, 0, 4, value)
        config = MissionConfig(**base, seed=np.int64(3), max_epochs=np.int64(2))
        assert config.seed == 3 and config.max_epochs == 2

    @pytest.mark.parametrize(
        "name, least", [("seed", 0), ("max_epochs", 1), ("epoch_sample_cap", 1)]
    )
    def test_int_fields_refuse_a_value_below_their_least(
        self, small_domain, small_model, name, least
    ):
        base = dict(domain=small_domain, model=small_model, delta=0.1, th=0.3)
        for value in (least - 1, -5):
            with pytest.raises(
                ValueError, match=f"^{name} must be an integer >= {least}, got {value}$"
            ):
                MissionConfig(**base, **{name: value})
        assert getattr(MissionConfig(**base, **{name: least}), name) == least

    def test_shapes_the_config_reader_cannot_produce_refused(self, small_model):
        with pytest.raises(ValueError, match="resolution"):
            GridDomain(0, 4, 0, 4, 2.5)  # 6.25 cells
        domain = GridDomain(0, 4, 0, np.int64(4), np.int64(4))
        assert domain.cell_centers.shape == (domain.n_cells, 2) == (16, 2)
        base = dict(domain=domain, model=small_model, delta=0.1, th=0.3)
        for start in ((1.0, 1.0), (1, 1, 8, 3)):
            with pytest.raises(ValueError, match="start"):
                MissionConfig(**base, start=start)
        assert MissionConfig(**base, start=(1, np.int64(1), 8)).start_position() == (1, 1, 8)


def bits(x):
    """x with every float as its hex text, so == compares bit for bit."""
    if is_dataclass(x):
        return bits(asdict(x))
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return bits(x.tolist())
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x


@st.composite
def small_missions(draw):
    """Small configs of every shape a mission takes: 1 to 3 levels, both
    modes and baselines, free starts, small caps, and cells that are not square."""
    x_max, y_max = draw(st.sampled_from([(12.0, 12.0), (40.0, 20.0), (7.5, 10.0)]))
    domain = GridDomain(0.0, x_max, 0.0, y_max, draw(st.integers(3, 8)))
    M = draw(st.integers(1, 3))
    model = FidelityModel(
        mu=(0.0, 0.05, -0.02)[:M],
        v=(0.5, 0.3, 0.15)[:M],
        l=(6.0, 3.0, 1.5)[:M],
        s=(0.1, 0.08, 0.05)[:M],
        z=(8.0, 4.0, 2.0)[:M],
    )
    mode = draw(st.sampled_from(["prior-draw", "planted"]))
    bumps, background = (), 0.0
    if mode == "planted":
        where = st.tuples(st.floats(0.0, x_max), st.floats(0.0, y_max))
        bumps = tuple(
            Bump(x, y, 1.2, draw(st.sampled_from([1.0, 2.5])))
            for x, y in draw(st.lists(where, min_size=1, max_size=2))
        )
        background = -0.1
    start = draw(
        st.none() | st.tuples(st.floats(0.0, x_max), st.floats(0.0, y_max), st.floats(0.0, 10.0))
    )
    return MissionConfig(
        domain=domain,
        model=model,
        delta=draw(st.sampled_from([0.1, 0.3])),
        th=draw(st.sampled_from([0.0, 0.3, 0.5])),
        seed=draw(st.integers(0, 2**16)),
        mode=mode,
        baseline=draw(st.sampled_from(BASELINES)),
        epoch_sample_cap=draw(st.integers(1, 12)),
        max_epochs=draw(st.integers(1, 5)),
        sigma_ratio=draw(st.sampled_from([0.5, 0.75, 0.95])),
        sample_time=draw(st.sampled_from([0.0, 1.0, 2.5])),
        termination_fraction=draw(st.sampled_from([0.6, 0.99])),
        bumps=bumps,
        background=background,
        start=start,
    )


@settings(max_examples=40, deadline=None)
@given(small_missions())
def test_run_mission_equals_the_reference_mission(config):
    # differential test of the epoch loop: the reference joins the scalar
    # layer references in the plainest order, so each epoch's plan, tours,
    # clock, log, labels and figures must come out bit for bit the same
    tours = []
    route = mission.plan_tours

    def recorded(*args):
        got = route(*args)
        tours.extend(got)
        return got

    with patch.object(mission, "plan_tours", recorded):
        report = run_mission(config)
    ref = reference_mission(config)
    assert bits(report.epochs) == bits(ref["epochs"])
    assert bits(report.plan_rows) == bits(ref["plan_rows"])
    assert bits(report.tour_rows) == bits(ref["tour_rows"])
    assert bits([(t.waypoints, t.length) for t in tours]) == bits(ref["tours"])
    assert bits(report.decay) == bits(ref["decay"])
    log = report.log
    assert bits((log.cell_indices(), log.values(), log.fidelities())) == bits(ref["log"])
    assert bits(report.labels) == bits(ref["labels"])
    assert bits(report.final_map.epoch) == bits(ref["epoch"])
    assert bits(report.time_classified) == bits(ref["time"])
    assert report.terminated == ref["terminated"]
    assert bits(report.clock_total) == bits(ref["clock_total"])
    assert bits(report.posterior_mu) == bits(ref["posterior_mu"])
    assert bits(report.posterior_sigma2) == bits(ref["posterior_sigma2"])


class TestCompareDecay:
    def test_curves_start_at_prior_variance(self, small_domain, small_model):
        config = MissionConfig(
            domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0
        )
        rows = compare_decay(config, n_samples=20)
        assert rows[0]["multi_fidelity_max_var"] == pytest.approx(small_model.prior_variance())
        assert rows[0]["single_fidelity_max_var"] == pytest.approx(small_model.prior_variance())
        assert [r["n"] for r in rows] == list(range(21))

    def test_multi_fidelity_dominates_early(self, small_domain, small_model):
        config = MissionConfig(
            domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0
        )
        rows = compare_decay(config, n_samples=40)
        m = np.array([r["multi_fidelity_max_var"] for r in rows])
        s = np.array([r["single_fidelity_max_var"] for r in rows])
        assert np.all(m[:11] <= s[:11] + 1e-12)

    def test_curves_monotone(self, small_domain, small_model):
        config = MissionConfig(
            domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0
        )
        rows = compare_decay(config, n_samples=30)
        for key in ("multi_fidelity_max_var", "single_fidelity_max_var"):
            curve = [r[key] for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_negative_sample_count_refused(self, small_domain, small_model):
        config = MissionConfig(domain=small_domain, model=small_model, delta=0.1, th=0.3)
        with pytest.raises(ValueError, match="^n_samples must be an integer >= 0, got -1$"):
            compare_decay(config, -1)
        assert [r["n"] for r in compare_decay(config, 0)] == [0]

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_sample_count_that_is_not_an_integer_refused(
        self, small_domain, small_model, n_samples
    ):
        # range() raised TypeError at 2.5 and took True as 1
        config = MissionConfig(domain=small_domain, model=small_model, delta=0.1, th=0.3)
        with pytest.raises(
            ValueError, match=f"^n_samples must be an integer >= 0, got {n_samples}$"
        ):
            compare_decay(config, n_samples)

    def test_each_sampler_starts_at_its_baselines_level(self, small_domain, small_model):
        # the config's own baseline does not pick either sampler's start
        config = MissionConfig(domain=small_domain, model=small_model, delta=0.1, th=0.3)
        for baseline in BASELINES:
            assert compare_decay(replace(config, baseline=baseline), 12) == compare_decay(
                config, 12
            )


@pytest.fixture(scope="module")
def study_config(small_domain, small_model):
    return MissionConfig(
        domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0, max_epochs=6
    )


class TestDetectionTimeStudy:
    def test_requires_prior_draw(self, small_domain, small_model):
        planted = MissionConfig(
            domain=small_domain,
            model=small_model,
            delta=0.1,
            th=0.3,
            seed=0,
            mode="planted",
            bumps=(Bump(6.5, 6.5, 1.0, 2.0),),
        )
        with pytest.raises(ValueError):
            detection_time_study(planted, seeds=range(3))

    def test_no_seed_refused(self, study_config):
        for seeds in ([], range(0), iter(())):
            with pytest.raises(ValueError, match="seeds must hold at least one seed"):
                detection_time_study(study_config, seeds)

    def test_no_bin_refused(self, study_config):
        with pytest.raises(ValueError, match="^delta_bins must be an integer >= 1, got 0$"):
            detection_time_study(study_config, range(1), delta_bins=0)

    @pytest.mark.parametrize("delta_bins", [2.5, True])
    def test_bin_count_that_is_not_an_integer_refused(self, study_config, delta_bins):
        # np.linspace raised TypeError at 2.5 and took True as 1
        with pytest.raises(
            ValueError, match=f"^delta_bins must be an integer >= 1, got {delta_bins}$"
        ):
            detection_time_study(study_config, range(1), delta_bins=delta_bins)

    def test_bins_and_censoring_bookkeeping(self, study_config):
        rows = detection_time_study(study_config, seeds=range(8))
        assert len(rows) == 3
        total = sum(r["classified"] + r["censored"] for r in rows)
        assert total == 8 * study_config.domain.n_cells - _boundary_cells(
            study_config, range(8)
        )
        for r in rows:
            assert r["censored"] >= 0
            assert r["delta_min"] <= r["delta_max"]

    def test_larger_margin_classifies_faster(self, study_config):
        times = [r["mean_time"] for r in detection_time_study(study_config, seeds=range(12))]
        assert times[0] > times[-1]

    def test_tighter_delta_takes_longer(self, small_domain, small_model):
        seeds = range(10)
        loose = MissionConfig(
            domain=small_domain, model=small_model, delta=0.2, th=0.3, seed=0, max_epochs=6
        )
        tight = MissionConfig(
            domain=small_domain, model=small_model, delta=0.05, th=0.3, seed=0, max_epochs=6
        )
        t_loose = _pooled_mean_time(loose, seeds)
        t_tight = _pooled_mean_time(tight, seeds)
        assert t_tight >= t_loose


def test_run_missions_is_run_mission_per_seed(small_domain, small_model):
    config = MissionConfig(
        domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=0, max_epochs=3
    )
    seeds = [3, 0, 2]
    batch = [dump_json(r.to_json_dict()) for r in run_missions(config, seeds)]
    one_by_one = [dump_json(run_mission(replace(config, seed=s)).to_json_dict()) for s in seeds]
    assert batch == one_by_one


def _boundary_cells(config, seeds) -> int:
    from mfgp_search.mission import BOUNDARY_TOL

    count = 0
    for rep in run_missions(config, seeds):
        count += int(np.sum(rep.delta_x <= BOUNDARY_TOL))
    return count


def _pooled_mean_time(config, seeds) -> float:
    times = []
    for rep in run_missions(config, seeds):
        done = rep.labels != Label.UNCERTAIN
        times.extend(rep.time_classified[done].tolist())
    return float(np.mean(times))


class TestOneAliveAtATime:
    """A mission holds one posterior snapshot and a study one report."""

    def test_previous_posterior_released_before_the_next(self, small_domain, small_model, monkeypatch):
        snapshots = []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in snapshots), "an earlier posterior is still alive"
            post = real(*args, **kwargs)
            snapshots.append(weakref.ref(post))
            return post

        real = mission.posterior
        monkeypatch.setattr(mission, "posterior", tracked)
        config = MissionConfig(
            domain=small_domain, model=small_model, delta=0.1, th=0.3, seed=3, max_epochs=4
        )
        report = run_mission(config)
        assert len(snapshots) == len(report.epochs) + 1 > 2

    def test_study_holds_one_report(self, study_config, monkeypatch):
        reports = []

        def tracked(config, *args):
            assert all(ref() is None for ref in reports), "an earlier report is still alive"
            report = real(config, *args)
            reports.append(weakref.ref(report))
            return report

        real = mission.run_mission
        monkeypatch.setattr(mission, "run_mission", tracked)
        detection_time_study(study_config, seeds=range(3))
        assert len(reports) == 3

    def test_study_draws_one_floor_per_mission(self, study_config, monkeypatch):
        calls = []

        def counted(domain, model, seed, **kwargs):
            calls.append(seed)
            return real(domain, model, seed, **kwargs)

        real = mission.sample_ground_truth
        monkeypatch.setattr(mission, "sample_ground_truth", counted)
        seeds = [3, 0, 2]
        reports = list(run_missions(study_config, seeds=seeds))
        assert len(reports) == 3 and calls == [mission._mission_seeds(s)[0] for s in seeds]

    def test_run_missions_yields(self, study_config):
        batch = run_missions(study_config, seeds=range(2))
        assert next(batch).config.seed == 0
        assert [r.config.seed for r in batch] == [1]


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.integers(1, 3000),
        elements=st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
    ),
    bins=st.integers(1, 12),
)
def test_linear_quantiles_match_numpy_bit_for_bit(values, bins):
    q = np.linspace(0.0, 1.0, bins + 1)
    assert mission._linear_quantiles(values, q).tobytes() == np.quantile(values, q).tobytes()


NO_NUMPY_MA = """
import sys
from mfgp_search.cli import main

assert main(["bench", "--config", "configs/desk.cfg", "--out", sys.argv[1],
             "--set", "bench.seeds=2"]) == 0
assert "numpy.ma" not in sys.modules
"""


def test_bench_never_imports_numpy_ma(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA, str(tmp_path / "out")],
        cwd=repo, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "detection_time.csv").exists()


INT_DOMAIN = GridDomain(0.0, 4.0, 0.0, 4.0, 4)  # 16 cells
INT_MODEL = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(2.0, 1.0), s=(0.1, 0.1), z=(8.0, 4.0))
INT_CONFIG = MissionConfig(domain=INT_DOMAIN, model=INT_MODEL, delta=0.1, th=0.3, max_epochs=1)


def _empty_posterior():
    return posterior(SampleLog(INT_DOMAIN), INT_MODEL)


# One case per call site of config._check_int: a call that hands it the
# value, the refusal before ", got <value>", and a value out of range.
INT_SITES = [
    pytest.param(
        lambda v: GridDomain(0, 4, 0, 4, v), "resolution must be an integer >= 1", 0,
        id="GridDomain.resolution",
    ),
    pytest.param(
        INT_MODEL.prior_variance, "fidelity level must be an integer in [1, 2]", 3,
        id="FidelityModel._check_level",
    ),
    pytest.param(
        lambda v: sample_ground_truth(INT_DOMAIN, INT_MODEL, 0).level_field(v),
        "fidelity level must be an integer in [1, 2]", 0,
        id="GroundTruth.level_field",
    ),
    pytest.param(
        lambda v: PlanLimits(sample_cap=v), "sample_cap must be an integer >= 1", 0,
        id="PlanLimits.sample_cap",
    ),
    pytest.param(
        lambda v: replace(INT_CONFIG, seed=v), "seed must be an integer >= 0", -1,
        id="MissionConfig.seed",
    ),
    pytest.param(
        lambda v: replace(INT_CONFIG, max_epochs=v), "max_epochs must be an integer >= 1", 0,
        id="MissionConfig.max_epochs",
    ),
    pytest.param(
        lambda v: replace(INT_CONFIG, epoch_sample_cap=v),
        "epoch_sample_cap must be an integer >= 1", 0,
        id="MissionConfig.epoch_sample_cap",
    ),
    pytest.param(
        lambda v: SampleLog(INT_DOMAIN).extend([2, v], [0.0, 0.0], 1),
        "cell index at entry 1 must be an integer in [0, 15]", 16,
        id="SampleLog.extend-cell",
    ),
    pytest.param(
        lambda v: SampleLog(INT_DOMAIN).extend([2], [0.0], v),
        "fidelity level must be an integer >= 1", 0,
        id="SampleLog.extend-level",
    ),
    pytest.param(
        lambda v: append_sample_variance_only(_empty_posterior(), v, 1),
        "cell must be an integer in [0, 15]", -1,
        id="append_sample_variance_only-cell",
    ),
    pytest.param(
        lambda v: append_sample_variance_only(_empty_posterior(), 2, v),
        "fidelity level must be an integer in [1, 2]", 3,
        id="append_sample_variance_only-level",
    ),
    pytest.param(
        lambda v: compare_decay(INT_CONFIG, v), "n_samples must be an integer >= 0", -1,
        id="compare_decay",
    ),
    pytest.param(
        lambda v: detection_time_study(INT_CONFIG, [0], delta_bins=v),
        "delta_bins must be an integer >= 1", 0,
        id="detection_time_study",
    ),
]


@pytest.mark.parametrize("call, refusal, out_of_range", INT_SITES)
def test_every_int_check_refuses_a_whole_float_a_bool_and_a_value_out_of_range(
    call, refusal, out_of_range
):
    for value in (2.0, True, out_of_range):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{refusal}, got {value!r}')}$"):
            call(value)


# The config reader's integer keys: _as_int casts their text first, so "2.0"
# is the integer 2 and "True" is refused by the cast; _check_int gets an int
# and refuses one below the key's least, naming the key.
@pytest.mark.parametrize(
    "key, least",
    [("model.levels", 1), ("planted.bumps", 0), ("bench.samples", 0), ("bench.seeds", 1),
     ("bench.delta_bins", 1)],
)
def test_every_int_key_refuses_a_value_out_of_range(key, least):
    kv = {**INT_CONFIG.to_flat_dict(), key: str(least - 1)}
    message = f"config key {key!r}: {key} must be an integer >= {least}, got {least - 1}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        resolve_config(kv)
    kv[key] = "True"
    with pytest.raises(ConfigError, match=f"^{re.escape(f'config key {key!r}: ')}"):
        resolve_config(kv)
