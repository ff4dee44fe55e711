import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgp_search import (
    ClassificationMap,
    ConfidenceParams,
    FidelityModel,
    GridDomain,
    Label,
    MissionConfig,
    SampleLog,
    c_value,
    check_termination,
    classify_epoch,
    confidence_interval,
    posterior,
    run_missions,
    sample_ground_truth,
)
from mfgp_search.cli import _write_occupancy


class TestConfidenceInterval:
    def test_zero_sigma_degenerates_to_point(self):
        low, up = confidence_interval(0.7, 0.0, 0.05)
        assert low == up == 0.7

    def test_width_constant_at_eps_005(self):
        assert c_value(0.05) == pytest.approx(2.1459660262893476, abs=1e-12)

    def test_epsilon_range_validated(self):
        for bad in (0.5, 0.7, 0.0, -0.1):
            with pytest.raises(ValueError):
                confidence_interval(0.0, 1.0, bad)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, -1.0, 0.1)

    @given(
        mu=st.floats(-5, 5),
        sigma=st.floats(0, 3),
        eps=st.floats(0.001, 0.499, exclude_max=True),
    )
    @settings(max_examples=60)
    def test_interval_symmetric_about_mean(self, mu, sigma, eps):
        low, up = confidence_interval(mu, sigma, eps)
        assert low <= mu <= up
        assert (mu - low) == pytest.approx(up - mu, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_tail_mass_monte_carlo(self, eps):
        # each tail beyond the interval carries at most eps probability
        n = 1_000_000
        rng = np.random.default_rng(123)
        mu, sigma = 0.3, 0.8
        draws = rng.normal(mu, sigma, size=n)
        low, up = confidence_interval(mu, sigma, eps)
        slack = 3.0 * np.sqrt(eps * (1 - eps) / n)
        assert np.mean(draws >= up) <= eps + slack
        assert np.mean(draws <= low) <= eps + slack


class TestConfidenceParams:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            ConfidenceParams(delta=0.6, th=0.5)
        with pytest.raises(ValueError):
            ConfidenceParams(delta=0.0, th=0.5)

    def test_epsilon_schedule_halves(self):
        params = ConfidenceParams(delta=0.1, th=0.5)
        eps = [params.epsilon(j) for j in range(1, 8)]
        assert eps[0] == pytest.approx(0.05)
        for a, b in zip(eps, eps[1:]):
            assert b == pytest.approx(a / 2)
        assert sum(params.epsilon(j) for j in range(1, 60)) == pytest.approx(0.1)

    def test_epsilon_past_the_last_normal_tolerance_refused(self):
        params = ConfidenceParams(delta=0.1, th=0.5)
        assert params.last_epoch == 1018
        assert params.epsilon(1018) == 0.1 / 2.0**1018 >= sys.float_info.min
        for epoch in (1019, 1100):  # 0.1 / 2.0**1100 raised OverflowError
            with pytest.raises(ValueError, match=f"epoch {epoch}: the tolerance"):
                params.epsilon(epoch)


@pytest.fixture
def setup():
    domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
    model = FidelityModel(mu=(0.0,), v=(0.5,), l=(3.0,), s=(0.05,), z=(5.0,))
    return domain, model


class TestClassifyEpoch:
    def test_confident_cell_becomes_target(self, setup):
        domain, model = setup
        log = SampleLog(domain)
        for _ in range(30):
            log.append(44, 2.0, 1)
        post = posterior(log, model)
        cmap = classify_epoch(
            post, ClassificationMap.initial(domain), ConfidenceParams(0.1, 0.5), 1, 10.0
        )
        assert cmap.labels[44] == Label.TARGET
        assert cmap.epoch[44] == 1
        assert cmap.time[44] == 10.0

    def test_prior_only_wide_interval_stays_uncertain(self, setup):
        domain, model = setup
        post = posterior(SampleLog(domain), model)
        # c(0.05) * 0.5 ~ 1.07 spans th=0.5 on both sides of mu=0... use th inside band
        cmap = classify_epoch(
            post, ClassificationMap.initial(domain), ConfidenceParams(0.1, 0.5), 1
        )
        assert cmap.classified_fraction() == 0.0

    def test_labels_permanent(self, setup):
        domain, model = setup
        log = SampleLog(domain)
        for _ in range(30):
            log.append(44, 2.0, 1)
        post = posterior(log, model)
        params = ConfidenceParams(0.1, 0.5)
        cmap = classify_epoch(post, ClassificationMap.initial(domain), params, 1)
        # contradictory posterior later must not flip the frozen label
        log2 = SampleLog(domain)
        for _ in range(60):
            log2.append(44, -2.0, 1)
        post2 = posterior(log2, model)
        cmap2 = classify_epoch(post2, cmap, params, 2)
        assert cmap2.labels[44] == Label.TARGET
        assert cmap2.epoch[44] == 1

    def test_empty_cells_leave_candidates(self, setup):
        domain, model = setup
        log = SampleLog(domain)
        for _ in range(30):
            log.append(7, -2.0, 1)
        for _ in range(30):
            log.append(90, 2.0, 1)
        post = posterior(log, model)
        cmap = classify_epoch(
            post, ClassificationMap.initial(domain), ConfidenceParams(0.1, 0.5), 1
        )
        assert cmap.labels[7] == Label.EMPTY
        assert 7 not in cmap.candidate_indices()
        # target cells stay in the sampling space
        assert cmap.labels[90] == Label.TARGET
        assert 90 in cmap.candidate_indices()

    def test_map_on_another_grid_refused(self, setup):
        # same 10 x 10 cells, but a 20 m floor against a 40 m one: cell k of
        # the posterior is not cell k of the map
        _, model = setup
        near, far = GridDomain(0.0, 20.0, 0.0, 20.0, 10), GridDomain(0.0, 40.0, 0.0, 40.0, 10)
        log = SampleLog(near)
        for _ in range(30):
            log.append(44, 2.0, 1)
        post = posterior(log, model)
        cmap = ClassificationMap.initial(far)
        with pytest.raises(ValueError) as err:
            classify_epoch(post, cmap, ConfidenceParams(0.1, 0.5), 1)
        assert repr(near) in str(err.value) and repr(far) in str(err.value)

    def test_snapshot_isolation(self, setup):
        domain, model = setup
        post = posterior(SampleLog(domain), model)
        base = ClassificationMap.initial(domain)
        classify_epoch(post, base, ConfidenceParams(0.1, 0.5), 1)
        assert base.classified_fraction() == 0.0


class TestCheckTermination:
    def test_all_classified_done(self, setup):
        domain, _ = setup
        cmap = ClassificationMap.initial(domain)
        labels = np.full(domain.n_cells, int(Label.EMPTY), dtype=np.int8)
        done = ClassificationMap(domain, labels, cmap.epoch, cmap.time)
        assert check_termination(done)

    def test_989_of_1000_continues(self):
        domain = GridDomain(0.0, 1.0, 0.0, 1.0, 100)  # 10 000 cells, 9 890 classified
        cmap0 = ClassificationMap.initial(domain)
        labels = np.full(domain.n_cells, int(Label.EMPTY), dtype=np.int8)
        labels[:110] = int(Label.UNCERTAIN)
        cmap = ClassificationMap(domain, labels, cmap0.epoch, cmap0.time)
        assert cmap.classified_fraction() == pytest.approx(0.989)
        assert not check_termination(cmap, fraction=0.99)
        assert not check_termination(cmap)

    def test_exact_threshold_done(self, setup):
        domain, _ = setup
        labels = np.full(domain.n_cells, int(Label.EMPTY), dtype=np.int8)
        labels[0] = int(Label.UNCERTAIN)
        cmap0 = ClassificationMap.initial(domain)
        cmap = ClassificationMap(domain, labels, cmap0.epoch, cmap0.time)
        assert check_termination(cmap, fraction=0.99)  # 99/100 cells


class TestCoverageProperty:
    def test_interval_covers_truth_within_budget(self):
        # prior-draw missions: per epoch, the fraction of cells whose true
        # score escapes [L, U] stays within the 2*eps budget (pooled over
        # 30 seeds, binomial slack)
        domain = GridDomain(0.0, 12.0, 0.0, 12.0, 12)
        model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.08), z=(8.0, 4.0)
        )
        config = MissionConfig(
            domain=domain, model=model, delta=0.1, th=0.3, seed=0, max_epochs=5
        )
        reports = run_missions(config, seeds=range(30))
        params = ConfidenceParams(0.1, 0.3)
        n_cells = domain.n_cells
        by_epoch: dict[int, list[int]] = {}
        for rep in reports:
            for er in rep.epochs:
                by_epoch.setdefault(er.epoch, []).append(er.coverage_outside)
        assert by_epoch, "missions produced no epochs"
        for j, counts in by_epoch.items():
            eps = params.epsilon(j)
            n = len(counts) * n_cells
            slack = 3.0 * np.sqrt(2 * eps * max(1 - 2 * eps, 0.0) / n)
            assert sum(counts) / n <= 2 * eps + slack, f"epoch {j}"


class TestExports:
    def test_occupancy_rows_and_pgm(self, setup, tmp_path):
        domain, model = setup
        log = SampleLog(domain)
        for _ in range(30):
            log.append(44, 2.0, 1)
        post = posterior(log, model)
        cmap = classify_epoch(
            post, ClassificationMap.initial(domain), ConfidenceParams(0.1, 0.5), 1, 3.5
        )
        _write_occupancy(tmp_path, cmap)
        header, *rows = (tmp_path / "occupancy.csv").read_text().splitlines()
        assert header == "x,y,label,epoch,time"
        rows = [r.split(",") for r in rows]
        assert len(rows) == domain.n_cells
        labels = {r[2] for r in rows}
        assert labels <= {"uncertain", "empty", "target"}
        target_row = rows[44]
        assert [float(v) for v in target_row[:2]] == domain.cell_centers[44].tolist()
        assert target_row[2:] == ["target", "1", "3.5"]
        magic, width, height, top, *img = (tmp_path / "occupancy.pgm").read_text().split()
        assert (magic, width, height, top) == ("P2", "10", "10", "255")
        assert len(img) == domain.n_cells
        assert img[44] == "255"
