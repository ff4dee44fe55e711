import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgp_search import (
    FidelityModel,
    GridDomain,
    MissionConfig,
    PlanLimits,
    PlanningComplete,
    SampleLog,
    compare_decay,
    plan_epoch,
    posterior,
    run_mission,
    select_next_point,
    update_fidelity,
)
from mfgp_search import inference, planner
from mfgp_search.inference import append_sample_variance_only
from mfgp_search.planner import TIE_RTOL

from oracles import (
    full_grid_plan,
    greedy_plan_reference,
    scalar_resample_count,
    snapshot_decay,
    snapshot_plan,
)


@pytest.fixture
def grid20():
    return GridDomain(0.0, 20.0, 0.0, 20.0, 20)


@pytest.fixture
def m1_model():
    # l = 0.2 * side, s = 0.1 * v
    return FidelityModel(mu=(0.0,), v=(0.5,), l=(4.0,), s=(0.05,), z=(5.0,))


@pytest.fixture
def m2_model():
    return FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.08), z=(8.0, 4.0))


class TestSelectNextPoint:
    def test_uniform_prior_ties_break_to_first_cell(self, grid20, m1_model):
        post = posterior(SampleLog(grid20), m1_model)
        assert select_next_point(post, np.arange(grid20.n_cells)) == 0

    def test_after_one_sample_far_from_it(self, grid20, m1_model):
        log = SampleLog(grid20)
        log.append(210, 0.2, 1)  # the cell centred at (10.5, 10.5)
        post = posterior(log, m1_model)
        picked = select_next_point(post, np.arange(grid20.n_cells))
        # brute-force argmax over the variance grid agrees
        assert picked == int(np.argmax(post.sigma2))
        dist = np.hypot(*(grid20.cell_centers[picked] - grid20.cell_centers[210]))
        assert picked != 210
        assert dist >= m1_model.l[0]

    def test_single_candidate(self, grid20, m1_model):
        post = posterior(SampleLog(grid20), m1_model)
        picked = select_next_point(post, np.array([123]))
        assert type(picked) is int and picked == 123

    def test_empty_candidates_signal(self, grid20, m1_model):
        post = posterior(SampleLog(grid20), m1_model)
        with pytest.raises(PlanningComplete):
            select_next_point(post, np.array([], dtype=int))


class TestUpdateFidelity:
    def test_switch_threshold_value(self):
        model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0)
        )
        assert model.switch_threshold(1) == pytest.approx((4.0 / 16.0) * 0.09)
        assert model.switch_threshold(1) == pytest.approx(0.0225)
        with pytest.raises(ValueError, match="no switch threshold at the top fidelity level"):
            model.switch_threshold(2)

    def test_fresh_mission_does_not_switch(self, grid20, m2_model):
        post = posterior(SampleLog(grid20), m2_model)
        assert update_fidelity(1, post) == 1

    def test_top_level_absorbing(self, grid20, m2_model):
        post = posterior(SampleLog(grid20), m2_model)
        assert update_fidelity(2, post) == 2

    def test_switch_when_accessible_uncertainty_low(self, grid20, m2_model):
        # drive max variance down by dense sampling at level 1, then check
        post = posterior(SampleLog(grid20), m2_model)
        cands = np.arange(grid20.n_cells)
        level = 1
        for _ in range(200):
            cell = select_next_point(post, cands)
            post = append_sample_variance_only(post, cell, 1)
            level = update_fidelity(level, post, cands)
            if level == 2:
                break
        assert level == 2
        r = post.max_sigma2() - m2_model.inaccessible_variance(1)
        assert r <= m2_model.switch_threshold(1) + 1e-12

    def test_never_decrements(self, grid20, m2_model):
        post = posterior(SampleLog(grid20), m2_model)
        assert update_fidelity(2, post) == 2

    def test_level_outside_the_posteriors_model_refused(self, grid20, m2_model):
        post = posterior(SampleLog(grid20), m2_model)
        with pytest.raises(
            ValueError, match=r"^fidelity level must be an integer in \[1, 2\], got 3$"
        ):
            update_fidelity(3, post)

    def test_levels_advance_one_at_a_time(self, grid20):
        # sampling at level m can never push the max variance below the
        # still-unobserved layer mass xi_m, so switches fire one level at a
        # time: the re-check loop in update_fidelity must not over-advance
        model = FidelityModel(
            mu=(0.0, 0.0, 0.0),
            v=(0.5, 0.2, 0.1),
            l=(8.0, 4.0, 2.0),
            s=(0.02, 0.02, 0.02),
            z=(9.0, 6.0, 3.0),
        )
        post = posterior(SampleLog(grid20), model)
        cands = np.arange(grid20.n_cells)
        level = 1
        visited = [1]
        for _ in range(500):
            cell = select_next_point(post, cands)
            post = append_sample_variance_only(post, cell, level)
            new_level = update_fidelity(level, post, cands)
            assert new_level - level <= 1
            if new_level != level:
                visited.append(new_level)
            level = new_level
            if level == 3:
                break
        assert visited == [1, 2, 3]


GRID4 = GridDomain(0.0, 4.0, 0.0, 4.0, 4)
PRIOR4 = posterior(
    SampleLog(GRID4), FidelityModel(mu=(0.0,), v=(0.5,), l=(1.0,), s=(0.1,), z=(5.0,))
)
candidate_sets = st.lists(
    st.integers(0, GRID4.n_cells - 1), min_size=1, max_size=GRID4.n_cells, unique=True
).map(sorted)


K0 = PRIOR4.model.prior_variance()


def _pick(sigma2, candidates) -> int:
    post = replace(PRIOR4, sigma2=np.asarray(sigma2, dtype=float))
    return select_next_point(post, np.array(candidates))


class TestTieBreak:
    """Variances within TIE_RTOL * k0 of the maximum tie (k0 the prior
    variance); ties go to the lowest index."""

    @settings(max_examples=200, deadline=None)
    @given(
        candidate_sets,
        st.lists(st.integers(0, 4), min_size=16, max_size=16),
        st.lists(st.floats(-TIE_RTOL / 10, TIE_RTOL / 10), min_size=16, max_size=16),
        st.floats(1e-3, 10.0),
    )
    def test_perturbation_below_tolerance_keeps_pick(self, cands, levels, noise, scale):
        # exact ties and gaps of at least 1/105 relative between levels
        base = scale * (1.0 + 0.01 * np.array(levels))
        top = max(levels[c] for c in cands)
        lowest_tied = min(c for c in cands if levels[c] == top)
        assert _pick(base, cands) == lowest_tied
        assert _pick(base + K0 * np.array(noise), cands) == lowest_tied

    @settings(max_examples=200, deadline=None)
    @given(
        candidate_sets,
        st.data(),
        st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16),
        st.floats(1.5 * TIE_RTOL, 0.5),
    )
    def test_gap_above_tolerance_is_honoured(self, cands, data, values, gap):
        winner = data.draw(st.sampled_from(cands))
        sigma2 = np.array(values)
        second = max((sigma2[c] for c in cands if c != winner), default=1.0)
        sigma2[winner] = second + gap * K0
        assert _pick(sigma2, cands) == winner


class TestPlanEpoch:
    def test_matches_reference_loop_size(self, grid20, m1_model):
        post = posterior(SampleLog(grid20), m1_model)
        cands = np.arange(grid20.n_cells)
        plan = plan_epoch(post, 1, PlanLimits(), cands)
        ref_picks, ref_capped = greedy_plan_reference(
            grid20.cell_centers,
            cands,
            m1_model.v[0],
            m1_model.l[0],
            m1_model.s[0],
            sigma_ratio=0.75,
            cap=200,
        )
        assert not plan.capped and not ref_capped
        assert len(plan.samples) == len(ref_picks)
        assert plan.sigma_max_after <= 0.75 * plan.sigma_max_before + 1e-9

    def test_single_cell_tiny_noise(self, grid20):
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(4.0,), s=(5e-5,), z=(5.0,))
        post = posterior(SampleLog(grid20), model)
        plan = plan_epoch(post, 1, PlanLimits(), np.array([37]))
        expected = scalar_resample_count(0.25, (5e-5) ** 2, 0.75)
        assert len(plan.samples) == expected
        assert len(plan.samples) in (1, 2)
        assert all(s.cell == 37 for s in plan.samples)

    def test_ratio_one_gives_single_point(self, grid20, m1_model):
        post = posterior(SampleLog(grid20), m1_model)
        plan = plan_epoch(
            post,
            1,
            PlanLimits(sigma_ratio=1.0),
            np.arange(grid20.n_cells),
        )
        assert len(plan.samples) == 1

    def test_cap_flag(self, grid20):
        noisy = FidelityModel(mu=(0.0,), v=(0.5,), l=(4.0,), s=(5.0,), z=(5.0,))
        post = posterior(SampleLog(grid20), noisy)
        plan = plan_epoch(
            post,
            1,
            PlanLimits(sample_cap=5),
            np.arange(grid20.n_cells),
        )
        assert plan.capped
        assert len(plan.samples) == 5

    def test_deterministic(self, grid20, m2_model):
        post = posterior(SampleLog(grid20), m2_model)
        cands = np.arange(grid20.n_cells)
        a = plan_epoch(post, 1, PlanLimits(), cands)
        b = plan_epoch(post, 1, PlanLimits(), cands)
        assert a == b

    def test_plans_ignore_observed_values(self, grid20, m2_model):
        # identical designs with different observations plan identically
        log_a = SampleLog(grid20)
        log_b = SampleLog(grid20)
        rng = np.random.default_rng(0)
        for c in rng.integers(0, grid20.n_cells, size=6):
            log_a.append(int(c), float(rng.normal()), 1)
            log_b.append(int(c), float(rng.normal() + 5.0), 1)
        cands = np.arange(grid20.n_cells)
        plan_a = plan_epoch(posterior(log_a, m2_model), 1, PlanLimits(), cands)
        plan_b = plan_epoch(posterior(log_b, m2_model), 1, PlanLimits(), cands)
        assert plan_a.samples == plan_b.samples

    def test_fidelities_non_decreasing_within_plan(self, grid20, m2_model):
        post = posterior(SampleLog(grid20), m2_model)
        plan = plan_epoch(
            post,
            1,
            PlanLimits(sigma_ratio=0.3),
            np.arange(grid20.n_cells),
        )
        fids = [s.fidelity for s in plan.samples]
        assert fids == sorted(fids)
        assert plan.level_after >= 1

    @pytest.mark.parametrize("level", [0, 3])
    def test_level_outside_the_posteriors_model_refused(self, grid20, m2_model, level):
        # the level is checked against the posterior's own two-level model
        post = posterior(SampleLog(grid20), m2_model)
        cands = np.arange(grid20.n_cells)
        with pytest.raises(
            ValueError, match=rf"^fidelity level must be an integer in \[1, 2\], got {level}$"
        ):
            plan_epoch(post, level, PlanLimits(sigma_ratio=0.3), cands)

    @pytest.mark.parametrize("level", [1.5, 2.0, True])
    def test_level_that_is_not_an_integer_refused(self, grid20, m2_model, level):
        post = posterior(SampleLog(grid20), m2_model)
        cands = np.arange(grid20.n_cells)
        for call in (
            lambda: plan_epoch(post, level, PlanLimits(sigma_ratio=0.3), cands),
            lambda: update_fidelity(level, post),
            lambda: append_sample_variance_only(post, 3, level),
        ):
            with pytest.raises(
                ValueError, match=rf"^fidelity level must be an integer in \[1, 2\], got {level}$"
            ):
                call()

    def test_working_set_holds_only_the_rows_it_fills(self, grid20, m2_model):
        # a cap of 10**8 samples reserves nothing up front: the buffers start
        # at 16 rows on an empty log and double, so the peak follows the
        # rows planned (a reservation of the cap would ask for 320 GB)
        post = posterior(SampleLog(grid20), m2_model)
        row = 8 * grid20.n_cells
        for steps in (10, 150):
            tracemalloc.start()
            try:
                for _ in itertools.islice(planner._greedy_steps(post, 1, post.columns, 10**8), steps):
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * row * max(steps, 16), (steps, peak / row)

    def test_empty_candidates_raise(self, grid20, m1_model):
        post = posterior(SampleLog(grid20), m1_model)
        with pytest.raises(PlanningComplete):
            plan_epoch(post, 1, PlanLimits(), np.array([], dtype=int))

    def test_candidate_off_the_grid_refused(self, grid20, m1_model):
        # -1 names no cell: it must not plan the last cell
        post = posterior(SampleLog(grid20), m1_model)
        with pytest.raises(ValueError, match="outside"):
            plan_epoch(post, 1, PlanLimits(), np.array([-1]))

    def test_one_append_per_planned_sample(self, grid20, m2_model, monkeypatch):
        # one in-place step per planned sample; the snapshot API only runs
        # after a breakdown, and there is none here
        adds, snapshot_appends = [], []
        real_add = inference._WorkingSet.add

        def counted_add(self, position, level):
            adds.append((int(self.columns[position]), level))
            return real_add(self, position, level)

        monkeypatch.setattr(inference._WorkingSet, "add", counted_add)
        monkeypatch.setattr(
            planner, "append_sample_variance_only", lambda *a: snapshot_appends.append(a)
        )
        post = posterior(SampleLog(grid20), m2_model)
        cands = np.arange(0, grid20.n_cells, 3)
        plan = plan_epoch(post, 1, PlanLimits(sigma_ratio=0.3), cands)
        assert len(plan.samples) > 1
        assert adds == [(s.cell, s.fidelity) for s in plan.samples]
        assert snapshot_appends == []

    def test_input_posterior_untouched(self, grid20, m2_model):
        log = SampleLog(grid20)
        for c in (5, 77, 77, 210):
            log.append(c, 0.1, 1)
        post = posterior(log, m2_model)
        names = ("cells", "fidelities", "counts", "columns", "mu", "sigma2", "w")
        before = {name: getattr(post, name).copy() for name in names}
        cands = np.arange(1, grid20.n_cells, 2)
        limits = PlanLimits(sigma_ratio=0.3)
        plans = [plan_epoch(post, 1, limits, cands) for _ in range(2)]
        assert plans[0] == plans[1]
        for name in names:
            assert np.array_equal(getattr(post, name), before[name]), name

    @pytest.mark.parametrize("k", [0, 3])
    def test_breakdown_resumes_through_the_fallback(self, grid20, m2_model, monkeypatch, k):
        # the step breaks down when its set holds n_before + k samples, for
        # the pass and for the snapshot API alike, so both refactorize there
        log = SampleLog(grid20)
        for c in (40, 41, 300):
            log.append(c, 0.2, 1)
        post = posterior(log, m2_model)
        cands = np.arange(0, grid20.n_cells, 2)
        args = (post, 1, PlanLimits(sigma_ratio=0.5, sample_cap=12), cands)
        real_add = inference._WorkingSet.add

        def breaking_add(self, position, level):
            if self.base.n + len(self.appended) == post.n + k:
                return False
            return real_add(self, position, level)

        monkeypatch.setattr(inference._WorkingSet, "add", breaking_add)
        fallbacks = []
        real_append = planner.append_sample_variance_only

        def counted_append(*a):
            fallbacks.append(real_append(*a))
            return fallbacks[-1]

        monkeypatch.setattr(planner, "append_sample_variance_only", counted_append)
        refactorized = []
        real_posterior = inference.posterior
        monkeypatch.setattr(
            inference, "posterior", lambda *a: refactorized.append(a) or real_posterior(*a)
        )
        plan = plan_epoch(*args)
        assert len(plan.samples) > k + 1
        assert len(fallbacks) == len(refactorized) == 1
        assert np.array_equal(fallbacks[0].columns, cands)
        assert fallbacks[0].n == post.n + k + 1
        assert plan == snapshot_plan(*args)
        assert len(refactorized) == 2


MODELS = (
    FidelityModel(mu=(0.0,), v=(0.5,), l=(1.5,), s=(0.1,), z=(5.0,)),
    FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(2.0, 1.0), s=(0.1, 0.05), z=(8.0, 4.0)),
)


@st.composite
def planning_cases(draw):
    """A small grid, a posterior on a few records, a start level and candidate cells."""
    resolution = draw(st.integers(2, 6))
    domain = GridDomain(0.0, float(resolution), 0.0, float(resolution), resolution)
    n_cells = domain.n_cells
    model = draw(st.sampled_from(MODELS))
    level = draw(st.integers(1, model.levels))
    records = draw(
        st.lists(st.tuples(st.integers(1, level), st.integers(0, n_cells - 1)), max_size=6)
    )
    log = SampleLog(domain)
    for m, cell in sorted(records):
        log.append(cell, 0.0, m)
    cands = draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=n_cells, unique=True))
    limits = PlanLimits(
        sigma_ratio=draw(st.sampled_from([0.4, 0.75, 0.95])), sample_cap=draw(st.integers(1, 30))
    )
    post = posterior(log, model)
    return post, level, limits, np.array(sorted(cands))


@settings(max_examples=100, deadline=None)
@given(planning_cases())
def test_in_place_pass_matches_snapshot_loop(case):
    post, level, limits, cands = case
    assert plan_epoch(post, level, limits, cands) == snapshot_plan(post, level, limits, cands)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.sampled_from(MODELS), st.integers(0, 40))
def test_decay_curves_match_snapshot_loop(resolution, model, n_samples):
    domain = GridDomain(0.0, float(resolution), 0.0, float(resolution), resolution)
    config = MissionConfig(domain=domain, model=model, delta=0.1, th=0.0)
    assert compare_decay(config, n_samples) == snapshot_decay(config, n_samples)


def test_decay_breakdown_refactorizes_through_the_planner(monkeypatch):
    # near-noiseless samples on a coarse grid: the greedy step meets a pivot
    # that breaks down, with no patched append, and goes on from a
    # refactorized snapshot
    domain = GridDomain(0.0, 20.0, 0.0, 20.0, 5)
    model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(1e-7, 1e-7), z=(8.0, 4.0))
    config = MissionConfig(domain=domain, model=model, delta=0.1, th=0.3)
    expected = snapshot_decay(config, 80)
    refactorized = []
    real_posterior = inference.posterior
    monkeypatch.setattr(
        inference, "posterior", lambda *a: refactorized.append(a) or real_posterior(*a)
    )
    assert compare_decay(config, 80) == expected
    assert len(refactorized) == 2


def test_no_package_path_converts_a_centre(monkeypatch):
    # a mission, the decay curves and the decay whose greedy step breaks down
    # (the setup above) name every cell by its index and never read one back
    # from a centre
    def refuse(self, x, y):
        raise AssertionError(f"index_of({x}, {y}) was called")

    monkeypatch.setattr(GridDomain, "index_of", refuse)
    model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.08), z=(8.0, 4.0))
    config = MissionConfig(
        domain=GridDomain(0.0, 8.0, 0.0, 8.0, 8), model=model, delta=0.1, th=0.3, max_epochs=3
    )
    assert len(run_mission(config).log) > 0
    compare_decay(config, 20)
    domain = GridDomain(0.0, 20.0, 0.0, 20.0, 5)
    model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(1e-7, 1e-7), z=(8.0, 4.0))
    config = MissionConfig(domain=domain, model=model, delta=0.1, th=0.3)
    refactorized = []
    real_posterior = inference.posterior
    monkeypatch.setattr(
        inference, "posterior", lambda *a: refactorized.append(a) or real_posterior(*a)
    )
    compare_decay(config, 80)
    assert len(refactorized) == 2


@settings(max_examples=100, deadline=None)
@given(planning_cases())
def test_candidate_planning_matches_full_grid_loop(case):
    post, level, limits, cands = case
    plan = plan_epoch(post, level, limits, cands)
    ref, fidelities, variances, trace, capped = full_grid_plan(post, level, limits, cands)
    got = [s.cell for s in plan.samples]
    tol = 1e-12 * post.model.prior_variance()
    k = next((k for k, (a, b) in enumerate(zip(got, ref)) if a != b), None)
    if k is None:
        assert len(got) == len(ref) and plan.capped == capped
        k = len(got)
    else:
        # A tie that roundoff decides, should the restricted and full-grid
        # gemvs (which sum in different orders) differ by more than the
        # TIE_RTOL * k0 band.  Both picks tie in the reference; the plans
        # part ways here.
        assert abs(variances[k][got[k]] - variances[k][ref[k]]) <= tol
    assert [s.fidelity for s in plan.samples[:k]] == fidelities[:k]
    before = [np.sqrt(v[c]) for v, c in zip(variances[:k], ref)]
    np.testing.assert_allclose([s.sigma_before for s in plan.samples[:k]], before, rtol=0, atol=tol)
    np.testing.assert_allclose(plan.max_var_trace[:k], trace[:k], rtol=0, atol=tol)
