import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfgp_search import (
    FidelityModel,
    GridDomain,
    NumericalError,
    SampleLog,
    append_sample_variance_only,
    greedy_info_gain,
    posterior,
)
from mfgp_search import inference
from mfgp_search._linalg import DEFAULT_JITTER, jittered_cholesky
from mfgp_search.field_model import covariance_tables, sample_ground_truth, windows
from mfgp_search.inference import (
    _chain_terms,
    _grid_cov,
    _WorkingSet,
    diagnostics_lines,
    restrict,
)
from mfgp_search.planner import select_next_point

from conftest import random_mixed_log
from oracles import (
    _pair_cov,
    dense_raw_posterior,
    factor_append_variance,
    joint_gaussian_posterior,
    log_order_chain,
    log_marginal_likelihood,
    logdet_information,
    record_chain,
    record_posterior,
    sq_exp,
    textbook_gp_posterior,
)


@pytest.fixture
def small_domain():
    return GridDomain(0.0, 10.0, 0.0, 10.0, 10)


@pytest.fixture
def two_level(small_domain):
    return FidelityModel(
        mu=(0.1, 0.05), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.08), z=(8.0, 4.0)
    )


@pytest.fixture
def one_level():
    return FidelityModel(mu=(0.2,), v=(0.6,), l=(3.0,), s=(0.1,), z=(5.0,))


class TestSampleLog:
    def test_fidelity_must_not_decrease(self, small_domain):
        log = SampleLog(small_domain)
        log.append(0, 0.1, 1)
        log.append(1, 0.1, 2)
        with pytest.raises(ValueError):
            log.append(2, 0.1, 1)

    def test_append_refuses_a_fractional_cell(self, small_domain):
        log = SampleLog(small_domain)
        with pytest.raises(ValueError, match="cell index 0.5 at entry 0 is not an integer"):
            log.append(0.5, 0.1, 1)
        assert len(log) == 0

    @pytest.mark.parametrize("level", [0, -1])
    def test_level_below_one_refused(self, small_domain, level):
        log = SampleLog(small_domain)
        with pytest.raises(ValueError, match=f"fidelity level {level} out of range"):
            log.append(3, 0.5, level)
        assert len(log) == 0

    def test_extend_matches_appends(self, small_domain):
        # one record per cell index, all at one level, as appends would give
        a, b = SampleLog(small_domain), SampleLog(small_domain)
        cells, values = [7, 3, 7, 99], np.array([0.5, -1.25, 2.0, 0.1])
        for c, y in zip(cells, values):
            a.append(c, float(y), 2)
        b.extend(cells, values, 2)
        for read in ("cell_indices", "locations", "values", "fidelities"):
            assert getattr(a, read)().tolist() == getattr(b, read)().tolist()
        assert b.cell_indices().tolist() == cells

    @pytest.mark.parametrize(
        "cells, values, message",
        [
            ([100], [0.0], "out of range"),
            ([-1], [0.0], "out of range"),
            ([1, 2], [0.0], "2 cells"),
            # int() would store 2.7 as cell 2, and one NaN value makes every posterior mean NaN
            ([1, 2.7], [0.0, 0.0], "cell index 2.7 at entry 1 is not an integer"),
            ([np.float64(-0.5)], [0.0], "cell index -0.5 at entry 0 is not an integer"),
            ([1, float("nan")], [0.0, 0.0], "cell index nan at entry 1 is not an integer"),
            ([3, 4], [0.5, float("nan")], "value nan at entry 1 is not finite"),
            ([3, 4], [-np.inf, 0.5], "value -inf at entry 0 is not finite"),
            # float(True) is 1.0: a bool would log cell 1
            ([True, np.True_], [0.1, 0.2], "cell index True at entry 0 is not an integer"),
            ([1, np.True_], [0.1, 0.2], "cell index True at entry 1 is not an integer"),
            # one integer rule: a whole float or a 0-d array is not a cell index either
            ([1, 3.0], [0.0, 0.0], "cell index 3.0 at entry 1 is not an integer"),
            ([np.float64(3.0)], [0.0], "cell index 3.0 at entry 0 is not an integer"),
            ([2, np.array(3)], [0.0, 0.0], "cell index 3 at entry 1 is not an integer"),
        ],
    )
    def test_extend_refuses_bad_records(self, small_domain, cells, values, message):
        log = SampleLog(small_domain)
        with pytest.raises(ValueError, match=message):
            log.extend(cells, values, 1)
        assert len(log) == 0

    @pytest.mark.parametrize("fidelity", [1.5, np.float64(2.25), float("nan"), True, np.True_, 2.0])
    def test_extend_refuses_a_fractional_fidelity(self, small_domain, fidelity):
        # int() would store 1.5 or True as level 1; 2.0 is refused as every level check does
        log = SampleLog(small_domain)
        with pytest.raises(ValueError, match=f"fidelity level {fidelity} is not an integer"):
            log.extend([3], [0.5], fidelity)
        assert len(log) == 0

    def test_extend_takes_numpy_integers(self, small_domain):
        log = SampleLog(small_domain)
        log.extend([np.int64(3), np.int32(4)], [0.5, 0.25], np.int64(2))
        assert log.cell_indices().tolist() == [3, 4]
        assert log.fidelities().tolist() == [2, 2]
        assert all(type(v) is int for v in (*log._cells, *log._fidelities))

    def test_level_above_model_named(self, small_domain, two_level):
        log = SampleLog(small_domain)
        log.append(3, 0.5, 1)
        log.append(4, 0.5, 3)
        for call in (
            lambda: posterior(log, two_level),
            lambda: greedy_info_gain(log, two_level),
            lambda: diagnostics_lines(log, two_level),
        ):
            with pytest.raises(ValueError, match=r"fidelity level 3 out of range \[1, 2\]"):
                call()


def _evidence(log, model, **kw):
    return log_marginal_likelihood(
        log.locations(), log.fidelities(), log.values(), model.mu, model.v, model.l, model.s, **kw
    )


def _gathered_gram(domain, model, mrec):
    """Table covariance of every cell pair, records at levels mrec[cell]."""
    rows, cols = np.divmod(np.arange(domain.n_cells), domain.resolution)
    rc = np.column_stack([rows, cols])
    tables = covariance_tables(domain, model)
    return _pair_cov(tables, rc[:, None, :], mrec[:, None], rc[None, :, :], mrec[None, :])


def _brute_layer_sums(domain, model):
    """Layer sums 1..t over all cell pairs from the kernel formula, per t."""
    cells = domain.cell_centers
    acc = np.zeros((domain.n_cells, domain.n_cells))
    sums = []
    for v, l in zip(model.v, model.l):
        acc = acc + sq_exp(v, l, cells, cells)
        sums.append(acc)
    return sums


class TestCovarianceTable:
    def test_bit_equal_to_layer_sum_on_desk_grid(self, desk_domain, desk_model):
        # desk cell centres are exact binary fractions, so the offset table
        # and the pairwise formula see the same squared distances
        for t, brute in enumerate(_brute_layer_sums(desk_domain, desk_model), start=1):
            mrec = np.full(desk_domain.n_cells, t)
            assert np.array_equal(_gathered_gram(desk_domain, desk_model, mrec), brute)

    def test_inexact_rectangular_grid(self, desk_model):
        # cell size 2/3 x 13/30 is not exact in binary: offsets and centre
        # differences round differently, by a few ulps of the prior variance
        domain = GridDomain(0.0, 20.0, 0.0, 13.0, 30)
        for t, brute in enumerate(_brute_layer_sums(domain, desk_model), start=1):
            gathered = _gathered_gram(domain, desk_model, np.full(domain.n_cells, t))
            scale = desk_model.prior_variance(t)
            np.testing.assert_allclose(gathered, brute, rtol=0.0, atol=1e-15 * scale)

    def test_truncates_at_lower_level(self, small_domain):
        model = FidelityModel(
            mu=(0.0, 0.0, 0.0), v=(0.5, 0.3, 0.2), l=(4.0, 2.0, 1.0), s=(0.1,) * 3,
            z=(8.0, 4.0, 2.0),
        )
        rng = np.random.default_rng(10)
        mrec = rng.integers(1, 4, size=small_domain.n_cells)
        gathered = _gathered_gram(small_domain, model, mrec)
        brute = _brute_layer_sums(small_domain, model)
        top = np.minimum(mrec[:, None], mrec[None, :])
        for t in (1, 2, 3):
            assert np.array_equal(gathered[top == t], brute[t - 1][top == t])

    def test_read_only_and_cached(self, small_domain, two_level):
        table = covariance_tables(small_domain, two_level)
        assert table.shape == (2, 19, 19)
        assert not table.flags.writeable
        assert covariance_tables(small_domain, two_level) is table

    def test_layer_sums_are_the_running_sum_of_the_layers(self, desk_model):
        # one-layer models each give one layer's kernel table
        layers = [
            FidelityModel(mu=(mu,), v=(v,), l=(l,), s=(s,), z=(z,))
            for mu, v, l, s, z in zip(*(getattr(desk_model, k) for k in ("mu", "v", "l", "s", "z")))
        ]
        for domain in (GridDomain(0.0, 20.0, 0.0, 13.0, 30), GridDomain(0.0, 13.7, 0.0, 13.7, 17)):
            # reflected about the zero offset and summed layer by layer
            table = covariance_tables(domain, desk_model)
            assert np.array_equal(table, table[:, ::-1, :])
            assert np.array_equal(table, table[:, :, ::-1])
            one = np.concatenate([covariance_tables(domain, layer) for layer in layers])
            assert np.array_equal(table, np.cumsum(one, axis=0))


class TestCrossCovariance:
    def test_empty_log(self, small_domain, two_level):
        log = SampleLog(small_domain)
        cov = windows(covariance_tables(small_domain, two_level))
        assert _grid_cov(cov, log.cell_indices(), log.fidelities()).size == 0

    def test_top_fidelity_self_covariance_is_prior_variance(self, small_domain, two_level):
        log = SampleLog(small_domain)
        log.append(7, 0.0, 2)
        cov = windows(covariance_tables(small_domain, two_level))
        vec = _grid_cov(cov, log.cell_indices(), log.fidelities())[:, 7]
        assert vec[0] == pytest.approx(0.34)

    def test_windows_match_offset_gather(self, desk_model):
        # the window views copy table entries, so the gather is bit for bit
        # the per-offset lookup, also on a grid whose offsets are inexact
        domain = GridDomain(0.0, 20.0, 0.0, 13.0, 30)
        rng = np.random.default_rng(11)
        rc = rng.integers(0, 30, size=(50, 2))
        m = rng.integers(1, 3, size=50)
        grid = np.column_stack(np.divmod(np.arange(domain.n_cells), 30))
        table = covariance_tables(domain, desk_model)
        expected = _pair_cov(table, rc[:, None], m[:, None], grid[None], desk_model.levels)
        cov = windows(table)
        assert np.array_equal(_grid_cov(cov, rc[:, 0] * 30 + rc[:, 1], m), expected)
        assert not cov.flags.writeable

    def test_one_reflected_table_per_domain_and_model(self, small_domain, two_level):
        # the windows and every working set read the one cached table
        table = covariance_tables(small_domain, two_level)
        assert np.shares_memory(windows(table), table)
        post = posterior(SampleLog(small_domain), two_level)
        for _ in range(2):
            assert _WorkingSet(post, post.columns)._reflected.base is table

    def test_low_fidelity_truncates_layer_sum(self, small_domain, two_level):
        log = SampleLog(small_domain)
        log.append(7, 0.0, 1)
        cov = windows(covariance_tables(small_domain, two_level))
        vec = _grid_cov(cov, log.cell_indices(), log.fidelities())[:, 7]
        assert vec[0] == pytest.approx(0.25)


class TestJointCovariance:
    def test_symmetry_and_nu(self, small_domain, two_level):
        log = random_mixed_log(small_domain, two_level, np.random.default_rng(0), 8)
        rc = np.column_stack(np.divmod(log.cell_indices(), small_domain.resolution))
        m = log.fidelities()
        tables = covariance_tables(small_domain, two_level)
        K = _pair_cov(tables, rc[:, None, :], m[:, None], rc[None, :, :], m[None, :])
        assert np.array_equal(K, K.T)
        # one record at level m: the posterior at its own cell shrinks
        # y - nu_m by K_fm / (K_mm + s_m^2), with nu_m and s_m^2 level sums
        for m in (1, 2):
            single = SampleLog(small_domain)
            single.append(7, 0.9, m)
            post = posterior(single, two_level, jitter_scale=0.0)
            k = two_level.prior_variance(m)
            nu = sum(two_level.mu[:m])
            noise = two_level.s[m - 1] ** 2
            expected = two_level.prior_mean() + k / (k + noise) * (0.9 - nu)
            assert post.mu[7] == pytest.approx(expected, rel=1e-12)


class TestPosterior:
    def test_empty_log_gives_prior(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        assert np.all(post.mu == pytest.approx(0.15))
        assert np.all(post.sigma2 == pytest.approx(0.34))

    def test_single_sample_scalar_update(self, small_domain, one_level):
        log = SampleLog(small_domain)
        y = 0.9
        log.append(55, y, 1)
        post = posterior(log, one_level)
        var0 = one_level.v[0] ** 2
        s2 = one_level.s[0] ** 2
        expected = one_level.mu[0] + var0 / (var0 + s2) * (y - one_level.mu[0])
        assert post.mu[55] == pytest.approx(expected, rel=1e-9)

    def test_matches_joint_gaussian_oracle(self, small_domain, two_level):
        rng = np.random.default_rng(1)
        for _ in range(10):
            log = random_mixed_log(small_domain, two_level, rng, 5)
            post = posterior(log, two_level)
            mu_ref, var_ref = joint_gaussian_posterior(
                log.locations(),
                log.fidelities(),
                log.values(),
                small_domain.cell_centers,
                two_level.mu,
                two_level.v,
                two_level.l,
                two_level.s,
            )
            mu_scale = max(1.0, float(np.max(np.abs(mu_ref))))
            var_scale = max(1.0, float(np.max(np.abs(var_ref))))
            assert np.max(np.abs(post.mu - mu_ref)) <= 1e-8 * mu_scale
            assert np.max(np.abs(post.sigma2 - var_ref)) <= 1e-8 * var_scale

    def test_variance_bounded_by_prior(self, small_domain, two_level):
        log = random_mixed_log(small_domain, two_level, np.random.default_rng(2), 12)
        post = posterior(log, two_level)
        assert np.all(post.sigma2 <= two_level.prior_variance() + 1e-12)
        assert np.all(post.sigma2 >= 0.0)

    def test_variance_independent_of_observations(self, small_domain, two_level):
        rng = np.random.default_rng(3)
        log_a = random_mixed_log(small_domain, two_level, rng, 9)
        log_b = SampleLog(small_domain)
        for c, m in zip(log_a.cell_indices(), log_a.fidelities()):
            log_b.append(int(c), 123.456, int(m))
        pa = posterior(log_a, two_level)
        pb = posterior(log_b, two_level)
        np.testing.assert_allclose(pa.sigma2, pb.sigma2, atol=1e-12)

    def test_factorization_failure_reports_jitter(self, small_domain):
        # distinct cells, (numerically) zero noise and a length scale far
        # beyond the grid: the covariance is singular to working precision
        # when the jitter safeguard is disabled
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(50.0,), s=(1e-12,), z=(5.0,))
        log = SampleLog(small_domain)
        for cell in range(0, small_domain.n_cells, 3):
            log.append(cell, 0.1, 1)
        with pytest.raises(NumericalError) as err:
            posterior(log, model, jitter_scale=0.0)
        assert err.value.jitter == 0.0


class TestAppendVarianceOnly:
    def test_duplicate_of_resolved_cell_changes_nothing(self, small_domain):
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(3.0,), s=(1e-6,), z=(5.0,))
        log = SampleLog(small_domain)
        cell = 42
        log.append(cell, 0.2, 1)
        post = posterior(log, model)
        assert post.sigma2[cell] <= 1e-10
        appended = append_sample_variance_only(post, cell, 1)
        assert appended.sigma2[cell] == pytest.approx(post.sigma2[cell], abs=1e-10)

    def test_max_variance_never_increases(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        rng = np.random.default_rng(4)
        fidelity = 1
        for k in range(15):
            if k == 7:
                fidelity = 2
            cell = int(rng.integers(0, small_domain.n_cells))
            nxt = append_sample_variance_only(post, cell, fidelity)
            assert nxt.sigma2.max() <= post.sigma2.max() + 1e-12
            assert np.all(nxt.sigma2 <= post.sigma2 + 1e-12)
            post = nxt

    def test_appends_match_batch_recompute(self, small_domain, two_level):
        rng = np.random.default_rng(5)
        base = random_mixed_log(small_domain, two_level, rng, 4)
        # keep extension fidelities valid: start at the base log's last level
        start_level = int(base.fidelities()[-1])
        post = posterior(base, two_level)
        extended = SampleLog(small_domain)
        for c, m, y in zip(base.cell_indices(), base.fidelities(), base.values()):
            extended.append(int(c), float(y), int(m))
        for k in range(10):
            level = min(2, start_level + (1 if k >= 5 else 0))
            cell = int(rng.integers(0, small_domain.n_cells))
            post = append_sample_variance_only(post, cell, level)
            extended.append(cell, float(rng.normal()), level)
        batch = posterior(extended, two_level)
        np.testing.assert_allclose(post.sigma2, batch.sigma2, atol=1e-8)

    def test_refactorized_fallback_matches_fresh_posterior(self, small_domain, monkeypatch):
        # a repeat at a cell already pinned down by near-noiseless replicates
        # leaves a pivot below the append floor (no jitter in the base), so
        # the append refactorizes through the module-level posterior
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(3.0,), s=(1e-7,), z=(5.0,))
        log = SampleLog(small_domain)
        for cell, y in ((3, 0.1), (40, 0.2), (3, 0.3), (40, 0.4), (3, 0.5)):
            log.append(cell, y, 1)
        base = posterior(log, model, jitter_scale=0.0)
        assert base.n == 5 and list(base.counts) == [3, 2]
        calls = []
        fresh_posterior = inference.posterior

        def counted(*args):
            calls.append(args)
            return fresh_posterior(*args)

        monkeypatch.setattr(inference, "posterior", counted)
        appended = append_sample_variance_only(base, 3, 1)
        assert len(calls) == 1
        log.append(3, 0.0, 1)
        fresh = fresh_posterior(log, model)
        assert appended.n == fresh.n == 6
        for name in ("cells", "fidelities", "counts", "sigma2", "w"):
            assert np.array_equal(getattr(appended, name), getattr(fresh, name)), name
        assert appended.jitter == fresh.jitter
        assert appended.mu is base.mu

    def test_fallback_keeps_the_columns(self, small_domain, monkeypatch):
        # the set-up of the test above, on a snapshot over five cells
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(3.0,), s=(1e-7,), z=(5.0,))
        log = SampleLog(small_domain)
        for cell, y in ((3, 0.1), (40, 0.2), (3, 0.3), (40, 0.4), (3, 0.5)):
            log.append(cell, y, 1)
        columns = np.array([0, 3, 17, 40, 99])
        base = restrict(posterior(log, model, jitter_scale=0.0), columns)
        calls = []
        fresh_posterior = inference.posterior

        def counted(*args):
            calls.append(args)
            return fresh_posterior(*args)

        monkeypatch.setattr(inference, "posterior", counted)
        appended = append_sample_variance_only(base, 3, 1)
        assert len(calls) == 1
        log.append(3, 0.0, 1)
        fresh = restrict(fresh_posterior(log, model), columns)
        assert np.array_equal(appended.columns, columns)
        assert appended.w.shape == (2, len(columns))
        for name in ("cells", "counts", "sigma2", "w"):
            assert np.array_equal(getattr(appended, name), getattr(fresh, name)), name
        assert appended.mu is base.mu

    def test_restricted_appends_match_full_grid(self, small_domain, two_level):
        full = _base_posterior(small_domain, two_level)
        columns = np.array([1, 2, 17, 40, 41, 64, 99])
        part = restrict(full, columns)
        for c, m in ((40, 1), (2, 1), (40, 2), (99, 2)):
            full = append_sample_variance_only(full, c, m)
            part = append_sample_variance_only(part, c, m)
        np.testing.assert_allclose(part.sigma2, full.sigma2[columns], rtol=0, atol=1e-14)
        np.testing.assert_allclose(part.w, full.w[:, columns], rtol=0, atol=1e-14)
        assert part.max_sigma2(columns[2:]) == part.sigma2[2:].max()

    def test_append_outside_the_columns_raises(self, small_domain, two_level):
        part = restrict(_base_posterior(small_domain, two_level), np.array([1, 5, 7]))
        for cell in (0, 2, 99):
            with pytest.raises(ValueError, match=f"cell {cell} outside"):
                append_sample_variance_only(part, cell, 1)
        with pytest.raises(ValueError, match="outside"):
            restrict(part, np.array([1, 6]))

    @pytest.mark.parametrize(
        "cell",
        [(3.0, 5.0), [3], 2.5, True, np.True_, np.array(True), 3.0, np.float64(3.0), np.array(3)],
    )
    def test_append_refuses_what_is_not_one_whole_cell(self, small_domain, two_level, cell):
        # a coordinate pair of two columns, a one-cell list, a fraction,
        # bools, which float() would read as cell 1, and a whole float or a
        # 0-d array, which the one integer rule refuses as it refuses levels
        post = posterior(SampleLog(small_domain), two_level)
        with pytest.raises(ValueError, match=rf"cell {re.escape(repr(cell))} is not an integer"):
            append_sample_variance_only(post, cell, 1)

    def test_append_takes_numpy_integers(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        _same_snapshot(
            append_sample_variance_only(post, np.int64(3), np.int32(1)),
            append_sample_variance_only(post, 3, 1),
        )

    def test_cell_off_the_grid_is_outside_every_snapshot(self, small_domain, two_level):
        # -1 names no cell: it must not read the last column
        full = _base_posterior(small_domain, two_level)
        for post in (full, restrict(full, np.array([1, 5, 99]))):
            for cell in (-1, small_domain.n_cells):
                with pytest.raises(ValueError, match="outside"):
                    post.column_of(cell)
                with pytest.raises(ValueError, match="outside"):
                    post.max_sigma2(np.array([cell]))

    @pytest.mark.parametrize("columns", [[], [5, 1], [3, 3]])
    def test_columns_sorted_unique_non_empty(self, small_domain, two_level, columns):
        with pytest.raises(ValueError, match="sorted"):
            restrict(_base_posterior(small_domain, two_level), np.array(columns, dtype=int))

    def test_snapshots_are_independent(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        before = post.sigma2.copy()
        append_sample_variance_only(post, 3, 1)
        assert np.array_equal(post.sigma2, before)

    def test_lower_level_than_last_record_rejected(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        post = append_sample_variance_only(post, 0, 2)
        # far apart, so the rank-one step itself would not break down
        with pytest.raises(ValueError, match="non-decreasing"):
            append_sample_variance_only(post, 99, 1)


def _base_posterior(domain, model):
    log = random_mixed_log(domain, model, np.random.default_rng(11), 6)
    # keep every later append at a valid level: the base ends at level 1
    ones = SampleLog(domain)
    for c, y in zip(log.cell_indices(), log.values()):
        ones.append(int(c), float(y), 1)
    return posterior(ones, model)


def _appended(post, cells_and_levels):
    for c, m in cells_and_levels:
        post = append_sample_variance_only(post, c, m)
    return post


def _same_snapshot(a, b):
    for name in ("cells", "fidelities", "mu", "sigma2", "w"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestSnapshotBranches:
    """Every append copies its parent's rows, so appends to one parent never meet."""

    def test_two_appends_to_one_parent(self, small_domain, two_level):
        parent = _appended(_base_posterior(small_domain, two_level), [(2, 1)])
        w, sigma2 = parent.w.copy(), parent.sigma2.copy()
        first = _appended(parent, [(17, 1)])
        second = _appended(parent, [(71, 2)])
        fresh = _base_posterior(small_domain, two_level)
        _same_snapshot(first, _appended(fresh, [(2, 1), (17, 1)]))
        _same_snapshot(second, _appended(fresh, [(2, 1), (71, 2)]))
        assert np.array_equal(parent.w, w)
        assert np.array_equal(parent.sigma2, sigma2)

    def test_append_to_older_snapshot_after_tip_moved(self, small_domain, two_level):
        parent = _base_posterior(small_domain, two_level)
        older = _appended(parent, [(5, 1)])
        w, sigma2 = older.w.copy(), older.sigma2.copy()
        tip = _appended(older, [(40, 1), (41, 2), (99, 2)])
        branch = _appended(older, [(60, 1), (61, 1)])
        fresh = _base_posterior(small_domain, two_level)
        _same_snapshot(tip, _appended(fresh, [(5, 1), (40, 1), (41, 2), (99, 2)]))
        _same_snapshot(branch, _appended(fresh, [(5, 1), (60, 1), (61, 1)]))
        assert np.array_equal(older.w, w)
        assert np.array_equal(older.sigma2, sigma2)

    def test_growth_past_capacity_keeps_rows(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        cells = [(int(c), 1) for c in np.random.default_rng(12).integers(0, 100, size=40)]
        steps = [post]
        for c, m in cells:
            steps.append(_appended(steps[-1], [(c, m)]))
        for k, snap in enumerate(steps):
            assert snap.w.shape == (k, small_domain.n_cells)
            assert np.array_equal(snap.w, steps[-1].w[:k])

    def test_returned_arrays_read_only(self, small_domain, two_level):
        parent = _base_posterior(small_domain, two_level)
        snaps = [parent, _appended(parent, [(3, 1)])]
        snaps.append(_appended(parent, [(8, 2)]))  # a branch
        for snap in snaps:
            for name in ("cells", "fidelities", "mu", "sigma2", "w"):
                assert not getattr(snap, name).flags.writeable, name


SMALL = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
TWO_LEVEL = FidelityModel(
    mu=(0.1, 0.05), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.08), z=(8.0, 4.0)
)


@st.composite
def nondecreasing_log(draw):
    """(cells, levels, n_start): a few distinct cells, so most logs repeat."""
    n = draw(st.integers(0, 24))
    pool = draw(st.lists(st.integers(0, SMALL.n_cells - 1), min_size=1, max_size=12))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    levels = sorted(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    return cells, levels, draw(st.integers(0, n))


def _log_of(cells, levels):
    log = SampleLog(SMALL)
    for c, m in zip(cells, levels):
        log.append(c, 0.0, m)
    return log


class TestMatchesFactorReference:
    """The factor-free appends and chain against the Cholesky-factor forms."""

    @settings(max_examples=80, deadline=None)
    @given(nondecreasing_log())
    @example(([], [], 0))
    @example(([5], [2], 0))
    @example(([5], [1], 1))
    @example(([5, 5, 5, 7], [1, 1, 2, 2], 2))
    def test_appends(self, case):
        cells, levels, n_start = case
        post = posterior(_log_of(cells[:n_start], levels[:n_start]), TWO_LEVEL)
        post = _appended(post, zip(cells[n_start:], levels[n_start:]))
        ref = factor_append_variance(
            SMALL.cell_centers[cells], levels, n_start, SMALL.cell_centers,
            TWO_LEVEL.v, TWO_LEVEL.l, TWO_LEVEL.s,
        )
        tol = 1e-12 * TWO_LEVEL.prior_variance()
        np.testing.assert_allclose(post.sigma2, ref, rtol=0.0, atol=tol)

    @settings(max_examples=80, deadline=None)
    @given(nondecreasing_log())
    @example(([], [], 0))
    @example(([5], [2], 0))
    @example(([5, 5, 5, 7], [1, 1, 2, 2], 0))
    def test_chain(self, case):
        cells, levels, _ = case
        terms, var_before = _chain_terms(_log_of(cells, levels), TWO_LEVEL)
        ref_terms, ref_var = log_order_chain(
            SMALL.cell_centers[cells], levels, TWO_LEVEL.v, TWO_LEVEL.l, TWO_LEVEL.s
        )
        np.testing.assert_allclose(terms, ref_terms, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(var_before, ref_var, rtol=0.0, atol=1e-12)


CHAIN_MODELS = {
    1: FidelityModel(mu=(0.2,), v=(0.6,), l=(3.0,), s=(0.1,), z=(5.0,)),
    2: TWO_LEVEL,
    3: FidelityModel(
        mu=(0.1, 0.05, 0.02), v=(0.6, 0.4, 0.2), l=(8.0, 4.0, 2.0), s=(0.1, 0.1, 0.1),
        z=(9.0, 6.0, 3.0),
    ),
}


class TestBlockedChain:
    """The chain in blocks of ``_CHAIN_BLOCK`` records against one append
    step per record on all of W, across block edges."""

    @pytest.mark.parametrize("levels", sorted(CHAIN_MODELS))
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 200), distinct=st.integers(1, 12), seed=st.integers(0, 2**32 - 1)
    )
    @example(n=63, distinct=3, seed=1)
    @example(n=64, distinct=1, seed=2)
    @example(n=65, distinct=5, seed=3)
    @example(n=128, distinct=2, seed=4)
    @example(n=129, distinct=12, seed=5)
    @example(n=200, distinct=4, seed=6)
    def test_matches_record_chain(self, levels, n, distinct, seed):
        assert inference._CHAIN_BLOCK == 64  # the examples sit on its edges
        model = CHAIN_MODELS[levels]
        rng = np.random.default_rng(seed)
        pool = rng.choice(SMALL.n_cells, size=distinct, replace=False)
        cells = rng.choice(pool, size=n).tolist()
        log = _log_of(cells, np.sort(rng.integers(1, levels + 1, size=n)).tolist())
        terms, var_before = _chain_terms(log, model)
        ref_terms, ref_var = record_chain(log, model)
        # largest differences seen over 600 random logs: 3.8e-15 * k0 in the
        # variance and 5.9e-14 in a term
        tol = 1e-12 * model.prior_variance()
        np.testing.assert_allclose(var_before, ref_var, rtol=0.0, atol=tol)
        np.testing.assert_allclose(terms, ref_terms, rtol=0.0, atol=1e-12)

    def test_breakdown_names_record_and_pivot(self):
        # with (numerically) no noise the second sample of a cell adds
        # nothing, so its pivot is zero
        model = FidelityModel(mu=(0.2,), v=(0.6,), l=(3.0,), s=(1e-12,), z=(5.0,))
        with pytest.raises(NumericalError, match=r"information-chain pivot \S+ at record 1 "):
            _chain_terms(_log_of([12, 12, 12], [1, 1, 1]), model)


BLOCK_DOMAIN = GridDomain(0.0, 15.0, 0.0, 15.0, 15)


class TestBlockedPosterior:
    """The posterior in blocks of ``_CHAIN_BLOCK`` distinct records against
    one append step per record on all of W, across block edges."""

    @pytest.mark.parametrize("levels", sorted(CHAIN_MODELS))
    @settings(max_examples=25, deadline=None)
    @given(
        distinct=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
        jitter_scale=st.sampled_from([1e-10, 0.0]),
    )
    @example(distinct=0, seed=1, jitter_scale=1e-10)
    @example(distinct=63, seed=2, jitter_scale=0.0)
    @example(distinct=64, seed=3, jitter_scale=1e-10)
    @example(distinct=65, seed=4, jitter_scale=0.0)
    @example(distinct=128, seed=5, jitter_scale=1e-10)
    @example(distinct=129, seed=6, jitter_scale=0.0)
    @example(distinct=200, seed=7, jitter_scale=1e-10)
    @example(distinct=200, seed=8, jitter_scale=0.0)
    def test_matches_record_posterior(self, levels, distinct, seed, jitter_scale):
        assert inference._CHAIN_BLOCK == 64  # the examples sit on its edges
        model = CHAIN_MODELS[levels]
        domain = BLOCK_DOMAIN
        rng = np.random.default_rng(seed)
        # distinct (cell, level) pairs, each sampled 1-3 times, in level order
        pairs = rng.choice(domain.n_cells * levels, size=distinct, replace=False)
        level, cell = np.divmod(np.sort(pairs), domain.n_cells)
        reps = rng.integers(1, 4, size=distinct)
        log = SampleLog(domain)
        for c, m in zip(np.repeat(cell, reps), np.repeat(level + 1, reps)):
            log.append(int(c), float(rng.normal()), int(m))
        post = posterior(log, model, jitter_scale=jitter_scale)
        mu, sigma2, w = record_posterior(log, domain, model, jitter_scale=jitter_scale)
        assert len(post.fidelities) == distinct
        # largest differences seen over 300 random logs: 7.6e-13 in the mean,
        # 5.2e-15 * k0 in the variance and 2.4e-14 in W
        np.testing.assert_allclose(post.mu, mu, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(
            post.sigma2, sigma2, rtol=0.0, atol=1e-13 * model.prior_variance()
        )
        np.testing.assert_allclose(post.w, w, rtol=0.0, atol=1e-12)

    def test_breakdown_names_record_and_pivot(self):
        # a length scale far beyond the grid and (numerically) no noise: every
        # record copies the first, so the second distinct record's pivot is zero
        model = FidelityModel(mu=(0.2,), v=(0.6,), l=(1e10,), s=(1e-12,), z=(5.0,))
        with pytest.raises(NumericalError, match=r"posterior pivot \S+ at record 1 ") as err:
            posterior(_log_of([3, 12, 12, 40], [1, 1, 1, 1]), model, jitter_scale=1e-20)
        assert err.value.jitter == pytest.approx(1e-20 * 0.36, rel=1e-12)


@st.composite
def replicated_log(draw):
    """(cells, levels, values): many samples on a few cells, so most repeat."""
    n = draw(st.integers(1, 300))
    pool = draw(st.lists(st.integers(0, SMALL.n_cells - 1), min_size=1, max_size=20, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(pool, size=n), np.sort(rng.integers(1, 3, size=n)), rng.normal(size=n)


class TestReplicateAggregation:
    @settings(max_examples=60, deadline=None)
    @given(replicated_log(), st.sampled_from([1e-10, 0.0]))
    @example((np.array([5, 5]), np.array([1, 1]), np.array([0.3, -0.1])), 0.0)
    def test_matches_dense_raw_log_posterior(self, case, jitter_scale):
        # k replicates with noise s^2 + jitter each are one record with
        # noise (s^2 + jitter) / k at their mean value
        cells, levels, values = case
        log = SampleLog(SMALL)
        for c, m, y in zip(cells, levels, values):
            log.append(int(c), float(y), int(m))
        post = posterior(log, TWO_LEVEL, jitter_scale=jitter_scale)
        mu, var, jitter = dense_raw_posterior(
            log.locations(), levels, values, SMALL.cell_centers,
            TWO_LEVEL.mu, TWO_LEVEL.v, TWO_LEVEL.l, TWO_LEVEL.s, jitter_scale=jitter_scale,
        )
        assert post.jitter == jitter
        assert post.n == len(values)
        assert len(post.fidelities) == len(set(zip(cells, levels)))
        np.testing.assert_allclose(post.mu, mu, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(
            post.sigma2, np.maximum(var, 0.0), rtol=0.0, atol=1e-13 * TWO_LEVEL.prior_variance()
        )


class TestLeanAssembly:
    def test_jittered_cholesky_jitters_in_place(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(30, 30))
        K = A @ A.T
        kept = K.copy()
        L, jitter = jittered_cholesky(K)
        assert jitter == DEFAULT_JITTER * float(np.max(np.diagonal(kept)))
        assert np.array_equal(L, np.linalg.cholesky(kept + jitter * np.eye(30)))
        assert np.array_equal(K, kept + jitter * np.eye(30))


class TestGreedyInfoGain:
    def test_empty_log_is_zero(self, small_domain, two_level):
        assert greedy_info_gain(SampleLog(small_domain), two_level) == 0.0

    def test_single_sample_closed_form(self, small_domain, one_level):
        log = SampleLog(small_domain)
        log.append(12, 0.5, 1)
        expected = 0.5 * np.log1p(one_level.v[0] ** 2 / one_level.s[0] ** 2)
        assert greedy_info_gain(log, one_level) == pytest.approx(expected, rel=1e-12)

    def test_matches_logdet_oracle(self, small_domain, one_level):
        rng = np.random.default_rng(6)
        for n in (3, 8, 14, 20):
            log = SampleLog(small_domain)
            idx = rng.integers(0, small_domain.n_cells, size=n)
            for c in idx:
                log.append(int(c), float(rng.normal()), 1)
            chain = greedy_info_gain(log, one_level)
            ref = logdet_information(
                log.locations(), one_level.v[0], one_level.l[0], one_level.s[0]
            )
            assert chain == pytest.approx(ref, abs=1e-8)

    def test_information_subadditive_for_layer_sum(self, small_domain, two_level):
        # sampling the sum of two layers cannot beat sampling each alone
        rng = np.random.default_rng(7)
        for _ in range(10):
            pts = small_domain.cell_centers[
                rng.choice(small_domain.n_cells, size=6, replace=False)
            ]
            s = 0.1
            K1 = sq_exp(two_level.v[0], two_level.l[0], pts, pts)
            K2 = sq_exp(two_level.v[1], two_level.l[1], pts, pts)
            eye = np.eye(6)
            half_logdet = lambda A: 0.5 * np.linalg.slogdet(eye + A / (s * s))[1]
            assert half_logdet(K1 + K2) <= half_logdet(K1) + half_logdet(K2) + 1e-8


class TestUncertaintyReductionBound:
    def test_greedy_bound_small_horizon(self, small_domain, two_level):
        # constant-noise greedy sampling at the top level on a small grid
        sigma0_sq = two_level.prior_variance()
        s = two_level.s[-1]
        coef = 2.0 * sigma0_sq / np.log1p(sigma0_sq / (s * s))
        post = posterior(SampleLog(small_domain), two_level)
        cands = np.arange(small_domain.n_cells)
        log = SampleLog(small_domain)
        for n in range(1, 41):
            cell = select_next_point(post, cands)
            post = append_sample_variance_only(post, cell, two_level.levels)
            log.append(cell, 0.0, two_level.levels)
            bound = coef * greedy_info_gain(log, two_level) / n
            assert post.sigma2.max() <= bound + 1e-12

    def test_max_variance_monotone_under_greedy(self, small_domain, two_level):
        post = posterior(SampleLog(small_domain), two_level)
        cands = np.arange(small_domain.n_cells)
        prev = post.sigma2.max()
        for _ in range(25):
            cell = select_next_point(post, cands)
            post = append_sample_variance_only(post, cell, 1)
            cur = post.sigma2.max()
            assert cur <= prev + 1e-12
            prev = cur


class TestSingleFidelityReduction:
    def test_pipeline_equals_textbook_gp(self, small_domain, one_level):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            log = SampleLog(small_domain)
            for c in rng.integers(0, small_domain.n_cells, size=n):
                log.append(int(c), float(rng.normal()), 1)
            post = posterior(log, one_level, jitter_scale=0.0)
            mu_ref, var_ref = textbook_gp_posterior(
                log.locations(),
                log.values(),
                small_domain.cell_centers,
                one_level.mu[0],
                one_level.v[0],
                one_level.l[0],
                one_level.s[0],
            )
            np.testing.assert_allclose(post.mu, mu_ref, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(post.sigma2, var_ref, rtol=1e-10, atol=1e-10)


class TestLogMarginalLikelihood:
    def test_single_sample_scalar_density(self, small_domain, one_level):
        log = SampleLog(small_domain)
        y = 0.7
        log.append(3, y, 1)
        var = one_level.v[0] ** 2 + one_level.s[0] ** 2
        expected = -0.5 * np.log(2 * np.pi * var) - 0.5 * (y - one_level.mu[0]) ** 2 / var
        assert _evidence(log, one_level, jitter_scale=0.0) == pytest.approx(expected, rel=1e-12)

    def test_true_hyperparameters_usually_win(self, small_domain, two_level):
        # data simulated from the model should out-score a badly perturbed model
        wrong = FidelityModel(
            mu=two_level.mu,
            v=tuple(1.8 * v for v in two_level.v),
            l=tuple(0.45 * l for l in two_level.l),
            s=two_level.s,
            z=two_level.z,
        )
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            truth = sample_ground_truth(small_domain, two_level, seed=seed)
            log = SampleLog(small_domain)
            cells = rng.choice(small_domain.n_cells, size=40, replace=False)
            fids = np.sort(rng.integers(1, 3, size=40))
            for c, m in zip(cells, fids):
                noisy = truth.f[m - 1, c] + rng.normal(0.0, two_level.s[m - 1])
                log.append(int(c), float(noisy), int(m))
            if _evidence(log, two_level) > _evidence(log, wrong):
                wins += 1
        assert wins >= 45

    def test_singular_design_fails_without_jitter(self, small_domain):
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(3.0,), s=(1e-12,), z=(5.0,))
        log = SampleLog(small_domain)
        log.append(10, 0.3, 1)
        log.append(10, 0.3, 1)
        with pytest.raises(np.linalg.LinAlgError):
            _evidence(log, model, jitter_scale=0.0)


class TestDiagnostics:
    def test_one_line_per_sample(self, small_domain, two_level):
        log = random_mixed_log(small_domain, two_level, np.random.default_rng(9), 5)
        lines = diagnostics_lines(log, two_level)
        assert len(lines) == 5
        assert lines[0].startswith("sample n=1 ")
        fields = dict(kv.split("=") for kv in lines[0].split()[1:])
        assert float(fields["sigma2_before"]) == pytest.approx(0.34)
        assert all("info_gain=" in ln for ln in lines)
