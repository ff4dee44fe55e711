import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgp_search import (
    Bump,
    FidelityModel,
    GridDomain,
    MissionConfig,
    kernel_eval,
    measure,
    sample_ground_truth,
)
from mfgp_search.formats import write_grid_csv, write_pgm
from mfgp_search.field_model import (
    _gaussian_blur,
    _level_cholesky,
    field_to_grid,
    offset_table,
    offset_windows,
)
from mfgp_search.inference import covariance_table

from oracles import sq_exp


class TestGridDomain:
    def test_rejects_degenerate_extent(self):
        with pytest.raises(ValueError):
            GridDomain(0, 0, 0, 1, 4)
        with pytest.raises(ValueError):
            GridDomain(0, 1, 0, 1, 0)
        with pytest.raises(ValueError, match="finite"):
            GridDomain(0, float("inf"), 0, 1, 4)

    def test_cell_index_bijection(self):
        d = GridDomain(-2.0, 3.0, 1.0, 7.0, 7)
        for i in range(d.n_cells):
            x, y = d.cell_center(i)
            assert d.index_of(x, y) == i

    def test_centers_evenly_spaced(self):
        d = GridDomain(0.0, 10.0, 0.0, 10.0, 5)
        xs = np.unique(d.cell_centers[:, 0])
        assert np.allclose(np.diff(xs), 2.0)
        assert xs[0] == 1.0 and xs[-1] == 9.0

    def test_off_center_point_rejected(self):
        d = GridDomain(0.0, 10.0, 0.0, 10.0, 5)
        with pytest.raises(ValueError):
            d.index_of(1.3, 1.0)
        with pytest.raises(ValueError):
            d.index_of(-4.0, 1.0)


class TestFidelityModel:
    def test_orderings_enforced(self):
        with pytest.raises(ValueError):
            FidelityModel(mu=(0, 0), v=(0.3, 0.5), l=(4, 2), s=(0.1, 0.1), z=(8, 4))
        with pytest.raises(ValueError):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(2, 4), s=(0.1, 0.1), z=(8, 4))
        with pytest.raises(ValueError):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(4, 2), s=(0.1, 0.1), z=(4, 8))
        with pytest.raises(ValueError):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(4, 2), s=(0.1, -0.1), z=(8, 4))
        nan = float("nan")
        with pytest.raises(ValueError, match="finite"):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(4, nan), s=(0.1, 0.1), z=(8, 4))
        with pytest.raises(ValueError, match="finite"):
            FidelityModel(mu=(nan, 0), v=(0.5, 0.3), l=(4, 2), s=(0.1, 0.1), z=(8, 4))

    def test_level_variance_strictly_increasing(self):
        m = FidelityModel(
            mu=(0, 0, 0), v=(0.6, 0.4, 0.2), l=(8, 4, 2), s=(0.1, 0.1, 0.1), z=(9, 6, 3)
        )
        variances = [m.prior_variance(k) for k in range(1, 4)]
        assert all(b > a for a, b in zip(variances, variances[1:]))
        assert m.inaccessible_variance(3) == 0.0


class TestKernel:
    def setup_method(self):
        self.model = FidelityModel(
            mu=(0.1, 0.05), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0)
        )

    def test_zero_distance_is_amplitude_squared(self):
        x = np.array([1.0, 2.0])
        assert kernel_eval(1, x, x, self.model) == pytest.approx(0.25)

    def test_unit_parameters_at_sqrt2(self):
        model = FidelityModel(mu=(0.0,), v=(1.0,), l=(1.0,), s=(0.1,), z=(5.0,))
        val = kernel_eval(1, np.array([0.0, 0.0]), np.array([1.0, 1.0]), model)
        assert val == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_decay_to_zero(self):
        model = FidelityModel(mu=(0.0,), v=(0.5,), l=(2.0,), s=(0.1,), z=(5.0,))
        far = kernel_eval(1, np.array([0.0, 0.0]), np.array([1e4, 0.0]), model)
        assert far == 0.0

    def test_fidelity_index_validated(self):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            kernel_eval(0, x, x, self.model)
        with pytest.raises(ValueError):
            kernel_eval(3, x, x, self.model)

    @given(
        x1=st.floats(-10, 10),
        y1=st.floats(-10, 10),
        x2=st.floats(-10, 10),
        y2=st.floats(-10, 10),
        m=st.integers(1, 2),
    )
    @settings(max_examples=60)
    def test_symmetry(self, x1, y1, x2, y2, m):
        a = np.array([x1, y1])
        b = np.array([x2, y2])
        assert kernel_eval(m, a, b, self.model) == kernel_eval(m, b, a, self.model)

    def test_prior_gram_psd_on_grid_points(self):
        domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
        rng = np.random.default_rng(3)
        rows, cols = np.divmod(rng.choice(domain.n_cells, size=50, replace=False), 10)
        full = covariance_table(domain, self.model)[-1]
        gram = full[np.abs(rows[:, None] - rows), np.abs(cols[:, None] - cols)]
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8


class TestPriorMoments:
    # the full-field prior: mean from FidelityModel, covariance from the
    # top level of the inference layer's covariance table
    domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)

    def test_mean_is_sum_of_level_means(self):
        model = FidelityModel(
            mu=(0.1, 0.05), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0)
        )
        assert model.prior_mean() == pytest.approx(0.15)

    def test_moments_sum_in_layer_order(self):
        # left to right from zero on every Python: sum() of floats is
        # compensated from 3.12 on and would give 0.6 here
        model = FidelityModel(
            mu=(0.1, 0.2, 0.3), v=(0.5, 0.3, 0.2), l=(4.0, 2.0, 1.0), s=(0.1,) * 3, z=(8.0, 4.0, 2.0)
        )
        assert model.prior_mean() == (0.1 + 0.2) + 0.3 != 0.6
        assert model.prior_variance(2) == 0.5 * 0.5 + 0.3 * 0.3
        assert not model._moments.flags.writeable

    def test_variance_is_sum_of_amplitudes(self):
        model = FidelityModel(
            mu=(0.1, 0.05), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0)
        )
        assert covariance_table(self.domain, model)[-1, 0, 0] == pytest.approx(0.34)

    def test_single_level_reduces_to_kernel(self):
        model = FidelityModel(mu=(0.2,), v=(0.7,), l=(3.0,), s=(0.1,), z=(5.0,))
        # centres of cells (row 0, col 0) and (row 1, col 2) on 1 m cells
        a, b = np.array([0.5, 0.5]), np.array([2.5, 1.5])
        cov = covariance_table(self.domain, model)[0, 1, 2]
        assert cov == pytest.approx(kernel_eval(1, a, b, model))


class TestGroundTruth:
    def setup_method(self):
        self.domain = GridDomain(0.0, 20.0, 0.0, 20.0, 20)
        self.model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(0.1, 0.1), z=(8.0, 4.0)
        )

    def test_prior_draw_deterministic(self):
        a = sample_ground_truth(self.domain, self.model, seed=11)
        b = sample_ground_truth(self.domain, self.model, seed=11)
        assert np.array_equal(a.f, b.f)

    def test_planted_empty_field(self):
        truth = sample_ground_truth(
            self.domain, self.model, seed=0, mode="planted", bumps=(), background=0.0
        )
        assert not truth.target_mask(0.1).any()

    def test_autoregressive_consistency_exact(self):
        # prior-draw: level m sees layers 1..m only, so the stack of the
        # first m layers draws the same levels 1..m bit for bit
        truth = sample_ground_truth(self.domain, self.model, seed=5)
        for m in range(1, self.model.levels + 1):
            layers = FidelityModel(*(getattr(self.model, k)[:m] for k in ("mu", "v", "l", "s", "z")))
            first = sample_ground_truth(self.domain, layers, seed=5)
            assert np.array_equal(first.f, truth.f[:m])
        # planted: every lower level is the blur of the planted top level
        truth = sample_ground_truth(
            self.domain, self.model, seed=5, mode="planted", bumps=(Bump(10.5, 10.5, 1.0, 2.0),)
        )
        top = field_to_grid(self.domain, truth.f[-1])
        for m in range(1, self.model.levels):
            blurred = _gaussian_blur(top, self.model.l[m - 1] / self.domain.cell_dx)
            assert np.array_equal(truth.f[m - 1], blurred.ravel())

    def test_prior_draw_matches_prior_variance(self):
        # Monte Carlo: per-cell sample variance of the top field should sit
        # within 15% of the prior variance sum(v_m^2) = 0.34.
        draws = np.stack(
            [
                sample_ground_truth(self.domain, self.model, seed=k).f[-1]
                for k in range(2000)
            ]
        )
        cell_var = draws.var(axis=0, ddof=1)
        expected = self.model.prior_variance()
        assert np.all(np.abs(cell_var - expected) <= 0.15 * expected)

    def test_resolution_guard(self):
        big = GridDomain(0.0, 1.0, 0.0, 1.0, 101)
        with pytest.raises(ValueError):
            sample_ground_truth(big, self.model, seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sample_ground_truth(self.domain, self.model, seed=0, mode="nope")

    def test_planted_lower_levels_are_smoother(self):
        truth = sample_ground_truth(
            self.domain,
            self.model,
            seed=0,
            mode="planted",
            bumps=(Bump(10.5, 10.5, 1.0, 2.0),),
        )
        def roughness(level):
            g = field_to_grid(self.domain, truth.f[level])
            return np.abs(np.diff(g, axis=0)).mean() + np.abs(np.diff(g, axis=1)).mean()
        assert roughness(0) < roughness(1)

    @pytest.mark.parametrize("m", [0, -1, 3])
    def test_level_out_of_range_rejected(self, m):
        truth = sample_ground_truth(self.domain, self.model, seed=0, mode="planted")
        x, y = self.domain.cell_center(5)
        with pytest.raises(ValueError, match=f"fidelity level {m} out of range"):
            truth.level_field(m)
        with pytest.raises(ValueError, match=f"fidelity level {m} out of range"):
            truth.value_at(x, y, m)


# (sample_ground_truth keywords, text of the refusal) for truths with no finite value
BAD_TRUTH = [
    ({"bumps": (Bump(2.0, 2.0, 1.0, 0.0),)}, "radius"),
    ({"bumps": (Bump(2.0, 2.0, 1.0, -1.0),)}, "radius"),
    ({"bumps": (Bump(float("nan"), 2.0, 1.0, 1.0),)}, "finite"),
    ({"background": float("inf")}, "finite"),
]


@pytest.mark.parametrize("inputs, message", BAD_TRUTH, ids=["radius-0", "radius-1", "nan-x", "inf"])
def test_bad_truth_inputs_refused_as_by_the_config(inputs, message):
    # the library path refuses what MissionConfig refuses, in the same words
    domain = GridDomain(0.0, 4.0, 0.0, 4.0, 4)
    model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(2.0, 1.0), s=(0.1, 0.1), z=(8.0, 4.0))
    with pytest.raises(ValueError, match=message) as library:
        sample_ground_truth(domain, model, seed=0, mode="planted", **inputs)
    with pytest.raises(ValueError) as config:
        MissionConfig(domain=domain, model=model, delta=0.1, th=0.3, mode="planted", **inputs)
    assert str(config.value) == str(library.value)


class TestPriorDrawCovariance:
    """The prior draw's K is the per-layer offset table's window view."""

    def test_windows_equal_kernel_on_centre_differences(self, desk_domain, desk_model):
        # desk centres are binary fractions: offsets and centre differences agree
        centers, n = desk_domain.cell_centers, desk_domain.n_cells
        windows = offset_windows(offset_table(desk_domain, desk_model))
        for m in (1, 2):
            K = kernel_eval(m, centers[:, None], centers[None], desk_model)
            assert np.array_equal(windows[m - 1].reshape(n, n), K)

    @pytest.mark.parametrize(
        "domain",
        [GridDomain(0.0, 20.0, 0.0, 20.0, 20), GridDomain(0.0, 13.7, 0.0, 13.7, 17)],
        ids=["desk", "inexact-centres"],
    )
    def test_factor_reproduces_kernel_plus_jitter(self, domain, desk_model):
        centers, n = domain.cell_centers, domain.n_cells
        for m in (1, 2):
            v, l = desk_model.v[m - 1], desk_model.l[m - 1]
            L = _level_cholesky(domain, desk_model, m)
            expected = sq_exp(v, l, centers, centers) + 1e-10 * v * v * np.eye(n)
            np.testing.assert_allclose(L @ L.T, expected, rtol=0.0, atol=1e-14 * v * v)

    def test_resolution_one_draw(self, desk_model):
        # the one-cell K must be a fresh array: the jitter is added in place
        domain = GridDomain(0.0, 1.0, 0.0, 1.0, 1)
        truth = sample_ground_truth(domain, desk_model, seed=3)
        assert truth.f.shape == (2, 1) and np.all(np.isfinite(truth.f))
        assert offset_table(domain, desk_model)[:, 0, 0].tolist() == [0.25, 0.09]


class TestGaussianBlur:
    @pytest.mark.parametrize("size", [3, 7, 20, 30])
    @pytest.mark.parametrize("sigma", [0.7, 1.6, 2.5, 6.25, 12.0])
    def test_bit_identical_to_scipy(self, size, sigma):
        # sigma 12 has radius 48, past the grid edge on every size: the
        # mirrored padding wraps more than once
        from scipy.ndimage import gaussian_filter  # a test dependency only

        grid = np.random.default_rng(size).normal(size=(size, size))
        assert np.array_equal(_gaussian_blur(grid, sigma), gaussian_filter(grid, sigma))


class TestMeasure:
    def setup_method(self):
        self.domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
        self.model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.2, 0.1), z=(8.0, 4.0)
        )
        self.truth = sample_ground_truth(self.domain, self.model, seed=1)

    def test_vanishing_noise_returns_field_exactly(self):
        quiet = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(1e-300, 1e-300), z=(8.0, 4.0)
        )
        x, y = self.domain.cell_center(37)
        rng = np.random.default_rng(0)
        assert measure(self.truth, x, y, 2, quiet, rng) == self.truth.f[1, 37]

    def test_rng_replay_identical(self):
        x, y = self.domain.cell_center(5)
        a = measure(self.truth, x, y, 1, self.model, np.random.default_rng(42))
        b = measure(self.truth, x, y, 1, self.model, np.random.default_rng(42))
        assert a == b

    def test_sample_mean_concentrates(self):
        # CLT check: 1e4 draws put the sample mean within 3*s/100 of f^m(x).
        x, y = self.domain.cell_center(44)
        rng = np.random.default_rng(7)
        vals = [measure(self.truth, x, y, 2, self.model, rng) for _ in range(10_000)]
        s = self.model.s[1]
        assert abs(np.mean(vals) - self.truth.f[1, 44]) <= 3 * s / 100

    def test_non_center_rejected(self):
        with pytest.raises(ValueError):
            measure(self.truth, 0.1234, 0.5, 1, self.model, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [0, -1, 3])
    def test_level_out_of_range_rejected(self, m):
        x, y = self.domain.cell_center(5)
        with pytest.raises(ValueError, match=f"fidelity level {m} out of range"):
            measure(self.truth, x, y, m, self.model, np.random.default_rng(0))


class TestExports:
    def test_grid_csv_and_pgm(self, tmp_path):
        domain = GridDomain(0.0, 4.0, 0.0, 4.0, 4)
        values = np.arange(16, dtype=float)
        csv_path = tmp_path / "field.csv"
        write_grid_csv(csv_path, domain, values)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 17
        assert lines[1].split(",")[2] == "0"

        pgm_path = tmp_path / "field.pgm"
        write_pgm(pgm_path, field_to_grid(domain, values))
        head = pgm_path.read_text().splitlines()
        assert head[0] == "P2"
        assert head[1] == "4 4"
        assert head[2] == "255"
        flat = " ".join(head[3:]).split()
        assert flat[0] == "0" and flat[-1] == "255"
