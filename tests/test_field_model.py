import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgp_search import (
    Bump,
    FidelityModel,
    GridDomain,
    MissionConfig,
    SampleLog,
    append_sample_variance_only,
    kernel_eval,
    posterior,
    sample_ground_truth,
)
from mfgp_search import field_model
from mfgp_search.formats import write_grid_csv, write_pgm
from mfgp_search.field_model import (
    _gaussian_blur,
    covariance_rows,
    covariance_tables,
    measure_cells,
)

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
        # every row of cell_centers maps back to its cell, also on
        # rectangular cells and on cell sizes inexact in binary
        for d in (
            GridDomain(-2.0, 3.0, 1.0, 7.0, 7),
            GridDomain(0.0, 40.0, 0.0, 20.0, 20),
            GridDomain(0.0, 20.0, 0.0, 13.0, 30),
        ):
            for i in range(d.n_cells):
                x, y = d.cell_centers[i].tolist()
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

    def test_noise_whose_square_underflows_refused(self):
        # s^2 = 0 would make every information gain infinite
        with pytest.raises(ValueError, match=r"s_2 = 1e-200: its square underflows"):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(4, 2), s=(0.1, 1e-200), z=(8, 4))
        tiny = FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(4, 2), s=(0.1, 1e-150), z=(8, 4))
        assert tiny._moments[2, 2] > 0.0  # the noise variance

    def test_length_scale_whose_square_underflows_refused(self):
        # l_m^2 = 0 would divide by zero in the switch threshold
        with pytest.raises(ValueError, match=r"length scale l_1 = 1e-200: its square underflows"):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(1e-200, 1e-201), s=(0.1, 0.1), z=(8, 4))
        with pytest.raises(ValueError, match=r"length scale l_2 = 1e-170: its square underflows"):
            FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(4, 1e-170), s=(0.1, 0.1), z=(8, 4))
        tiny = FidelityModel(mu=(0, 0), v=(0.5, 0.3), l=(1e-150, 1e-151), s=(0.1, 0.1), z=(8, 4))
        assert 0.0 < tiny.switch_threshold(1) < float("inf")

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
        full = covariance_tables(domain, self.model)[-1]
        gram = full[9 + rows[:, None] - rows, 9 + cols[:, None] - cols]
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8


class TestPriorMoments:
    # the full-field prior: mean from FidelityModel, covariance from the
    # top level of the layer sums in covariance_tables (zero offset at 9, 9)
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

    @given(
        v=st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=6, unique=True).map(
            lambda v: sorted(v, reverse=True)
        )
    )
    @settings(max_examples=200)
    def test_inaccessible_variance_sums_left_to_right(self, v):
        # 2 and 3 levels sum the same in every order; from 4 on a
        # compensated sum() (Python 3.12 and later) can move the last bit
        M = len(v)
        ladder = tuple(float(M - i) for i in range(M))
        model = FidelityModel(mu=(0.0,) * M, v=tuple(v), l=ladder, s=(0.1,) * M, z=ladder)
        for m in range(1, M + 1):
            expected = 0.0
            for vi in v[m:]:
                expected += vi * vi
            assert model.inaccessible_variance(m) == expected

    def test_variance_is_sum_of_amplitudes(self):
        model = FidelityModel(
            mu=(0.1, 0.05), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.1, 0.1), z=(8.0, 4.0)
        )
        assert covariance_tables(self.domain, model)[-1, 9, 9] == pytest.approx(0.34)

    def test_single_level_reduces_to_kernel(self):
        model = FidelityModel(mu=(0.2,), v=(0.7,), l=(3.0,), s=(0.1,), z=(5.0,))
        # centres of cells (row 0, col 0) and (row 1, col 2) on 1 m cells
        a, b = np.array([0.5, 0.5]), np.array([2.5, 1.5])
        cov = covariance_tables(self.domain, model)[0, 9 + 1, 9 + 2]
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
        assert not a.f.flags.writeable

    def test_planted_empty_field(self):
        truth = sample_ground_truth(
            self.domain, self.model, seed=0, mode="planted", bumps=(), background=0.0
        )
        assert not truth.target_mask(0.1).any()
        assert not truth.f.flags.writeable

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
        top = truth.f[-1].reshape(self.domain.resolution, self.domain.resolution)
        for m in range(1, self.model.levels):
            l = self.model.l[m - 1]
            blurred = _gaussian_blur(top, (l / self.domain.cell_dy, l / self.domain.cell_dx))
            assert np.array_equal(truth.f[m - 1], blurred.ravel())

    def test_prior_draw_matches_prior_variance(self):
        # Monte Carlo: per-cell sample variance of the top field should sit
        # within 15% of the prior variance sum(v_m^2) = 0.34.
        truths = [sample_ground_truth(self.domain, self.model, seed) for seed in range(2000)]
        draws = np.stack([t.f[-1] for t in truths])
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

    def test_bumps_need_planted_mode(self):
        # prior-draw ignores them, so a config carrying them is refused
        for extra in ({"bumps": (Bump(10.5, 10.5, 1.0, 2.0),)}, {"background": 0.5}):
            with pytest.raises(ValueError, match="planted mode only"):
                sample_ground_truth(self.domain, self.model, seed=0, **extra)

    def test_planted_lower_levels_are_smoother(self):
        truth = sample_ground_truth(
            self.domain,
            self.model,
            seed=0,
            mode="planted",
            bumps=(Bump(10.5, 10.5, 1.0, 2.0),),
        )
        def roughness(level):
            g = truth.f[level].reshape(self.domain.resolution, self.domain.resolution)
            return np.abs(np.diff(g, axis=0)).mean() + np.abs(np.diff(g, axis=1)).mean()
        assert roughness(0) < roughness(1)

    def test_planted_blur_is_round_in_metres_on_rectangular_cells(self):
        # 2 m x 1 m cells: a round bump of radius 2 m blurred by l_1 = 2 m
        # has variance r^2 + l_1^2 = 8 m^2 along x and along y alike
        domain = GridDomain(0.0, 40.0, 0.0, 20.0, 20)
        model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(2.0, 1.0), s=(0.1, 0.1), z=(8.0, 4.0)
        )
        truth = sample_ground_truth(
            domain, model, seed=0, mode="planted", bumps=(Bump(21.0, 10.5, 1.0, 2.0),)
        )
        weight = truth.f[0] / truth.f[0].sum()
        offset = domain.cell_centers - (21.0, 10.5)
        var_x, var_y = weight @ np.square(offset)
        assert var_x == pytest.approx(8.0, rel=0.01)
        assert var_y == pytest.approx(8.0, rel=0.01)

    @pytest.mark.parametrize("m", [0, -1, 3])
    def test_level_out_of_range_rejected(self, m):
        truth = sample_ground_truth(self.domain, self.model, seed=0, mode="planted")
        with pytest.raises(
            ValueError, match=rf"^fidelity level must be an integer in \[1, 2\], got {m}$"
        ):
            truth.level_field(m)


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
    """The prior draw's layer m is mu_m + v_m (L_y (x) L_x) z, the Kronecker
    product of the two axis factors applied to the seed's row-major normals."""

    def test_covariance_rows_equal_kernel_on_centre_differences(self, desk_domain, desk_model):
        # desk centres are binary fractions: offsets and centre differences agree
        centers, n = desk_domain.cell_centers, desk_domain.n_cells
        K = 0.0
        for m in (1, 2):
            K = K + kernel_eval(m, centers[:, None], centers[None], desk_model)
            rows = covariance_rows(desk_domain, desk_model, np.arange(n), np.full(n, m))
            assert np.array_equal(rows, K)

    @pytest.mark.parametrize(
        "domain",
        [
            GridDomain(0.0, 40.0, 0.0, 20.0, 12),
            GridDomain(0.0, 20.0, 0.0, 20.0, 20),
            GridDomain(0.0, 13.7, 0.0, 13.7, 17),
        ],
        ids=["rectangular-cells", "desk", "inexact-centres"],
    )
    def test_axis_factors_reproduce_kernel_plus_jitter(self, domain, desk_model, monkeypatch):
        # on 40/12 x 20/12 m cells a row/column swap is off by about 0.46 v^2
        factors = []

        def kept(cov, *args):
            L, jitter = real(cov, *args)
            factors.append(L)
            return L, jitter

        real = field_model.jittered_cholesky
        monkeypatch.setattr(field_model, "jittered_cholesky", kept)
        truth = sample_ground_truth(domain, desk_model, seed=4)
        centers, n = domain.cell_centers, domain.n_cells
        z = np.random.default_rng(4).standard_normal(n)
        assert len(factors) == 2 * desk_model.levels
        for m in (1, 2):
            v, l, mu = desk_model.v[m - 1], desk_model.l[m - 1], desk_model.mu[m - 1]
            L = np.kron(factors[2 * m - 2], factors[2 * m - 1])  # L_y (x) L_x
            # the jitter of each axis adds 1e-10 v^2 (I (x) K_x + K_y (x) I)
            expected = sq_exp(v, l, centers, centers)
            np.testing.assert_allclose(v * v * (L @ L.T), expected, rtol=0.0, atol=3e-10 * v * v)
            if m == 1:
                np.testing.assert_allclose(truth.f[0], mu + v * (L @ z), rtol=0.0, atol=1e-12)

    def test_resolution_one_draw(self, desk_model):
        # one cell: each axis factor is 1 x 1, and the table is the variances
        domain = GridDomain(0.0, 1.0, 0.0, 1.0, 1)
        truth = sample_ground_truth(domain, desk_model, seed=3)
        assert truth.f.shape == (2, 1) and np.all(np.isfinite(truth.f))
        assert covariance_tables(domain, desk_model)[:, 0, 0].tolist() == [0.25, 0.25 + 0.09]


class TestPriorDrawMemory:
    """A draw holds two R x R axis factors and the floors, never an n x n array."""

    def test_draw_peak_is_linear_in_cells(self, desk_model):
        # the largest grid the cell cap admits: an n x n array would be 800 MB
        domain = GridDomain(0.0, 20.0, 0.0, 20.0, 100)
        n = domain.n_cells
        # a first draw imports what the draw uses; those modules are not its memory
        sample_ground_truth(GridDomain(0.0, 1.0, 0.0, 1.0, 1), desk_model, seed=7)
        tracemalloc.start()
        try:
            sample_ground_truth(domain, desk_model, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * desk_model.levels * n * 8, peak / (n * 8)


class TestGaussianBlur:
    @pytest.mark.parametrize("size", [3, 7, 20, 30])
    @pytest.mark.parametrize(
        "sigma",
        [0.7, 1.6, 2.5, 6.25, 12.0, (2.5, 1.25), (0.7, 12.0)],
        ids=["0.7", "1.6", "2.5", "6.25", "12.0", "2.5x1.25", "0.7x12.0"],
    )
    def test_bit_identical_to_scipy(self, size, sigma):
        # sigma 12 has radius 48, past the grid edge on every size: the
        # mirrored padding wraps more than once; a pair is one sigma per axis
        from scipy.ndimage import gaussian_filter  # a test dependency only

        sigmas = sigma if isinstance(sigma, tuple) else (sigma, sigma)
        grid = np.random.default_rng(size).normal(size=(size, size))
        assert np.array_equal(_gaussian_blur(grid, sigmas), gaussian_filter(grid, sigma))

    @pytest.mark.parametrize("sigma", [0.12, 1e-160])
    def test_one_tap_leaves_the_axis_as_it_is(self, sigma):
        # r = int(4 sigma + 0.5) is 0 below sigma = 0.125; at 1e-160,
        # sigma^2 underflows to 0 and the kernel's exponent would divide by it
        grid = np.random.default_rng(5).normal(size=(6, 6))
        assert np.array_equal(_gaussian_blur(grid, (sigma, sigma)), grid)
        assert np.array_equal(_gaussian_blur(grid, (sigma, 1.6)), _gaussian_blur(grid, (0.0, 1.6)))


class TestMeasure:
    def setup_method(self):
        self.domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
        self.model = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.2, 0.1), z=(8.0, 4.0)
        )
        self.truth = sample_ground_truth(self.domain, self.model, seed=1)

    def cell(self, i):
        return self.domain.index_of(*self.domain.cell_centers[i])

    def test_vanishing_noise_returns_field_exactly(self):
        # noise far below the field's ulp, whose square is still a normal float
        quiet = FidelityModel(
            mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(1e-150, 1e-150), z=(8.0, 4.0)
        )
        rng = np.random.default_rng(0)
        assert measure_cells(self.truth, [self.cell(37)], 2, quiet, rng)[0] == self.truth.f[1, 37]

    def test_rng_replay_identical(self):
        cells = [self.cell(5), self.cell(5), self.cell(61)]
        a = measure_cells(self.truth, cells, 1, self.model, np.random.default_rng(42))
        b = measure_cells(self.truth, cells, 1, self.model, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_sample_mean_concentrates(self):
        # CLT check: 1e4 draws put the sample mean within 3*s/100 of f^m(x).
        rng = np.random.default_rng(7)
        vals = measure_cells(self.truth, [self.cell(44)] * 10_000, 2, self.model, rng)
        s = self.model.s[1]
        assert abs(np.mean(vals) - self.truth.f[1, 44]) <= 3 * s / 100

    @pytest.mark.parametrize("m", [0, -1, 3])
    def test_level_out_of_range_rejected(self, m):
        with pytest.raises(
            ValueError, match=rf"^fidelity level must be an integer in \[1, 2\], got {m}$"
        ):
            measure_cells(self.truth, [self.cell(5)], m, self.model, np.random.default_rng(0))


# a fraction, whole floats, a bool and a 0-d array: none is an int or a numpy integer
NOT_INTEGERS = [1.5, 2.0, True, pytest.param(np.float64(2.0), id="float64-2.0"), np.array(2)]


@pytest.mark.parametrize("level", NOT_INTEGERS)
def test_every_level_check_refuses_a_level_that_is_not_an_integer(level):
    domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
    model = FidelityModel(mu=(0.0, 0.0), v=(0.5, 0.3), l=(4.0, 2.0), s=(0.2, 0.1), z=(8.0, 4.0))
    truth = sample_ground_truth(domain, model, seed=1)
    x = np.zeros(2)
    for call in (
        lambda: model.prior_variance(level),
        lambda: model.inaccessible_variance(level),
        lambda: model.switch_threshold(level),
        lambda: kernel_eval(level, x, x, model),
        lambda: measure_cells(truth, [5], level, model, np.random.default_rng(0)),
        lambda: truth.level_field(level),
        lambda: SampleLog(domain).extend([5], [0.5], level),
        lambda: append_sample_variance_only(posterior(SampleLog(domain), model), 5, level),
    ):
        with pytest.raises(
            ValueError,
            match=r"^fidelity level must be an integer (in \[1, 2\]|>= 1), got "
            + re.escape(repr(level)) + "$",
        ):
            call()
    assert model.prior_variance(np.int64(2)) == model.prior_variance(2)


class TestExports:
    def test_grid_csv_and_pgm(self, tmp_path):
        domain = GridDomain(0.0, 4.0, 0.0, 4.0, 4)
        values = np.arange(16, dtype=float)
        csv_path = tmp_path / "field.csv"
        write_grid_csv(csv_path, domain, value=values)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 17
        assert lines[1].split(",")[2] == "0"

        pgm_path = tmp_path / "field.pgm"
        write_pgm(pgm_path, domain, values)
        head = pgm_path.read_text().splitlines()
        assert head[0] == "P2"
        assert head[1] == "4 4"
        assert head[2] == "255"
        flat = " ".join(head[3:]).split()
        assert flat[0] == "0" and flat[-1] == "255"
