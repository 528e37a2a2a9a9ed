import numpy as np
import pytest
from scipy import stats

from ppca.exceptions import InvalidSpecError, NonStationaryError
from ppca.simulate import (
    FACTOR_VAR_A,
    FACTOR_VAR_SIGMA,
    CalibratedParams,
    VarProcess,
    default_loading_curves,
    default_var_process,
    gen_calibrated,
    gen_design2,
    make_sparse_error_cov,
    nearest_pd,
    simulate_var,
)


class TestVarProcess:
    def test_white_noise_case(self):
        proc = VarProcess(a=np.zeros((2, 2)), sigma_eps=np.eye(2))
        draws = simulate_var(proc, 20_000, np.random.default_rng(0))
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, np.eye(2), atol=0.05)

    def test_ar1_stationary_variance(self):
        proc = VarProcess(a=np.array([[0.5]]), sigma_eps=np.array([[1.0]]))
        draws = simulate_var(proc, 100_000, np.random.default_rng(1))
        assert draws.var() == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_calibrated_parameters_stationary(self):
        proc = default_var_process()
        assert proc.spectral_radius() < 1.0
        np.testing.assert_array_equal(proc.sigma_eps, FACTOR_VAR_SIGMA)
        assert proc.sigma_eps[0, 0] == 0.9076
        assert proc.a[0, 0] == -0.0371

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationaryError):
            VarProcess(a=np.array([[1.01]]), sigma_eps=np.array([[1.0]]))

    def test_non_pd_innovations_rejected(self):
        with pytest.raises(InvalidSpecError):
            VarProcess(a=np.zeros((2, 2)), sigma_eps=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestNearestPd:
    def test_pd_input_unchanged(self, rng):
        a = rng.standard_normal((5, 5))
        m = a @ a.T + 5 * np.eye(5)
        np.testing.assert_allclose(nearest_pd(m), m, atol=1e-12)

    def test_diagonal_clipping(self):
        out = nearest_pd(np.diag([1.0, -0.1]), floor=1e-8)
        np.testing.assert_allclose(out, np.diag([1.0, 1e-8]), atol=1e-12)

    def test_matches_clip_reconstruct_oracle(self, rng):
        a = rng.standard_normal((5, 5))
        m = (a + a.T) / 2
        w, v = np.linalg.eigh(m)
        oracle = v @ np.diag(np.maximum(w, 1e-8)) @ v.T
        np.testing.assert_allclose(nearest_pd(m, 1e-8), oracle, atol=1e-10)

    @pytest.mark.parametrize("p", [50, 200])
    def test_bit_identical_to_diagonal_product(self, rng, p):
        # scaling the columns of v equals the product with diag(w) exactly
        a = rng.standard_normal((p, p))
        m = (a + a.T) / 2
        w, v = np.linalg.eigh(m)
        out = v @ np.diag(np.maximum(w, 1e-8)) @ v.T
        assert w[0] < 0
        assert np.array_equal(nearest_pd(m, 1e-8), (out + out.T) / 2.0)


class TestSparseErrorCov:
    def test_full_truncation_gives_diagonal(self, rng):
        params = CalibratedParams(corr_threshold=0.999999)
        cov = make_sparse_error_cov(50, params, rng)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-6 * np.abs(np.diag(cov)).max()

    def test_symmetric_positive_definite(self, rng):
        cov = make_sparse_error_cov(60, CalibratedParams(), rng)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov)[0] > 0

    def test_offdiagonal_survival_fraction(self):
        # P(|N(mu, sd^2)| >= threshold) with the calibrated constants
        params = CalibratedParams()
        expected = stats.norm.sf(
            params.corr_threshold, loc=params.offdiag_mean, scale=params.offdiag_sd
        ) + stats.norm.cdf(
            -params.corr_threshold, loc=params.offdiag_mean, scale=params.offdiag_sd
        )
        fractions = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = 100
            d = rng.gamma(params.gamma_shape, 1 / params.gamma_rate, size=p)
            vals = rng.normal(
                params.offdiag_mean, params.offdiag_sd, size=p * (p - 1) // 2
            )
            fractions.append(np.mean(np.abs(vals) >= params.corr_threshold))
        assert abs(np.mean(fractions) - expected) < 0.05
        assert expected == pytest.approx(0.84, abs=0.01)


class TestGenDesign2:
    def test_deterministic_given_seed(self):
        a = gen_design2(40, 12, seed=99)
        b = gen_design2(40, 12, seed=99)
        np.testing.assert_array_equal(a.data.y, b.data.y)
        np.testing.assert_array_equal(a.f_true, b.f_true)

    def test_identification_invariants(self):
        panel = gen_design2(200, 30, seed=3)
        T = panel.data.T
        np.testing.assert_allclose(
            panel.f_true.T @ panel.f_true / T, np.eye(3), atol=1e-8
        )
        gtg = panel.g_true.T @ panel.g_true
        np.testing.assert_allclose(gtg, np.diag(np.diag(gtg)), atol=1e-8)
        assert panel.k_true == 3
        np.testing.assert_array_equal(panel.gamma_true, 0.0)

    def test_curve_means_near_zero(self):
        # Hermite-type curves have mean zero under the standard normal
        rng = np.random.default_rng(17)
        from ppca.simulate import design2_curves

        x = rng.standard_normal(200_000)
        means = design2_curves(x).mean(axis=0)
        se = np.array([1.0, np.sqrt(2.0), np.sqrt(7.0)]) / np.sqrt(x.size)
        assert np.all(np.abs(means) < 3 * se * np.array([1, 1, 3]))

    def test_small_p_rejected(self):
        with pytest.raises(InvalidSpecError):
            gen_design2(3, 10, seed=0)


class TestGenCalibrated:
    def test_degenerate_gamma(self):
        params = CalibratedParams(gamma_loading_sd=0.0)
        panel = gen_calibrated(50, 10, params=params, seed=4)
        np.testing.assert_allclose(panel.gamma_true, 0.0, atol=1e-15)

    def test_table_values_in_config(self):
        params = CalibratedParams()
        assert params.var.sigma_eps[0, 0] == 0.9076
        assert params.var.a[0, 0] == -0.0371
        assert params.gamma_shape == 7.06
        assert params.gamma_rate == 536.93

    def test_deterministic(self):
        a = gen_calibrated(30, 8, seed=5)
        b = gen_calibrated(30, 8, seed=5)
        np.testing.assert_array_equal(a.data.y, b.data.y)

    def test_identified_truths_and_exact_decomposition(self):
        panel = gen_calibrated(60, 12, seed=9)
        T = panel.data.T
        np.testing.assert_allclose(
            panel.f_true.T @ panel.f_true / T, np.eye(3), atol=1e-8
        )
        gtg = panel.g_true.T @ panel.g_true
        np.testing.assert_allclose(gtg, np.diag(np.diag(gtg)), atol=1e-10)

    def test_default_curves_shape(self):
        assert default_loading_curves().shape == (3, 4, 4)

    def test_covariate_count_must_match_curves(self):
        with pytest.raises(InvalidSpecError):
            gen_calibrated(50, 10, params=CalibratedParams(sigma_x=np.eye(3)), seed=0)
