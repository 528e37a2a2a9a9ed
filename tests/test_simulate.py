import numpy as np
import pytest
from scipy import stats

from ppca import simulate
from ppca.exceptions import InvalidSpecError
from ppca.simulate import (
    CORR_THRESHOLD,
    DEFAULT_SIGMA_X,
    ERROR_BAND,
    FACTOR_VAR_A,
    FACTOR_VAR_SIGMA,
    GAMMA_LOADING_SD,
    GAMMA_RATE,
    GAMMA_SHAPE,
    OFFDIAG_MEAN,
    OFFDIAG_SD,
    default_loading_curves,
    gen_calibrated,
    gen_design2,
    make_sparse_error_cov,
    simulate_var,
)


@pytest.fixture
def error_cov_calls(monkeypatch):
    """(args, kwargs, result) of each call gen_calibrated makes to the module's
    make_sparse_error_cov."""
    calls = []
    real = simulate.make_sparse_error_cov

    def recorder(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(simulate, "make_sparse_error_cov", recorder)
    return calls


class TestVarProcess:
    def test_white_noise_case(self):
        draws = simulate_var(np.zeros((2, 2)), np.eye(2), 20_000, np.random.default_rng(0))
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, np.eye(2), atol=0.05)

    def test_ar1_stationary_variance(self):
        draws = simulate_var(np.array([[0.5]]), np.array([[1.0]]), 100_000,
                             np.random.default_rng(1))
        assert draws.var() == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_calibrated_parameters_stationary(self):
        # the transition both designs use is stationary, and the covariances the
        # calibrated design takes Cholesky factors of are symmetric positive definite
        assert np.abs(np.linalg.eigvals(FACTOR_VAR_A)).max() < 1.0
        for cov in (FACTOR_VAR_SIGMA, DEFAULT_SIGMA_X):
            np.testing.assert_array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov)[0] > 0


class TestSparseErrorCov:
    def test_full_truncation_gives_diagonal(self, rng, banded_cov, monkeypatch):
        monkeypatch.setattr(simulate, "CORR_THRESHOLD", 0.999999)
        cov = banded_cov(make_sparse_error_cov(50, rng))
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-6 * np.abs(np.diag(cov)).max()

    def test_symmetric_positive_definite(self, rng, banded_cov):
        cov = banded_cov(make_sparse_error_cov(60, rng))
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov)[0] > 0

    def test_offdiagonal_survival_fraction(self):
        # P(|N(mu, sd^2)| >= threshold) with the calibrated constants
        expected = stats.norm.sf(
            CORR_THRESHOLD, loc=OFFDIAG_MEAN, scale=OFFDIAG_SD
        ) + stats.norm.cdf(-CORR_THRESHOLD, loc=OFFDIAG_MEAN, scale=OFFDIAG_SD)
        p = 100
        # band entry [i, k] exists in L only for k <= i
        exists = np.arange(p)[:, None] >= np.arange(1, ERROR_BAND + 1)
        fractions = []
        for seed in range(5):
            band = make_sparse_error_cov(p, np.random.default_rng(seed))
            fractions.append(np.mean(band[:, 1:][exists] != 0.0))
        assert abs(np.mean(fractions) - expected) < 0.05
        assert expected == pytest.approx(0.84, abs=0.01)

    @pytest.mark.parametrize("p", [50, 2000])
    def test_unit_correlation_diagonal_and_variance_free_of_p(self, p):
        # d is the generator's first draw; var(u_i) = d_i^2 makes Sigma_0's
        # diagonal exactly one, at every p
        d = np.random.default_rng(7).gamma(GAMMA_SHAPE, 1.0 / GAMMA_RATE, size=p)
        band = make_sparse_error_cov(p, np.random.default_rng(7))
        var_u = np.sum(band**2, axis=1)  # the diagonal of L L'
        np.testing.assert_allclose(var_u / d**2, 1.0, rtol=1e-12)

    def test_rows_have_at_most_2s_plus_1_nonzeros(self, banded_cov):
        p = 200
        cov = banded_cov(make_sparse_error_cov(p, np.random.default_rng(2)))
        assert np.count_nonzero(cov, axis=1).max() <= 2 * ERROR_BAND + 1
        lag = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        assert np.all(cov[lag > ERROR_BAND] == 0.0)
        # the band is not empty: the lag-1 covariance is mostly nonzero
        assert np.mean(np.diag(cov, -1) != 0.0) > 0.5


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
    def test_degenerate_gamma(self, monkeypatch):
        monkeypatch.setattr(simulate, "GAMMA_LOADING_SD", 0.0)
        panel = gen_calibrated(50, 10, seed=4)
        np.testing.assert_allclose(panel.gamma_true, 0.0, atol=1e-15)

    def test_table_values_in_config(self):
        assert FACTOR_VAR_SIGMA[0, 0] == 0.9076
        assert FACTOR_VAR_A[0, 0] == -0.0371
        assert (GAMMA_SHAPE, GAMMA_RATE) == (7.06, 536.93)
        assert (OFFDIAG_MEAN, OFFDIAG_SD, CORR_THRESHOLD) == (-0.0019, 0.1499, 0.03)
        assert GAMMA_LOADING_SD == 0.0027

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

    def test_noise_covariance_matches_banded_factor(self, banded_cov, error_cov_calls):
        # u = Y - (G0 + Gamma0) F0' over a long T; a row product shifted by
        # one lag, or taken from the wrong row, moves the correlations
        panel = gen_calibrated(30, 40_000, seed=11)
        u = panel.data.y - (panel.g_true + panel.gamma_true) @ panel.f_true.T
        cov = banded_cov(error_cov_calls[0][2])
        sd = np.sqrt(np.diag(cov))
        np.testing.assert_allclose(np.cov(u) / np.outer(sd, sd), cov / np.outer(sd, sd),
                                   atol=0.04)

    def test_error_cov_called_once_with_positional_p(self, error_cov_calls):
        # the benchmark times make_sparse_error_cov through this module
        # attribute and reads p from its first positional argument
        gen_calibrated(40, 6, seed=1)
        assert len(error_cov_calls) == 1
        assert error_cov_calls[0][0][0] == 40
