import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppca.basis import BasisSpec, build_basis
from ppca.estimator import (
    SIGMA_FLOOR_REL,
    PanelData,
    _top_eigh,
    align_columns,
    estimate_sigma_u,
    fit_projected_pca,
    fit_regular_pca,
    fix_signs,
    identification_transform,
    verify_equivalence,
)
from ppca.exceptions import (
    DimensionMismatchError,
    InvalidSpecError,
    KTooLargeError,
    NearTieWarning,
)
from ppca.projection import make_projector
from ppca.simulate import gen_design2


def _random_panel(rng, p=30, T=12, d=1):
    return PanelData(y=rng.standard_normal((p, T)), x=rng.standard_normal((p, d)))


class TestProjectedPca:
    def test_constant_basis_closed_form(self, rng):
        p, T = 40, 15
        data = _random_panel(rng, p, T)
        P = make_projector(np.ones((p, 1)))
        fit = fit_projected_pca(data, P, 1)
        ybar = data.y.mean(axis=0)
        target_f = np.sqrt(T) * ybar / np.linalg.norm(ybar)
        sign = np.sign(fit.f_hat[:, 0] @ target_f)
        np.testing.assert_allclose(sign * fit.f_hat[:, 0], target_f, atol=1e-10)
        target_g = np.linalg.norm(ybar) / np.sqrt(T) * np.ones(p)
        np.testing.assert_allclose(sign * fit.g_hat[:, 0], target_g, atol=1e-10)

    def test_noiseless_identified_recovery(self, rng):
        p, T, K = 80, 20, 3
        x = rng.standard_normal((p, 1))
        basis = build_basis(x, BasisSpec(J=6))
        b = rng.standard_normal((basis.m, K))
        g_raw = basis.values @ b
        f_raw = rng.standard_normal((T, K))
        f0, g0, _ = identification_transform(f_raw, g_raw)
        data = PanelData(y=g0 @ f0.T, x=x)
        fit = fit_projected_pca(data, make_projector(basis), K)
        _, f_err, _ = align_columns(fit.f_hat, f0)
        _, g_err, _ = align_columns(fit.g_hat, g0)
        assert f_err < 1e-8
        assert g_err < 1e-8

    def test_power_iteration_oracle(self, rng):
        p, T = 5, 4
        data = _random_panel(rng, p, T)
        basis = build_basis(data.x, BasisSpec(family="polynomial", J=2))
        P = make_projector(basis)
        fit = fit_projected_pca(data, P, 1)
        # independent power iteration on the explicitly formed T x T matrix
        phi = basis.values
        proj = phi @ np.linalg.inv(phi.T @ phi) @ phi.T
        a = data.y.T @ proj @ data.y
        v = np.ones(T) / np.sqrt(T)
        for _ in range(500):
            v = a @ v
            v /= np.linalg.norm(v)
        est = fit.f_hat[:, 0] / np.sqrt(T)
        sign = np.sign(est @ v)
        np.testing.assert_allclose(sign * est, v, atol=1e-8)

    def test_k_too_large(self, rng):
        data = _random_panel(rng, 20, 6)
        P = make_projector(build_basis(data.x, BasisSpec(family="polynomial", J=3)))
        assert P.rank == 4
        with pytest.raises(KTooLargeError):
            fit_projected_pca(data, P, 5)  # exceeds projector rank
        with pytest.raises(KTooLargeError):
            fit_projected_pca(data, P, 0)
        data_short = _random_panel(rng, 20, 4)
        with pytest.raises(KTooLargeError):
            fit_projected_pca(data_short, P, 4)  # K must stay below T

    def test_invariants_on_random_instances(self, rng):
        for _ in range(5):
            p = int(rng.integers(25, 80))
            T = int(rng.integers(8, 25))
            data = _random_panel(rng, p, T)
            basis = build_basis(data.x, BasisSpec(J=5))
            P = make_projector(basis)
            K = 2
            fit = fit_projected_pca(data, P, K)
            T_ = data.T
            np.testing.assert_allclose(
                fit.f_hat.T @ fit.f_hat / T_, np.eye(K), atol=1e-8
            )
            np.testing.assert_allclose(
                fit.lambda_hat, fit.g_hat + fit.gamma_hat, atol=1e-10
            )
            assert (
                np.abs(basis.values.T @ fit.gamma_hat).max()
                < 1e-8 * np.linalg.norm(data.y)
            )
            assert np.all(np.diff(fit.eigvals) < 0)

    def test_gram_eigh_oracle(self, spectrum_case):
        data, P, K, w, v = spectrum_case
        fit = fit_projected_pca(data, P, K)
        T = data.T
        np.testing.assert_allclose(fit.f_hat, np.sqrt(T) * v[:, :K], rtol=0, atol=1e-10)
        np.testing.assert_allclose(fit.eigvals, w[:K] / T, rtol=1e-10)

    def test_near_tie_warns(self, rng):
        p, T = 40, 12
        P = make_projector(rng.standard_normal((p, 4)))
        vt = np.linalg.qr(rng.standard_normal((T, 4)))[0].T
        # Z = Q'Y has singular values 3, 2, 2, 1: eigenvalues 2 and 3 tie
        y = P.q @ np.diag([3.0, 2.0, 2.0, 1.0]) @ vt
        data = PanelData(y=y, x=rng.standard_normal((p, 1)))
        with pytest.warns(NearTieWarning):
            fit_projected_pca(data, P, 2)

    def test_basis_rotation_invariance(self, rng):
        data = _random_panel(rng, 50, 15)
        basis = build_basis(data.x, BasisSpec(J=5))
        r_mat = rng.standard_normal((basis.m, basis.m)) + 4 * np.eye(basis.m)
        Pa = make_projector(basis)
        Pb = make_projector(basis.values @ r_mat)
        fa = fit_projected_pca(data, Pa, 2)
        fb = fit_projected_pca(data, Pb, 2)
        np.testing.assert_allclose(fa.f_hat, fb.f_hat, atol=1e-8)
        np.testing.assert_allclose(fa.g_hat, fb.g_hat, atol=1e-8)
        np.testing.assert_allclose(fa.gamma_hat, fb.gamma_hat, atol=1e-8)


class TestRegularPca:
    def test_rank_one_recovery(self, rng):
        T = 10
        lam = rng.standard_normal(30)
        f = rng.standard_normal(T)
        fit = fit_regular_pca(np.outer(lam, f), 1)
        target = np.sqrt(T) * f / np.linalg.norm(f)
        sign = np.sign(fit.f_hat[:, 0] @ target)
        np.testing.assert_allclose(sign * fit.f_hat[:, 0], target, atol=1e-8)

    def test_svd_oracle(self, rng):
        y = rng.standard_normal((4, 3))
        fit = fit_regular_pca(y, 2)
        _, _, vt = np.linalg.svd(y)
        for k in range(2):
            target = np.sqrt(3) * vt[k]
            sign = np.sign(fit.f_hat[:, k] @ target)
            np.testing.assert_allclose(sign * fit.f_hat[:, k], target, atol=1e-8)

    def test_full_span_projection_equals_regular(self, rng):
        p, T = 12, 8
        data = PanelData(y=rng.standard_normal((p, T)), x=rng.standard_normal((p, 1)))
        P = make_projector(rng.standard_normal((p, p)) + 3 * np.eye(p))
        proj_fit = fit_projected_pca(data, P, 2)
        reg_fit = fit_regular_pca(data.y, 2)
        np.testing.assert_allclose(proj_fit.f_hat, reg_fit.f_hat, atol=1e-8)


def _gram_eigh_reference(y, K):
    """Regular-PCA factors and eigenvalues from a full T x T eigh of Y'Y."""
    T = y.shape[1]
    w, v = np.linalg.eigh(y.T @ y)
    return np.sqrt(T) * fix_signs(v[:, ::-1][:, :K]), w[::-1][:K] / T


class TestRegularPcaGramOracle:
    """fit_regular_pca against a full T x T eigh, on every route ``_top_eigh`` takes."""

    @pytest.mark.parametrize("case, K, n_values", [
        ("design2", 3, 4),  # converges by subspace iteration
        ("noise", 3, 200),  # no gap: falls back to the full eigh
        ("rank_deficient", 3, 4),  # p < T, so Y'Y has T - p zero eigenvalues
        ("tiny_wide", 2, 3),  # q = K + 5 >= T: full eigh
        ("tiny_tall", 1, 4),
    ])
    def test_matches_eigh(self, rng, case, K, n_values):
        y = {
            "design2": lambda: gen_design2(300, 200, seed=1).data.y,
            "noise": lambda: rng.standard_normal((300, 200)),
            "rank_deficient": lambda: gen_design2(20, 60, seed=2).data.y,
            "tiny_wide": lambda: rng.standard_normal((4, 3)),
            "tiny_tall": lambda: rng.standard_normal((3, 4)),
        }[case]()
        assert _top_eigh(y.T @ y, K)[0].size == n_values
        fit = fit_regular_pca(y, K)
        f_ref, eig_ref = _gram_eigh_reference(y, K)
        np.testing.assert_allclose(fit.f_hat, f_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fit.eigvals, eig_ref, rtol=1e-10)
        again = fit_regular_pca(y, K)
        assert again.f_hat.tobytes() == fit.f_hat.tobytes()
        assert again.eigvals.tobytes() == fit.eigvals.tobytes()

    def test_near_tie_warns_and_matches(self, rng):
        u = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        vt = np.linalg.qr(rng.standard_normal((30, 4)))[0].T
        y = u @ np.diag([3.0, 2.0, 2.0, 1.0]) @ vt  # Y'Y eigenvalues 2 and 3 tie
        # the tie defeats the gap bound, so pair K + 1 is iterated to convergence
        assert _top_eigh(y.T @ y, 2)[0].size == 3
        with pytest.warns(NearTieWarning):
            fit = fit_regular_pca(y, 2)
        f_ref, eig_ref = _gram_eigh_reference(y, 2)
        np.testing.assert_allclose(fit.eigvals, eig_ref, rtol=1e-10)
        # inside the tied pair the second factor is not determined
        np.testing.assert_allclose(fit.f_hat[:, 0], f_ref[:, 0], rtol=0, atol=1e-10)


@st.composite
def _signed_factor_panels(draw):
    """Exact rank-K panels whose factors are the eigenvectors of Y'Y.

    The factors have disjoint supports, so they are orthogonal; with
    ``tied`` each holds two entries of opposite sign and equal magnitude
    that exceeds every other entry, the case where the largest-entry sign
    rule hangs on rounding.
    """
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    K, block, p = draw(st.integers(1, 3)), draw(st.integers(7, 12)), draw(st.integers(10, 60))
    f = np.zeros((K * block, K))
    for k in range(K):
        col = rng.uniform(-1.0, 1.0, block)
        if draw(st.booleans()):
            col[:2] = [1.5, -1.5]
        f[k * block:(k + 1) * block, k] = col / np.linalg.norm(col)
    lam = np.linalg.qr(rng.standard_normal((p, K)))[0] * np.array([9.0, 4.0, 2.0])[:K]
    return lam @ f.T, K


class TestSignsAcrossSolvers:
    @given(_signed_factor_panels())
    @settings(max_examples=60, deadline=None)
    def test_iteration_and_eigh_agree_on_signs(self, panel):
        y, K = panel
        w, v = _top_eigh(y.T @ y, K)
        assert w.size == K + 1  # the iteration route, not its eigh fallback
        order = np.argsort(w)[::-1][:K]
        _, ref = np.linalg.eigh(y.T @ y)
        np.testing.assert_allclose(
            fix_signs(v[:, order]), fix_signs(ref[:, ::-1][:, :K]), rtol=0, atol=1e-8
        )


class TestVerifyEquivalence:
    def test_random_instance(self, rng):
        data = _random_panel(rng, 40, 12)
        P = make_projector(build_basis(data.x, BasisSpec(J=5)))
        assert verify_equivalence(data, P, 2) < 1e-8

    def test_constant_basis_instance(self, rng):
        data = _random_panel(rng, 30, 10)
        P = make_projector(np.ones((30, 1)))
        assert verify_equivalence(data, P, 1) < 1e-10

    def test_design2_instance(self):
        panel = gen_design2(100, 50, seed=3)
        basis = build_basis(panel.data.x, BasisSpec(J=8))
        P = make_projector(basis)
        assert verify_equivalence(panel.data, P, 3) < 1e-8


class TestSigmaU:
    def test_exact_fit_floors(self, rng):
        T, K = 12, 2
        f = np.linalg.qr(rng.standard_normal((T, K)))[0] * np.sqrt(T)
        lam = rng.standard_normal((20, K))
        y = lam @ f.T
        var = estimate_sigma_u(y, f)
        assert np.all(var > 0)
        assert var.max() <= 1e-6  # everything at or near the floor

    def test_no_factors_row_second_moments(self, rng):
        y = rng.standard_normal((6, 9))
        var = estimate_sigma_u(y, None)
        np.testing.assert_allclose(var, np.sum(y**2, axis=1) / 9, atol=1e-14)

    @pytest.mark.parametrize("case", ["random", "design2"])
    def test_matches_residual_oracle(self, rng, case):
        # the row-sum form ||y_i||^2/T - ||lambda_i||^2 against the p x T residual
        if case == "random":
            y = rng.standard_normal((3, 4))
            fit = fit_regular_pca(y, 1)
        else:
            data = gen_design2(1000, 50, seed=8).data
            y = data.y
            fit = fit_projected_pca(data, make_projector(build_basis(data.x, BasisSpec(J=8))), 3)
        var = estimate_sigma_u(y, fit.f_hat)
        resid = y - fit.lambda_hat @ fit.f_hat.T
        oracle = np.diag(resid @ resid.T) / y.shape[1]
        assert oracle.min() > 1e3 * SIGMA_FLOOR_REL * oracle.max()  # no row at the floor
        np.testing.assert_allclose(var, oracle, rtol=1e-10, atol=0)

    def test_rejects_unnormalized_factors(self, rng):
        T = 10
        f = np.linalg.qr(rng.standard_normal((T, 2)))[0] * np.sqrt(2 * T)  # F'F/T = 2I
        with pytest.raises(InvalidSpecError):
            estimate_sigma_u(rng.standard_normal((5, T)), f)


class TestIdentification:
    def test_fixed_point(self, rng):
        T, K = 40, 2
        f = np.linalg.qr(rng.standard_normal((T, K)))[0] * np.sqrt(T)
        g = rng.standard_normal((30, K))
        q, _ = np.linalg.qr(g)
        g = q * np.array([5.0, 2.0])  # orthogonal columns, distinct norms
        f0, g0, h = identification_transform(f, g)
        np.testing.assert_allclose(np.abs(h), np.eye(K), atol=1e-8)

    def test_output_conditions(self, rng):
        T, K, p = 50, 3, 100
        f = rng.standard_normal((T, K))
        g = rng.standard_normal((p, K))
        f0, g0, h = identification_transform(f, g)
        np.testing.assert_allclose(f0.T @ f0 / T, np.eye(K), atol=1e-10)
        gtg = g0.T @ g0
        np.testing.assert_allclose(gtg, np.diag(np.diag(gtg)), atol=1e-10)
        assert np.all(np.diff(np.diag(gtg)) < 0)
        # the transform preserves the common component
        np.testing.assert_allclose(g0 @ f0.T, g @ f.T, atol=1e-8)

    def test_scalar_case(self, rng):
        f = rng.standard_normal((25, 1))
        g = rng.standard_normal((10, 1))
        f0, g0, h = identification_transform(f, g)
        expected = np.sqrt(25 / (f.T @ f))
        assert abs(abs(h[0, 0]) - expected[0, 0]) < 1e-10


class TestAlignColumns:
    def test_pure_sign_flip(self, rng):
        truth = rng.standard_normal((10, 3))
        signs, mx, fr = align_columns(-truth, truth)
        np.testing.assert_array_equal(signs, -np.ones(3))
        assert mx == 0.0 and fr == 0.0

    def test_identity(self, rng):
        truth = rng.standard_normal((10, 2))
        signs, mx, fr = align_columns(truth, truth)
        np.testing.assert_array_equal(signs, np.ones(2))
        assert mx == 0.0

    def test_single_perturbation(self, rng):
        truth = rng.standard_normal((8, 2))
        est = truth.copy()
        est[3, 1] += 0.1
        _, mx, _ = align_columns(est, truth)
        assert mx == pytest.approx(0.1)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            align_columns(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))
