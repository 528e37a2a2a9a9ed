import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppca import estimator
from ppca.basis import BasisSpec, build_basis
from ppca.estimator import (
    FLOOR_REL,
    NEAR_TIE_RTOL,
    PanelData,
    _residual_variances,
    _top_eigh,
    align_columns,
    fit_projected_pca,
    fit_regular_pca,
    fix_signs,
    identification_transform,
)
from ppca.exceptions import (
    DimensionMismatchError,
    EigenFailureError,
    KTooLargeError,
    NearTieWarning,
    RankDeficientError,
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

    def test_noiseless_identified_recovery(self, rng, aligned_max_error):
        p, T, K = 80, 20, 3
        x = rng.standard_normal((p, 1))
        basis = build_basis(x, BasisSpec(J=6))
        b = rng.standard_normal((basis.m, K))
        g_raw = basis.values @ b
        f_raw = rng.standard_normal((T, K))
        f0, g0, _ = identification_transform(f_raw, g_raw)
        data = PanelData(y=g0 @ f0.T, x=x)
        fit = fit_projected_pca(data, make_projector(basis), K)
        assert aligned_max_error(fit.f_hat, f0) < 1e-8
        assert aligned_max_error(fit.g_hat, g0) < 1e-8

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

    def test_near_tie_warns(self, rng, q_of):
        p, T = 40, 12
        P = make_projector(rng.standard_normal((p, 4)))
        vt = np.linalg.qr(rng.standard_normal((T, 4)))[0].T
        # Z = Q'Y has singular values 3, 2, 2, 1: eigenvalues 2 and 3 tie
        y = q_of(P) @ np.diag([3.0, 2.0, 2.0, 1.0]) @ vt
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
        f_hat, _, _ = fit_regular_pca(np.outer(lam, f), 1)
        target = np.sqrt(T) * f / np.linalg.norm(f)
        sign = np.sign(f_hat[:, 0] @ target)
        np.testing.assert_allclose(sign * f_hat[:, 0], target, atol=1e-8)

    def test_svd_oracle(self, rng):
        y = rng.standard_normal((4, 3))
        f_hat, _, _ = fit_regular_pca(y, 2)
        _, _, vt = np.linalg.svd(y)
        for k in range(2):
            target = np.sqrt(3) * vt[k]
            sign = np.sign(f_hat[:, k] @ target)
            np.testing.assert_allclose(sign * f_hat[:, k], target, atol=1e-8)

    def test_full_span_projection_equals_regular(self, rng):
        p, T = 12, 8
        data = PanelData(y=rng.standard_normal((p, T)), x=rng.standard_normal((p, 1)))
        P = make_projector(rng.standard_normal((p, p)) + 3 * np.eye(p))
        proj_fit = fit_projected_pca(data, P, 2)
        f_hat, _, _ = fit_regular_pca(data.y, 2)
        np.testing.assert_allclose(proj_fit.f_hat, f_hat, atol=1e-8)

    @pytest.mark.parametrize("c", [1e150, 1e-150])
    @pytest.mark.parametrize("p, T", [(300, 40), (200, 400)])  # through the Gram, then from Y itself
    def test_scale_free(self, p, T, c):
        # residuals and gap bound in units of theta_1: nothing overflows, and no residual
        # underflows to a false convergence
        y = gen_design2(p, T, seed=2).data.y
        f_hat, _, eigvals = fit_regular_pca(y, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f_c, _, eig_c = fit_regular_pca(c * y, 3)
        np.testing.assert_allclose(eig_c, c * c * eigvals, rtol=1e-12, atol=0)
        np.testing.assert_allclose(f_c, f_hat, rtol=0, atol=1e-12)

    def test_panel_without_rows(self):
        # Y'Y = 0: orthonormal factors with zero eigenvalues and no loadings, through the
        # iteration (T = 20 > q) and through the full eigh (T = 7 <= q)
        for T in (20, 7):
            f_hat, lambda_hat, eigvals = fit_regular_pca(np.zeros((0, T)), 3)
            assert f_hat.shape == (T, 3) and lambda_hat.shape == (0, 3)
            np.testing.assert_array_equal(eigvals, 0.0)
            np.testing.assert_allclose(f_hat.T @ f_hat / T, np.eye(3), rtol=0, atol=1e-12)

    def test_overflowing_gram_raises_eigen_failure(self):
        # Y'Y of a design-2 panel scaled by 1e200 overflows to inf, and eigh cannot converge
        y = gen_design2(40, 10, seed=1).data.y * 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EigenFailureError):
            fit_regular_pca(y, 2)


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
        ("tiny_tall", 1, 2),  # q >= T >= p: the top K + 1 pairs of the p x p Gram
    ])
    def test_matches_eigh(self, rng, case, K, n_values):
        y = {
            "design2": lambda: gen_design2(300, 200, seed=1).data.y,
            "noise": lambda: rng.standard_normal((300, 200)),
            "rank_deficient": lambda: gen_design2(20, 60, seed=2).data.y,
            "tiny_wide": lambda: rng.standard_normal((4, 3)),
            "tiny_tall": lambda: rng.standard_normal((3, 4)),
        }[case]()
        assert _top_eigh(y, K)[0].size == n_values
        f_hat, _, eigvals = fit_regular_pca(y, K)
        f_ref, eig_ref = _gram_eigh_reference(y, K)
        np.testing.assert_allclose(f_hat, f_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(eigvals, eig_ref, rtol=1e-10)
        f_again, _, eig_again = fit_regular_pca(y, K)
        assert f_again.tobytes() == f_hat.tobytes()
        assert eig_again.tobytes() == eigvals.tobytes()

    def test_near_tie_warns_and_matches(self, rng):
        u = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        vt = np.linalg.qr(rng.standard_normal((30, 4)))[0].T
        y = u @ np.diag([3.0, 2.0, 2.0, 1.0]) @ vt  # Y'Y eigenvalues 2 and 3 tie
        # the tie defeats the gap bound, so pair K + 1 is iterated to convergence
        assert _top_eigh(y, 2)[0].size == 3
        with pytest.warns(NearTieWarning):
            f_hat, _, eigvals = fit_regular_pca(y, 2)
        f_ref, eig_ref = _gram_eigh_reference(y, 2)
        np.testing.assert_allclose(eigvals, eig_ref, rtol=1e-10)
        # inside the tied pair the second factor is not determined
        np.testing.assert_allclose(f_hat[:, 0], f_ref[:, 0], rtol=0, atol=1e-10)


def _factor_panel(rng, p, T, K, noise=0.1):
    """Exact rank-K signal with singular values 30, 20, 10, ... plus N(0, noise^2) entries."""
    u = np.linalg.qr(rng.standard_normal((p, K)))[0]
    vt = np.linalg.qr(rng.standard_normal((T, K)))[0].T
    return u @ np.diag(10.0 * np.arange(K + 1, 1, -1)) @ vt + noise * rng.standard_normal((p, T))


def _top_eigh_with_bound(monkeypatch, y, K):
    """``_top_eigh(y, K)``, its gap bound, whether it returned on the step that took the bound, and
    the rows per group of the bound.

    Each step takes the Ritz residuals' column norms in one ``np.linalg.norm`` call; ``_gap_bound``
    is called once, in units of theta_1, and the bound returned is in units of Y'Y.
    """
    steps, calls, real_norm, real_bound = [], [], np.linalg.norm, estimator._gap_bound
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: steps.append(None) or real_norm(*a, **kw))
    monkeypatch.setattr(
        estimator, "_gap_bound",
        lambda y, u, rows, unit: calls.append((len(steps), rows, real_bound(y, u, rows, unit))) or calls[-1][2],
    )
    w, v = _top_eigh(y, K)
    monkeypatch.undo()
    (step, rows, bound), = calls
    return w, v, w[0] * bound, step == len(steps), rows


class TestGramFreeRegularPca:
    """At T >= p plain-mode K > 0 pairs come from Y itself, with the gap certified block by block."""

    @pytest.mark.parametrize("case, K", [
        ("design2_square", 3),  # p = T
        ("design2_long", 3),
        ("factor_square", 2),
        ("factor_narrow", 3),  # p = 6 <= q = K + 5 < T
        ("factor_tiny", 2),  # p = 5 <= q = 7 < T = 12
    ])
    def test_matches_gram_route(self, rng, monkeypatch, case, K):
        y = {
            "design2_square": lambda: gen_design2(200, 200, seed=3).data.y,
            "design2_long": lambda: gen_design2(100, 400, seed=4).data.y,
            "factor_square": lambda: _factor_panel(rng, 30, 30, K),
            "factor_narrow": lambda: _factor_panel(rng, 6, 50, K),
            "factor_tiny": lambda: _factor_panel(rng, 5, 12, K),
        }[case]()
        w, v, bound, stopped_at_bound, _ = _top_eigh_with_bound(monkeypatch, y, K)
        assert w.size == K + 1 and bound * (1.0 + NEAR_TIE_RTOL) < w[K - 1]  # the gap was certified
        assert stopped_at_bound  # so pair K + 1 was not iterated on
        T = y.shape[1]
        f_ref, eig_ref = _gram_eigh_reference(y, K)
        np.testing.assert_allclose(w[:K] / T, eig_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.sqrt(T) * fix_signs(v[:, :K]), f_ref, rtol=0, atol=1e-12 * np.sqrt(T))
        _, _, eigvals = fit_regular_pca(y, K)
        np.testing.assert_allclose(eigvals, eig_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p, T, block_bytes, applied, certified", [
        # 65 rows fill 512 KiB, and p = 9 * 65 + 15; the gap bound takes 2q = 16 rows (K = 3)
        (600, 1000, None, [65] * 9 + [15], [16] * 37 + [8]),
        (30, 400, None, [30], [16, 14]),  # p is below one 163-row block
        (100, 4096, None, [16] * 6 + [4], [16] * 6 + [4]),  # 16 rows fill 512 KiB: 2q rows
        # a row of 3200 bytes is wider than the block, so Y'Y V takes all of Y; the gap bound
        # still takes 2q-row groups, which certify where one row each would not
        (200, 400, 1024, [200], [16] * 12 + [8]),
    ])
    def test_block_edges(self, rng, monkeypatch, p, T, block_bytes, applied, certified):
        y = gen_design2(p, T, seed=7).data.y if p >= 100 else _factor_panel(rng, p, T, 3)
        if block_bytes is not None:
            monkeypatch.setattr(estimator, "ROW_BLOCK_BYTES", block_bytes)
        made, real = [], estimator._row_blocks  # the application's blocks
        monkeypatch.setattr(estimator, "_row_blocks", lambda *a: made.append(real(*a)) or made[-1])
        w, v, bound, stopped_at_bound, rows = _top_eigh_with_bound(monkeypatch, y, 3)
        assert [[len(range(p)[b]) for b in blocks] for blocks in made] == [applied]
        assert [min(rows, p - lo) for lo in range(0, p, rows)] == certified
        assert w.size == 4 and bound * (1.0 + NEAR_TIE_RTOL) < w[2] and stopped_at_bound
        f_ref, eig_ref = _gram_eigh_reference(y, 3)
        np.testing.assert_allclose(w[:3] / T, eig_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.sqrt(T) * fix_signs(v[:, :3]), f_ref, rtol=0, atol=1e-12 * np.sqrt(T))

    def test_near_tie_falls_back_and_warns(self, rng, monkeypatch):
        u = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        vt = np.linalg.qr(rng.standard_normal((40, 4)))[0].T
        y = u @ np.diag([3.0, 2.0, 2.0 * (1 - 1e-12), 1.0]) @ vt  # T >= p, sigma_2 ~ sigma_3
        w, _, bound, _, _ = _top_eigh_with_bound(monkeypatch, y, 2)
        # the bound cannot clear a tie, so pair K + 1 is iterated to convergence, with no full eigh
        assert w.size == 3 and bound * (1.0 + NEAR_TIE_RTOL) >= w[1]
        with pytest.warns(NearTieWarning):
            f_hat, _, eigvals = fit_regular_pca(y, 2)
        f_ref, eig_ref = _gram_eigh_reference(y, 2)
        np.testing.assert_allclose(eigvals, eig_ref, rtol=1e-10)
        np.testing.assert_allclose(f_hat[:, 0], f_ref[:, 0], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("p, T, K, rank", [
        (200, 300, 3, 200),  # a product of Gaussian matrices has no gap: the iteration gives up
        (5, 7, 3, 2),  # q >= T, and pairs 3 and 4 are null
        (2, 6, 3, 2),  # pairs 3 and 4 lie past p
        (0, 7, 3, 0),
    ])
    def test_fallback_takes_small_gram(self, rng, monkeypatch, p, T, K, rank):
        # the pairs come from eigh of the p x p Gram, with null pairs completed orthonormally
        y = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, T))
        shapes, real = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or real(a))
        w, v = _top_eigh(y, K)
        monkeypatch.undo()
        assert shapes[-1] == (p, p) and (T, T) not in shapes
        ref = np.linalg.eigvalsh(y.T @ y)[::-1][: K + 1]
        scale = max(ref[0], 1.0)
        assert w.size == K + 1
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(v.T @ v, np.eye(K + 1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(y.T @ (y @ v), v * w, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("p, T, gram_free", [(300, 600, True), (200, 200, True), (600, 300, False)])
    def test_route_follows_shape(self, p, T, gram_free):
        y = gen_design2(p, T, seed=5).data.y
        tracemalloc.start()
        try:
            fit_regular_pca(y, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak < 8 * T * T) == gram_free, peak  # the T x T Gram alone takes 8 T^2 bytes


@st.composite
def _gap_bound_cases(draw):
    """T >= p panels (noise, exact rank K, or rank K plus noise) at scale 10^0 or 10^+-150,
    with V_K the top K eigenvectors of Y'Y or a random orthonormal T x K."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    K = draw(st.integers(1, 4))
    rows = 2 * (K + 5)
    p = draw(st.sampled_from([0, 1, K + 1, rows - 1, rows, rows + 3, 3 * rows + 5, 60]))
    T = max(p, K + 1) + draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["noise", "rank_k", "rank_k", "factor"]))  # rank K: the tightest
    y = rng.standard_normal((p, T))
    if kind != "noise":
        signal = rng.standard_normal((p, K)) @ rng.standard_normal((K, T)) * 10.0
        y = signal if kind == "rank_k" else signal + y
    if draw(st.booleans()):
        v_k = np.linalg.eigh(y.T @ y)[1][:, ::-1][:, :K]
    else:
        v_k = np.linalg.qr(rng.standard_normal((T, K)))[0]
    return y * draw(st.sampled_from([1.0, 1e150, 1e-150])), v_k, rows


class TestGapBound:
    @given(_gap_bound_cases())
    @settings(max_examples=400, deadline=None)
    def test_bounds_lambda_k_plus_1(self, case):
        y, v_k, rows = case
        K = v_k.shape[1]
        lam = np.linalg.eigvalsh(y @ y.T) if y.shape[0] else np.zeros(1)
        unit = lam[-1] if lam[-1] > 0 else 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = estimator._gap_bound(y, y @ v_k, rows, unit)
        assert np.isfinite(bound)
        assert bound >= (lam[-(K + 1)] if lam.size > K else 0.0) / unit


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
        w, v = _top_eigh(y, K)
        assert w.size == K + 1  # the iteration route, not its eigh fallback
        order = np.argsort(w)[::-1][:K]
        _, ref = np.linalg.eigh(y.T @ y)
        np.testing.assert_allclose(
            fix_signs(v[:, order]), fix_signs(ref[:, ::-1][:, :K]), rtol=0, atol=1e-8
        )


class TestVerifyEquivalence:
    def test_dual_and_primal_loadings_agree(self, spectrum_case, equivalence_error):
        data, P, K, _, _ = spectrum_case
        assert equivalence_error(data, P, K) < (1e-10 if P.rank == 1 else 1e-8)


class TestSigmaU:
    """``_residual_variances``, the sigma_u estimate of ``test_gamma_zero``."""

    def test_exact_fit_floors(self, rng):
        T, K = 12, 2
        f = np.linalg.qr(rng.standard_normal((T, K)))[0] * np.sqrt(T)
        lam = rng.standard_normal((20, K))
        y = lam @ f.T
        var = _residual_variances(y, y @ f / T)
        assert np.all(var > 0)
        assert var.max() <= 1e-6  # everything at or near the floor

    def test_no_factors_row_second_moments(self, rng):
        y = rng.standard_normal((6, 9))
        var = _residual_variances(y, np.zeros((6, 0)))
        np.testing.assert_allclose(var, np.sum(y**2, axis=1) / 9, atol=1e-14)

    @pytest.mark.parametrize("case", ["random", "design2"])
    def test_matches_residual_oracle(self, rng, case):
        # the row-sum form ||y_i||^2/T - ||lambda_i||^2 against the p x T residual
        if case == "random":
            y = rng.standard_normal((3, 4))
            f_hat, lam, _ = fit_regular_pca(y, 1)
        else:
            data = gen_design2(1000, 50, seed=8).data
            y = data.y
            fit = fit_projected_pca(data, make_projector(build_basis(data.x, BasisSpec(J=8))), 3)
            f_hat, lam = fit.f_hat, fit.lambda_hat
        var = _residual_variances(y, lam)
        resid = y - lam @ f_hat.T
        oracle = np.diag(resid @ resid.T) / y.shape[1]
        assert oracle.min() > 1e3 * FLOOR_REL * oracle.max()  # no row at the floor
        np.testing.assert_allclose(var, oracle, rtol=1e-10, atol=0)


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

    def test_tied_loadings_warn(self, rng):
        # F'F/T = I and G'G = I: every eigenvalue of the whitened G'G is 1
        T, K = 40, 3
        f = np.linalg.qr(rng.standard_normal((T, K)))[0] * np.sqrt(T)
        g = np.linalg.qr(rng.standard_normal((30, K)))[0]
        with pytest.warns(NearTieWarning, match="whitened G'G"):
            identification_transform(f, g)

    @pytest.mark.parametrize("singular, how", [("F", "repeat"), ("G", "repeat"), ("F", "zero")],
                             ids=["F", "G", "F_zero"])
    def test_singular_input_raises(self, rng, singular, how):
        # a repeated column makes F'F or G'G exactly singular, as does an all-zero F
        f = rng.standard_normal((20, 2))
        g = rng.standard_normal((30, 2))
        if how == "zero":
            f[:] = 0.0
        elif singular == "F":
            f[:, 1] = f[:, 0]
        else:
            g[:, 1] = g[:, 0]
        with pytest.raises(RankDeficientError, match=f"{singular}'{singular}"):
            identification_transform(f, g)

    @pytest.mark.parametrize("f_scale, g_scale", [(1e-7, 1.0), (1.0, 1e-8)])
    def test_rank_check_is_relative(self, rng, f_scale, g_scale):
        # well-conditioned inputs at a small scale are not singular, and F0 does not see the scale
        f = rng.standard_normal((50, 3))
        g = rng.standard_normal((100, 3))
        f0, _, _ = identification_transform(f, g)
        f0_scaled, _, _ = identification_transform(f_scale * f, g_scale * g)
        np.testing.assert_allclose(f0_scaled, f0, rtol=0, atol=1e-12)

    def test_scalar_case(self, rng):
        f = rng.standard_normal((25, 1))
        g = rng.standard_normal((10, 1))
        f0, g0, h = identification_transform(f, g)
        expected = np.sqrt(25 / (f.T @ f))
        assert abs(abs(h[0, 0]) - expected[0, 0]) < 1e-10


class TestAlignColumns:
    def test_pure_sign_flip(self, rng):
        truth = rng.standard_normal((10, 3))
        np.testing.assert_array_equal(align_columns(-truth, truth), -np.ones(3))

    def test_identity(self, rng):
        truth = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(align_columns(truth, truth), np.ones(2))

    def test_single_perturbation(self, rng):
        # a perturbed entry leaves each column's sign to its own match
        truth = rng.standard_normal((8, 2))
        est = truth * [-1.0, 1.0]
        est[3, 1] += 0.1
        np.testing.assert_array_equal(align_columns(est, truth), [-1.0, 1.0])

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            align_columns(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))
