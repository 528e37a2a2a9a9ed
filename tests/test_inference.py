import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppca.basis import BasisSpec, build_basis
from ppca.estimator import (
    PanelData,
    _residual_variances,
    align_columns,
    fit_projected_pca,
    fit_regular_pca,
)
from ppca.exceptions import (
    BoundaryWarning,
    DimensionMismatchError,
    NearTieWarning,
    RangeEmptyError,
    SingularWeightError,
)
from ppca import inference
from ppca.inference import select_k
from ppca.projection import Projector, make_projector
from ppca.simulate import gen_calibrated, gen_design, gen_design2
from scipy import special


@pytest.fixture
def design2_setup():
    panel = gen_design2(150, 40, seed=11)
    basis = build_basis(panel.data.x, BasisSpec(J=8))
    return panel, basis, make_projector(basis)


class TestTails:
    """The numpy-free p-value tails against their scipy oracles."""

    @pytest.mark.parametrize("df", [*range(1, 21), 24, 900, 3000, 15_000, 60_000])
    def test_chi2_sf_matches_chdtrc(self, df):
        # 0, x << df, the bulk df +- 8 sd out to +40 sd, and x >> df, where Q underflows
        sd = math.sqrt(2.0 * df)
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 0.5, 20) * df,
                             df + sd * np.linspace(-8.0, 40.0, 97),
                             np.geomspace(2.0, 50.0, 20) * df])
        for x in xs[xs >= 0]:
            want, got = special.chdtrc(df, x), inference._chi2_sf(df, x)
            if want < 1e-300:
                assert abs(got - want) < 1e-300, (df, x)
            else:
                assert abs(got - want) <= (1e-12 + 1e-14 * df) * want, (df, x, got, want)

    def test_normal_sf_matches_ndtr(self):
        for z in np.linspace(-10.0, 37.0, 941):
            want = special.ndtr(-z)
            assert abs(inference._normal_sf(z) - want) <= 1e-12 * want, z


class TestGZero:
    def test_orthogonal_loadings_give_zero(self, rng):
        # Y columns orthogonal to span(Phi) make PY annihilate the loadings
        p, T = 40, 12
        x = rng.standard_normal((p, 1))
        basis = build_basis(x, BasisSpec(J=5))
        P = make_projector(basis)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        # columns in the orthogonal complement of the basis span
        comp = q - P.project(q)
        y = comp[:, : T]
        data = PanelData(y=y, x=x)
        # orthonormal columns tie every eigenvalue of Y'Y
        with pytest.warns(NearTieWarning):
            res = inference.test_g_zero(data, P, 2)
        assert res.statistic < 1e-16

    def test_rank_one_panel_singular_weight(self, rng):
        # with K = 2 the second regular-PCA loading column of a rank-one Y is roundoff
        p, T = 30, 10
        y = np.outer(rng.standard_normal(p), rng.standard_normal(T))
        data = PanelData(y=y, x=rng.standard_normal((p, 1)))
        P = make_projector(build_basis(data.x, BasisSpec(J=5)))
        with pytest.raises(SingularWeightError):
            inference.test_g_zero(data, P, 2)

    @pytest.mark.parametrize("ratio, singular", [(1e-13, True), (1e-11, False)])
    def test_singular_weight_at_floor(self, rng, ratio, singular):
        # Y = U diag(1, sqrt(ratio)) V' makes ev_2 / ev_1 = ratio; FLOOR_REL = 1e-12 lies between
        p, T = 60, 20
        u = np.linalg.qr(rng.standard_normal((p, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((T, 2)))[0]
        data = PanelData(y=u * np.sqrt([1.0, ratio]) @ v.T, x=rng.standard_normal((p, 1)))
        P = make_projector(build_basis(data.x, BasisSpec(J=5)))
        _, _, ev = fit_regular_pca(data.y, 2)
        assert ev[1] / ev[0] == pytest.approx(ratio, rel=1e-2)
        if singular:
            with pytest.raises(SingularWeightError):
                inference.test_g_zero(data, P, 2)
        else:
            assert np.isfinite(inference.test_g_zero(data, P, 2).statistic)

    @pytest.mark.parametrize("p, T", [(150, 40), (2000, 60), (100, 400)])
    def test_statistic_matches_inverse_weight_oracle(self, p, T, q_of):
        # the paper's tr((Lam'Lam/p)^-1 Lam'P Lam) / p, with the K x K inverse and a dense P
        data = gen_design2(p, T, seed=3).data
        P = make_projector(build_basis(data.x, BasisSpec(J=8)))
        _, lam, _ = fit_regular_pca(data.y, 3)
        q = q_of(P)
        dense_p = q @ q.T
        oracle = np.trace(np.linalg.inv(lam.T @ lam / p) @ (lam.T @ dense_p @ lam)) / p
        assert inference.test_g_zero(data, P, 3).statistic == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case, n_gram_calls", [("design2", 0), ("noise", 1)])
    def test_no_full_gram_eigh_unless_fallback(self, monkeypatch, rng, case, n_gram_calls):
        # regular PCA takes its top-K pairs by subspace iteration; only a
        # panel with no eigengap (pure noise) falls back to the T x T eigh
        p, T = 300, 200
        panel = gen_design2(p, T, seed=4)
        y = panel.data.y if case == "design2" else rng.standard_normal((p, T))
        data = PanelData(y=y, x=panel.data.x)
        P = make_projector(build_basis(data.x, BasisSpec(J=8)))
        shapes, eigh = [], np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        inference.test_g_zero(data, P, 3)
        assert shapes.count((T, T)) == n_gram_calls
        assert shapes  # the Rayleigh-Ritz steps went through the recorder

    def test_power_on_design2(self, design2_setup):
        panel, _, P = design2_setup
        res = inference.test_g_zero(panel.data, P, 3)
        assert res.standardized > 10
        assert res.p_value_chisq < 0.01

    def test_depends_on_phi_only_through_span(self, design2_setup, rng):
        panel, basis, P = design2_setup
        r_mat = rng.standard_normal((basis.m, basis.m)) + 4 * np.eye(basis.m)
        P2 = make_projector(basis.values @ r_mat)
        a = inference.test_g_zero(panel.data, P, 3)
        b = inference.test_g_zero(panel.data, P2, 3)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-8)

    def test_result_schema(self, design2_setup):
        panel, basis, P = design2_setup
        res = inference.test_g_zero(panel.data, P, 3)
        obj = res.to_dict()
        assert json.loads(json.dumps(obj)) == obj  # what `ppca test` writes
        assert set(obj) == {"statistic", "standardized", "df", "p_normal", "p_chisq", "K"}
        # centered cubic blocks lose one dimension per covariate (the raw
        # block already spans the constant), so the projected dimension
        # is m - d and that is what the chi-square reference counts
        assert obj["df"] == P.rank * 3
        assert P.rank == basis.m - 1
        assert 0.0 <= obj["p_normal"] <= 1.0
        assert 0.0 <= obj["p_chisq"] <= 1.0


class TestGammaZero:
    def test_loadings_in_span_give_zero(self, rng):
        # Lambda exactly in the sieve span: (I - P) Lambda = 0
        p, T, K = 60, 15, 2
        x = rng.standard_normal((p, 1))
        basis = build_basis(x, BasisSpec(J=5))
        P = make_projector(basis)
        g = basis.values @ rng.standard_normal((basis.m, K))
        f = np.linalg.qr(rng.standard_normal((T, K)))[0] * np.sqrt(T)
        data = PanelData(y=g @ f.T, x=x)
        # the exact fit leaves only roundoff residuals, so the statistic divides
        # roundoff by floored variances; the annihilation shows in Gamma_hat itself
        fit = fit_projected_pca(data, P, K)
        assert np.abs(fit.gamma_hat).max() < 1e-8 * np.abs(fit.lambda_hat).max()

    def test_power_with_large_gamma(self, rng):
        panel = gen_design2(150, 60, seed=21)
        gamma = rng.normal(0, 0.5, size=panel.g_true.shape)
        y = panel.data.y + gamma @ panel.f_true.T
        data = PanelData(y=y, x=panel.data.x)
        basis = build_basis(data.x, BasisSpec(J=8))
        P = make_projector(basis)
        res = inference.test_gamma_zero(data, P, 3)
        assert res.p_value_chisq < 0.01

    def test_scale_invariance(self, design2_setup):
        panel, _, P = design2_setup
        a = inference.test_gamma_zero(panel.data, P, 3)
        scaled = PanelData(y=7.5 * panel.data.y, x=panel.data.x)
        b = inference.test_gamma_zero(scaled, P, 3)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-8 * max(1, a.statistic))

    def test_nonnegative(self, design2_setup):
        panel, _, P = design2_setup
        assert inference.test_gamma_zero(panel.data, P, 3).statistic >= 0.0
        assert inference.test_g_zero(panel.data, P, 3).statistic >= 0.0


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """No step after reading Y allocates a p x T array, nor a T x T one at T >= p."""

    @pytest.fixture(scope="class")
    def wide(self):
        data = gen_design2(4000, 200, seed=6).data
        P = make_projector(build_basis(data.x, BasisSpec(J=8)))
        return data, P, fit_projected_pca(data, P, 3).f_hat

    @pytest.fixture(scope="class")
    def long(self):
        # the T x T Gram alone would be 2 * Y.nbytes
        data = gen_design2(300, 600, seed=6).data
        return data, make_projector(build_basis(data.x, BasisSpec(J=8)))

    @pytest.mark.parametrize("step", ["sigma_u", "fit_projected", "test_g", "test_gamma"])
    def test_peak_below_quarter_of_y(self, wide, step):
        data, P, f_hat = wide
        run = {
            "sigma_u": lambda: _residual_variances(data.y, data.y @ f_hat / data.T),
            "fit_projected": lambda: fit_projected_pca(data, P, 3),
            "test_g": lambda: inference.test_g_zero(data, P, 3),
            "test_gamma": lambda: inference.test_gamma_zero(data, P, 3),
        }[step]
        peak = _traced_peak(run)
        assert peak < 0.25 * data.y.nbytes, peak / data.y.nbytes

    @pytest.mark.parametrize("step", ["fit_regular", "test_g"])
    def test_long_peak_below_quarter_of_y(self, long, step):
        data, P = long
        run = {
            "fit_regular": lambda: fit_regular_pca(data.y, 3),
            "test_g": lambda: inference.test_g_zero(data, P, 3),
        }[step]
        peak = _traced_peak(run)
        assert peak < 0.25 * data.y.nbytes, peak / data.y.nbytes

    def test_long_uncertified_fit_below_quarter_of_y(self, rng):
        # sigma_2 ~ sigma_3 keeps the gap bound from clearing, so pair K + 1 is iterated on Y itself
        u = np.linalg.qr(rng.standard_normal((300, 4)))[0]
        vt = np.linalg.qr(rng.standard_normal((600, 4)))[0].T
        y = u @ np.diag([300.0, 200.0, 200.0, 100.0]) @ vt + 1e-3 * rng.standard_normal((300, 600))
        peak = _traced_peak(lambda: fit_regular_pca(y, 2))
        assert peak < 0.25 * y.nbytes, peak / y.nbytes

    def test_long_plain_select_k_below_y(self, long):
        data, _ = long
        peak = _traced_peak(lambda: select_k(data.y, None, 12))
        # the p x p Gram is Y.nbytes / 2 here, the T x T one 2 * Y.nbytes
        assert peak < 0.75 * data.y.nbytes, peak / data.y.nbytes


class TestSelectK:
    def test_exact_low_rank(self, rng):
        # noiseless rank-3 projected data with m=12
        p, T, K = 100, 30, 3
        x = rng.standard_normal((p, 1))
        basis = build_basis(x, BasisSpec(J=11))
        assert basis.m == 12
        P = make_projector(basis)
        g = basis.values @ rng.standard_normal((basis.m, K))
        f = rng.standard_normal((T, K))
        y = g @ f.T
        res = select_k(y, P, basis.m)
        assert res.k_hat == 3

    @pytest.mark.filterwarnings("ignore::ppca.exceptions.BoundaryWarning")
    def test_projected_gram_eigh_oracle(self, spectrum_case):
        data, P, _, w, _ = spectrum_case
        res = select_k(data.y, P, 8)  # k_max = 3: four eigenvalues
        oracle = np.maximum(w[:4], 1e-12 * w[0])
        np.testing.assert_allclose(res.eigenvalues, oracle, rtol=1e-10)

    @pytest.mark.filterwarnings("ignore::ppca.exceptions.BoundaryWarning")
    @pytest.mark.parametrize("p, T", [(120, 40), (40, 120), (40, 40), (5, 30)])
    def test_plain_gram_eigh_oracle(self, p, T):
        y = gen_design2(p, T, seed=7).data.y
        res = select_k(y, None, 12)  # k_max = 5: six eigenvalues, past p = 5 in the last case
        w = np.linalg.eigvalsh(y.T @ y)[::-1][:6]
        np.testing.assert_allclose(res.eigenvalues, np.maximum(w, 1e-12 * w[0]), rtol=1e-12)

    def test_scale_free(self, rng):
        panel = gen_design2(80, 25, seed=5)
        basis = build_basis(panel.data.x, BasisSpec(J=9))
        P = make_projector(basis)
        a = select_k(panel.data.y, P, basis.m)
        b = select_k(3.7 * panel.data.y, P, basis.m)
        assert a.k_hat == b.k_hat
        np.testing.assert_allclose(a.ratios, b.ratios, rtol=1e-10)

    def test_plain_mode(self, rng):
        lam = rng.standard_normal((120, 2)) * 5
        f = rng.standard_normal((20, 2))
        y = lam @ f.T + 0.1 * rng.standard_normal((120, 20))
        assert select_k(y, None, 12).k_hat == 2

    def test_range_empty(self, rng, design2_setup):
        with pytest.raises(RangeEmptyError):
            select_k(rng.standard_normal((10, 5)), None, 3)
        # a one-column panel has no adjacent eigenvalue pair, in either mode
        panel, basis, P = design2_setup
        for projector in (None, P):
            with pytest.raises(RangeEmptyError, match="is empty"):
                select_k(panel.data.y[:, :1], projector, basis.m)

    @pytest.mark.parametrize("shape", [(5,), (4, 3, 2)])
    def test_y_must_be_2d(self, shape):
        # a 1-D Y raised a bare IndexError from y.shape[1]
        with pytest.raises(DimensionMismatchError, match="2-dimensional"):
            select_k(np.zeros(shape), None, 8)

    def test_boundary_flag(self, rng):
        # pure noise tends to put the argmax anywhere; force the boundary
        # with a rank-(kmax) signal
        p, T = 60, 20
        m = 8  # kmax = 3
        lam = rng.standard_normal((p, 3)) * 10
        f = rng.standard_normal((T, 3))
        y = lam @ f.T + 0.01 * rng.standard_normal((p, T))
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryWarning)
            with pytest.raises(BoundaryWarning):
                select_k(y, None, m)


def _span_outputs(data, basis, K=3):
    """Everything the estimator and both tests read off span(Phi): F, G, Gamma, S_G, S_Gamma, K_hat."""
    P = make_projector(basis)
    fit = fit_projected_pca(data, P, K)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        k_hat = select_k(data.y, P, basis.m).k_hat
    return {"F": fit.f_hat, "G": fit.g_hat, "Gamma": fit.gamma_hat,
            "S_G": inference.test_g_zero(data, P, K).statistic,
            "S_Gamma": inference.test_gamma_zero(data, P, K).statistic, "K_hat": k_hat}


def _assert_same_outputs(a, b):
    for key in ("F", "G", "Gamma", "S_G", "S_Gamma"):  # to 1e-10 of the largest entry
        assert np.abs(np.asarray(a[key]) - b[key]).max() <= 1e-10 * np.abs(a[key]).max(), key


SPECS = [BasisSpec(J=6), BasisSpec(family="polynomial", J=4), BasisSpec(family="fourier", J=4)]


class TestSpanInvariance:
    """The estimates depend on the covariates only through span(Phi(X))."""

    @given(st.sampled_from(["design2", "calibrated"]), st.sampled_from(SPECS),
           st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_affine_covariates(self, design, spec, seed):
        # x_l -> a_l x_l + b_l with 0.1 <= |a_l| <= 10 of either sign and |b_l| <= 10: a
        # negative a_l mirrors the knot set, which leaves the span unchanged
        rng = np.random.default_rng(seed)
        data = gen_design(design, 120, 20, rng).data
        d = data.x.shape[1]
        a = rng.uniform(0.1, 10.0, d) * rng.choice([-1.0, 1.0], d)
        moved = PanelData(y=data.y, x=data.x * a + rng.uniform(-10.0, 10.0, d))
        ref = _span_outputs(data, build_basis(data.x, spec))
        got = _span_outputs(moved, build_basis(moved.x, spec))
        _assert_same_outputs(ref, got)
        assert got["K_hat"] == ref["K_hat"]

    @given(st.sampled_from(["design2", "calibrated"]), st.sampled_from(SPECS),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_row_permutation(self, design, spec, seed):
        # permuting the rows of (Y, X) together permutes G_hat and Gamma_hat, so Lambda_hat,
        # and leaves F_hat, both statistics and K_hat: the quantile knots, the standardization
        # and the centring of each basis column see the rows as a set
        rng = np.random.default_rng(seed)
        data = gen_design(design, 120, 20, rng).data
        perm = rng.permutation(data.p)
        moved = PanelData(y=data.y[perm], x=data.x[perm])
        ref = _span_outputs(data, build_basis(data.x, spec))
        got = _span_outputs(moved, build_basis(moved.x, spec))
        _assert_same_outputs({**ref, "G": ref["G"][perm], "Gamma": ref["Gamma"][perm]}, got)
        assert got["K_hat"] == ref["K_hat"]

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_polynomial_and_bspline_share_the_cubic_span(self, seed):
        # cubic B-splines without interior knots span {1, x, x^2, x^3} per covariate,
        # as polynomials of degree 3 do: 17 and 13 columns of rank 13 on 4 covariates
        data = gen_calibrated(120, 20, seed=seed).data
        poly = build_basis(data.x, BasisSpec(family="polynomial", J=3))
        spline = build_basis(data.x, BasisSpec(J=4))
        assert (poly.m, spline.m) == (13, 17)
        assert make_projector(spline).rank == 13
        _assert_same_outputs(_span_outputs(data, poly), _span_outputs(data, spline))


@pytest.mark.parametrize("call", ["select_k", "fit_projected_pca", "test_g_zero", "test_gamma_zero"])
def test_one_projection_per_call(design2_setup, monkeypatch, call):
    # each projected call applies Phi' to p-row data once: the fit and the Gamma test read the
    # spectrum, G_hat and B_hat off the one Z = Q'Y, and the G test projects its loadings once
    panel, basis, P = design2_setup
    shapes, coordinates = [], Projector.coordinates

    def spy(self, M):
        shapes.append(np.shape(M))
        return coordinates(self, M)

    monkeypatch.setattr(Projector, "coordinates", spy)
    {"select_k": lambda: select_k(panel.data.y, P, basis.m),
     "fit_projected_pca": lambda: fit_projected_pca(panel.data, P, 3),
     "test_g_zero": lambda: inference.test_g_zero(panel.data, P, 3),
     "test_gamma_zero": lambda: inference.test_gamma_zero(panel.data, P, 3)}[call]()
    assert len(shapes) == 1 and shapes[0][0] == panel.data.p


class TestTimeInvariance:
    """Y -> Y O, O orthogonal, keeps Y Y' and so the loadings and both statistics, up to sign."""

    @given(st.sampled_from(["design2", "calibrated"]), st.sampled_from(SPECS),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_time_permutation(self, design, spec, seed):
        # Y -> Y Pi permutes the rows of F_hat and leaves Lambda_hat, G_hat, Gamma_hat, both
        # statistics and K_hat: the sum(v**3) sign convention sees the periods as a set
        rng = np.random.default_rng(seed)
        data = gen_design(design, 120, 20, rng).data
        perm = rng.permutation(data.T)
        basis = build_basis(data.x, spec)
        ref = _span_outputs(data, basis)
        got = _span_outputs(PanelData(y=data.y[:, perm], x=data.x), basis)
        _assert_same_outputs({**ref, "F": ref["F"][perm]}, got)
        assert got["K_hat"] == ref["K_hat"]

    @given(st.sampled_from(["design2", "calibrated"]), st.sampled_from(SPECS),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_time_rotation(self, design, spec, seed):
        # Y -> Y O with O orthogonal takes F_hat to O'F_hat and leaves Lambda_hat, G_hat and
        # Gamma_hat up to the sign of each column (the sum(v**3) convention is not rotation
        # invariant), and leaves both statistics and K_hat
        rng = np.random.default_rng(seed)
        data = gen_design(design, 120, 20, rng).data
        o = np.linalg.qr(rng.standard_normal((data.T, data.T)))[0]
        basis = build_basis(data.x, spec)
        ref = _span_outputs(data, basis)
        got = _span_outputs(PanelData(y=data.y @ o, x=data.x), basis)
        signs = align_columns(got["G"] + got["Gamma"], ref["G"] + ref["Gamma"])
        want = {**ref, "F": o.T @ ref["F"] * signs, "G": ref["G"] * signs,
                "Gamma": ref["Gamma"] * signs}
        _assert_same_outputs(want, got)
        assert got["K_hat"] == ref["K_hat"]
