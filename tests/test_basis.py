import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppca.basis import (
    BasisSpec,
    _bspline_block,
    build_basis,
    default_J,
    design_row,
    eval_curves,
    standardize_covariates,
)
from ppca.exceptions import InvalidSpecError, RankWarning, ZeroVarianceError
from ppca.projection import make_projector


def _spline_block(x, t):
    """The cubic B-spline block alone, written into zeros as ``build_basis`` writes its blocks."""
    out = np.zeros((len(x), len(t) - 4))
    _bspline_block(x, t, out, 0)
    return out


class TestStandardize:
    def test_symmetric_three_point(self):
        out, params = standardize_covariates(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-14)
        mu, sd = params[0]
        assert mu == pytest.approx(2.0)
        assert sd == pytest.approx(1.0)

    def test_idempotent_on_standardized(self, rng):
        x = rng.standard_normal((40, 2))
        once, _ = standardize_covariates(x)
        twice, _ = standardize_covariates(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_zero_variance_column(self):
        with pytest.raises(ZeroVarianceError):
            standardize_covariates(np.array([[0.0], [0.0], [0.0]]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_output_moments(self, seed):
        x = np.random.default_rng(seed).standard_normal((30, 3)) * 5 + 2
        out, _ = standardize_covariates(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=0, ddof=1), 1.0, atol=1e-12)


class TestBuildBasis:
    def test_bspline_partition_of_unity(self, rng):
        # raw (uncentered) cubic blocks sum to one at every point
        x = rng.standard_normal(60)
        basis = build_basis(x[:, None], BasisSpec(J=7))
        pts = rng.uniform(x.min(), x.max(), size=100)
        mu, sd = basis.standardization[0]
        block = _spline_block((pts - mu) / sd, basis.knots[0])
        np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)

    def test_polynomial_low_order_by_hand(self):
        # p = 4 > m = 3; x has mean 1/2 and sample variance 5/3
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        z = (x - 0.5) / np.sqrt(5.0 / 3.0)
        basis = build_basis(x[:, None], BasisSpec(family="polynomial", J=2))
        np.testing.assert_array_equal(basis.values[:, 0], 1.0)
        np.testing.assert_allclose(basis.values[:, 1], z, atol=1e-14)
        np.testing.assert_allclose(basis.values[:, 2], z**2 - np.mean(z**2), atol=1e-14)

    def test_centering_and_intercept(self, rng):
        x = rng.standard_normal((50, 2))
        basis = build_basis(x, BasisSpec(J=6))
        assert basis.m == 6 * 2 + 1
        np.testing.assert_array_equal(basis.values[:, 0], 1.0)
        np.testing.assert_allclose(basis.values[:, 1:].mean(axis=0), 0.0, atol=1e-10)

    def test_deterministic(self, rng):
        x = rng.standard_normal((40, 1))
        a = build_basis(x, BasisSpec(J=5))
        b = build_basis(x, BasisSpec(J=5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_p_le_m_rejected(self, rng):
        with pytest.raises(InvalidSpecError):
            build_basis(rng.standard_normal((8, 2)), BasisSpec(J=6))

    def test_fourier_family(self, rng):
        x = rng.uniform(0, 1, size=(30, 1))
        basis = build_basis(x, BasisSpec(family="fourier", J=4))
        assert basis.m == 5
        np.testing.assert_allclose(basis.values[:, 1:].mean(axis=0), 0.0, atol=1e-10)

    def test_bspline_needs_j_ge_4(self):
        with pytest.raises(InvalidSpecError):
            BasisSpec(J=3)

    def test_dead_column_warns(self):
        pm1 = np.repeat([-1.0, 1.0], 10)[:, None]
        for x, family, J, m, rank in [
            (pm1, "polynomial", 2, 3, 2),  # x^2 is constant on {-1, 1}: its centred column is 0
            (pm1, "fourier", 4, 5, 1),  # on {-1, 1} every Fourier column is constant to roundoff
            # x^1 .. x^18 of 500 normals: no column is zero, but the SVD cut keeps 15 of 19
            (np.random.default_rng(0).standard_normal((500, 1)), "polynomial", 18, 19, 15),
        ]:
            basis = build_basis(x, BasisSpec(family=family, J=J))
            assert basis.m == m
            with pytest.warns(RankWarning, match=f"rank {rank} < {m}$"):
                assert make_projector(basis).rank == rank


class TestDefaultJ:
    def test_growth_rule_example(self):
        assert default_J(500, 50, 1) == 37

    def test_perfect_fourth_power(self):
        assert default_J(16, 16, 1) == 12

    def test_small_panel(self):
        assert default_J(20, 10, 1) == 11

    def test_clamped_to_four(self):
        assert default_J(2, 2, 1) == 4


class TestEvalCurves:
    def test_training_rows_reproduced(self, rng):
        x = rng.standard_normal((60, 2))
        basis = build_basis(x, BasisSpec(J=6))
        b_hat = rng.standard_normal((basis.m, 3))
        out = eval_curves(b_hat, basis, x)
        np.testing.assert_allclose(out.total, basis.values @ b_hat, atol=1e-12)

    def test_additive_decomposition_sums(self, rng):
        x = rng.standard_normal((50, 2))
        basis = build_basis(x, BasisSpec(J=5))
        b_hat = rng.standard_normal((basis.m, 2))
        out = eval_curves(b_hat, basis, x[:10])
        recon = out.per_covariate.sum(axis=1) + out.intercept
        np.testing.assert_allclose(recon, out.total, atol=1e-12)

    def test_out_of_range_clamped(self, rng):
        x = rng.standard_normal((40, 1))
        basis = build_basis(x, BasisSpec(J=5))
        b_hat = rng.standard_normal((basis.m, 2))
        far = eval_curves(b_hat, basis, np.array([[x.max() + 10.0]]))
        edge = eval_curves(b_hat, basis, np.array([[x.max()]]))
        np.testing.assert_array_equal(far.total, edge.total)
        np.testing.assert_array_equal(far.per_covariate, edge.per_covariate)

    def test_non_finite_points_rejected(self, rng):
        # points of more than two dimensions were evaluated wrongly or raised an IndexError
        basis = build_basis(rng.standard_normal((40, 1)), BasisSpec(J=5))
        for points in (np.array([[np.nan]]), np.zeros((2, 1, 1)), np.zeros((3, 1, 2))):
            with pytest.raises(InvalidSpecError):
                eval_curves(np.zeros((basis.m, 1)), basis, points)

    def test_coefficients_of_more_than_two_dimensions_rejected(self, rng):
        # an (m, 1, 1) B-hat ended in numpy's matmul ValueError
        basis = build_basis(rng.standard_normal((40, 1)), BasisSpec(J=5))
        with pytest.raises(InvalidSpecError, match="1-D or 2-D"):
            eval_curves(np.zeros((basis.m, 1, 1)), basis, np.zeros((2, 1)))

    def test_design2_noiseless_curve_recovery(self):
        # fit with U=0, Gamma=0: recovered curves approach the truth as J grows
        from ppca.estimator import fit_projected_pca, identification_transform, PanelData
        from ppca.projection import make_projector
        from ppca.simulate import design2_curves

        rng = np.random.default_rng(7)
        p, T = 600, 40
        x = rng.standard_normal(p)
        g = design2_curves(x)
        f = rng.standard_normal((T, 3))
        f0, g0, _ = identification_transform(f, g)
        data = PanelData(y=g0 @ f0.T, x=x[:, None])
        errors = []
        for J in (6, 12, 24):
            basis = build_basis(data.x, BasisSpec(J=J))
            fit = fit_projected_pca(data, make_projector(basis), 3)
            grid = np.linspace(np.quantile(x, 0.05), np.quantile(x, 0.95), 80)
            est = eval_curves(fit.b_hat, basis, grid[:, None]).total
            truth, _, _ = identification_transform(f, design2_curves(x))
            # compare against the identified truth curves on the grid
            truth_grid = design2_curves(grid)
            h = np.linalg.lstsq(design2_curves(x), g0, rcond=None)[0]
            target = truth_grid @ h
            signs = np.sign(np.sum(est * target, axis=0))
            signs[signs == 0] = 1.0
            errors.append(np.abs(est * signs - target).max())
        # cubic splines contain the cubic truth, so the fit is exact at
        # every J >= 4; the spec's J -> infinity limit is reached already
        assert max(errors) < 1e-8

    def test_design_row_matches_training(self, rng):
        x = rng.standard_normal((45, 2))
        basis = build_basis(x, BasisSpec(J=5))
        np.testing.assert_allclose(design_row(basis, x), basis.values, atol=1e-12)


class TestBsplineOracle:
    """The numpy B-spline block against scipy's design matrix, bit for bit."""

    @pytest.mark.parametrize("J", [4, 5, 8, 20])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_scipy_design_matrix(self, rng, J, tied):
        from scipy.interpolate import BSpline

        x = rng.standard_normal((300, 2)) * [1.0, 4.0]
        if tied:
            x = np.round(x, 1)
        basis = build_basis(x, BasisSpec(J=J))
        far = np.array([[-1e3, 1e3], [1e3, -1e3]])
        pts = np.vstack([x, far, rng.uniform(-4.0, 4.0, (50, 2))])
        oracle = [np.ones((len(pts), 1))]
        for l, kv in enumerate(basis.knots):
            mu, sd = basis.standardization[l]
            # the data, both ends of the support, every knot, and points beyond
            xl = np.concatenate([(x[:, l] - mu) / sd, kv, [kv[0] - 1.0, kv[-1] + 1.0]])
            ref = BSpline.design_matrix(np.clip(xl, kv[0], kv[-1]), kv, 3).toarray()
            assert _spline_block(xl, kv).tobytes() == ref.tobytes()
            zl = np.clip((pts[:, l] - mu) / sd, kv[0], kv[-1])
            oracle.append(BSpline.design_matrix(zl, kv, 3).toarray()
                          - basis.centers[1 + l * J:1 + (l + 1) * J])
        oracle = np.hstack(oracle)
        b_hat = rng.standard_normal((basis.m, 2))
        assert design_row(basis, pts).tobytes() == oracle.tobytes()
        np.testing.assert_array_equal(eval_curves(b_hat, basis, pts).total, oracle @ b_hat)

    def test_signed_zero_on_a_knot(self):
        # scipy's dense matrix holds +0.0 where the recurrence yields -0.0
        from scipy.interpolate import BSpline

        kv = np.array([-1.0] * 4 + [0.0] + [1.0] * 4)
        z = np.array([-0.0, 0.0, -1.0, 1.0, 0.5])
        ref = BSpline.design_matrix(z, kv, 3).toarray()
        assert _spline_block(z, kv).tobytes() == ref.tobytes()


class TestSpecSerialization:
    def test_round_trip(self):
        spec = BasisSpec(family="fourier", J=6)
        obj = spec.to_dict()
        assert set(obj) == {"family", "J"}
        assert BasisSpec.from_dict(obj) == spec

    def test_documented_schema(self):
        assert BasisSpec.from_dict({"family": "bspline_cubic", "J": 8}) == BasisSpec()

    def test_flags_must_be_json_booleans(self):
        # standardize is no key: covariates are always standardized
        with pytest.raises(InvalidSpecError, match="standardize"):
            BasisSpec.from_dict({"family": "polynomial", "J": 2, "standardize": False})

    def test_j_rejects_boolean(self):
        # bool is a subclass of int, so "J": true would otherwise read as J = 1
        with pytest.raises(InvalidSpecError, match="J must be an integer"):
            BasisSpec.from_dict({"family": "polynomial", "J": True})

    @pytest.mark.parametrize("J", [True, 2.5, "8"])
    def test_constructor_checks_j_type(self, J):
        # library callers get the typed error too, not J read as 1 or a raw TypeError
        with pytest.raises(InvalidSpecError, match="J must be an integer"):
            BasisSpec(family="polynomial", J=J)

    def test_bad_json(self):
        # invalid JSON text is the file reader's error: TestFit::test_missing_file_exit_2
        with pytest.raises(InvalidSpecError):
            BasisSpec.from_dict({"family": "bspline_cubic", "bogus": 1})
