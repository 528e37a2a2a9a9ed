import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppca.basis import BasisSpec, build_basis, default_J
from ppca.exceptions import DegenerateBasisError, DimensionMismatchError, InvalidSpecError
from ppca.projection import make_projector
from ppca.simulate import gen_design


def _assert_matches_svd_oracle(P, phi, c):
    """P c and the least-norm sieve coefficients agree with a thin SVD cut at 1e-10 * s_1."""
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    r = int(np.sum(s > 1e-10 * s[0]))
    q, coef = u[:, :r], vt[:r].T / s[:r]
    assert P.rank == r
    for got, want in ((P.project(c), q @ (q.T @ c)),
                      (P.coef @ P.coordinates(c), coef @ (q.T @ c))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the SVDs taken, so a test can tell the fallback from the Cholesky path."""
    calls, svd = [], np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestMakeProjector:
    def test_constant_basis_is_averaging(self, rng):
        p = 9
        P = make_projector(np.ones((p, 1)))
        y = rng.standard_normal((p, 4))
        proj = P.project(y)
        np.testing.assert_allclose(proj, np.tile(y.mean(axis=0), (p, 1)), atol=1e-12)

    def test_duplicated_column_dropped(self, rng, svd_calls):
        phi = rng.standard_normal((12, 3))
        phi_dup = np.hstack([phi, phi[:, :1]])
        P = make_projector(phi_dup)
        assert svd_calls == [phi_dup.shape] and P.rank == 3  # by the SVD fallback
        _assert_matches_svd_oracle(P, phi_dup, rng.standard_normal((12, 2)))
        probe = rng.standard_normal((12, 5))
        np.testing.assert_allclose(
            P.project(probe), make_projector(phi).project(probe), atol=1e-9
        )

    def test_matches_brute_force_inverse(self, rng, q_of):
        phi = rng.standard_normal((6, 3))
        brute = phi @ np.linalg.inv(phi.T @ phi) @ phi.T
        P = make_projector(phi)
        q = q_of(P)
        np.testing.assert_allclose(q @ q.T, brute, atol=1e-10)

    def test_degenerate_basis(self):
        with pytest.raises(DegenerateBasisError):
            make_projector(np.zeros((5, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, rng, bad):
        phi = rng.standard_normal((10, 3))
        phi[4, 1] = bad
        with pytest.raises(InvalidSpecError, match="non-finite"):
            make_projector(phi)


@pytest.fixture(scope="module")
def harness_panel():
    """Calibrated (5000, 10) and its basis at the harness J (J = 44, m = 177); CholeskyQR alone
    misses the orthonormality check here (1.9e-12), so the m-space CholeskyQR2 pass must run."""
    panel = gen_design("calibrated", 5000, 10, np.random.default_rng([0, 5000, 10, 0]))
    x = panel.data.x
    return panel, build_basis(x, BasisSpec(J=default_J(5000, 10, x.shape[1])))


class TestFactorisation:
    # polynomial J 6-9 and Fourier J 20-40 run cond(Phi) from about 1e2 to 1e5, where the
    # rounding of Phi'Phi alone can move Q'Q by more than ORTHO_TOL while W'GW = I holds
    SPECS = [BasisSpec(), BasisSpec(J=20), BasisSpec(family="fourier", J=6)] + [
        BasisSpec(family="polynomial", J=J) for J in (4, 6, 7, 8, 9)] + [
        BasisSpec(family="fourier", J=J) for J in (20, 40)]

    @pytest.mark.parametrize("design", ["design2", "calibrated"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.J}")
    def test_matches_svd_oracle(self, design, spec, svd_calls, q_of):
        panel = gen_design(design, 300, 50, np.random.default_rng(7))
        basis = build_basis(panel.data.x, spec)
        P = make_projector(basis)
        fast = not svd_calls
        _assert_matches_svd_oracle(P, basis.values, panel.data.y)
        if spec.family == "bspline_cubic":
            # each block's centred columns sum to zero: rank m - d, by the Cholesky path
            assert fast and P.rank == basis.m - basis.d
        q = q_of(P)
        assert np.abs(q.T @ q - np.eye(P.rank)).max() <= 1e-12

    def test_harness_j_takes_no_svd(self, harness_panel, svd_calls, q_of):
        panel, basis = harness_panel
        P = make_projector(basis)
        assert svd_calls == [] and P.rank == basis.m - basis.d
        _assert_matches_svd_oracle(P, basis.values, panel.data.y)
        q = q_of(P)
        assert np.abs(q.T @ q - np.eye(P.rank)).max() <= 1e-12

    def test_harness_j_holds_no_p_by_r_array(self, harness_panel):
        # Q would be p x 173, about the size of the design itself
        basis = harness_panel[1]
        tracemalloc.start()
        try:
            make_projector(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * basis.values.nbytes

    def test_fallback_on_ill_conditioned_polynomials(self, svd_calls):
        panel = gen_design("design2", 300, 50, np.random.default_rng(7))
        basis = build_basis(panel.data.x, BasisSpec(family="polynomial", J=12))
        P = make_projector(basis)
        assert svd_calls == [basis.values.shape]
        _assert_matches_svd_oracle(P, basis.values, panel.data.y)


class TestApply:
    def test_fixed_points_of_span(self, rng):
        phi = rng.standard_normal((20, 4))
        P = make_projector(phi)
        np.testing.assert_allclose(P.project(phi), phi, atol=1e-10)

    def test_idempotent(self, rng):
        phi = rng.standard_normal((15, 5))
        P = make_projector(phi)
        m = rng.standard_normal((15, 3))
        once = P.project(m)
        np.testing.assert_allclose(P.project(once), once, atol=1e-10)

    def test_constant_basis_column_means(self, rng):
        y = rng.standard_normal((8, 3))
        P = make_projector(np.ones((8, 1)))
        res = y - P.project(y)
        np.testing.assert_allclose(res, y - y.mean(axis=0), atol=1e-12)

    def test_residual_annihilates_span(self, rng):
        phi = rng.standard_normal((25, 6))
        P = make_projector(phi)
        np.testing.assert_allclose(phi - P.project(phi), 0.0, atol=1e-9)
        m = rng.standard_normal((25, 4))
        assert np.abs(phi.T @ (m - P.project(m))).max() < 1e-8 * np.linalg.norm(m)

    def test_complementary_decomposition(self, rng):
        phi = rng.standard_normal((18, 4))
        P = make_projector(phi)
        m = rng.standard_normal((18, 7))
        np.testing.assert_allclose(P.project(m) + (m - P.project(m)), m, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        P = make_projector(rng.standard_normal((10, 2)))
        with pytest.raises(DimensionMismatchError):
            P.project(rng.standard_normal((11, 2)))

    def test_vector_input(self, rng):
        phi = rng.standard_normal((10, 3))
        P = make_projector(phi)
        v = rng.standard_normal(10)
        assert P.project(v).shape == (10,)

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_idempotency_probes(self, seed):
        r = np.random.default_rng(seed)
        phi = r.standard_normal((12, 4))
        P = make_projector(phi)
        v = r.standard_normal(12)
        w = r.standard_normal(12)
        pv = P.project(v)
        assert np.linalg.norm(P.project(pv) - pv) <= 1e-10 * np.linalg.norm(v)
        assert abs(v @ P.project(w) - pv @ w) <= 1e-10 * (
            np.linalg.norm(v) * np.linalg.norm(w)
        )


class TestSpanInvariance:
    def test_invertible_recombination(self, rng):
        phi = rng.standard_normal((30, 5))
        r_mat = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        Pa = make_projector(phi)
        Pb = make_projector(phi @ r_mat)
        probe = rng.standard_normal((30, 6))
        np.testing.assert_allclose(Pa.project(probe), Pb.project(probe), atol=1e-9)


class TestSieveCoefficients:
    def test_gram_system_solution(self, rng):
        phi = rng.standard_normal((40, 6))
        P = make_projector(phi)
        c = rng.standard_normal((40, 2))
        b = P.coef @ P.coordinates(c)
        np.testing.assert_allclose(phi.T @ phi @ b, phi.T @ c, atol=1e-8)
