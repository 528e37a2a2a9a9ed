import numpy as np
import pytest

from ppca.basis import BasisSpec, build_basis
from ppca.estimator import PanelData, align_columns, fit_projected_pca, fix_signs
from ppca.projection import make_projector
from ppca.simulate import gen_design2


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["random", "design2", "constant"])
def spectrum_case(request, rng):
    """A panel, its projector, K, and the eigenpairs of Z'Z, Z = Q'Y.

    The eigenpairs come from the T x T route in plain numpy (descending,
    signs fixed), the reference for the estimator's SVD of Z.
    """
    if request.param == "random":
        data = PanelData(y=rng.standard_normal((40, 12)), x=rng.standard_normal((40, 1)))
        P, K = make_projector(build_basis(data.x, BasisSpec(J=5))), 2
    elif request.param == "design2":
        data = gen_design2(100, 50, seed=3).data
        P, K = make_projector(build_basis(data.x, BasisSpec(J=8))), 3
    else:
        data = PanelData(y=rng.standard_normal((30, 10)), x=rng.standard_normal((30, 1)))
        P, K = make_projector(np.ones((30, 1))), 1
    z = P.q.T @ data.y
    w, v = np.linalg.eigh(z.T @ z)
    return data, P, K, w[::-1], fix_signs(v[:, ::-1])


@pytest.fixture
def aligned_max_error():
    """Largest entry of est - truth after ``align_columns`` flips est's column signs."""

    def _error(est, truth):
        return float(np.abs(est * align_columns(est, truth) - truth).max())

    return _error


@pytest.fixture
def equivalence_error(aligned_max_error):
    """Max gap between the fit's G_hat = P Y F_hat / T and Xi D^(1/2).

    Xi and D are the top-K eigenpairs of the p x p matrix P Y Y' P / T from a
    dense ``eigh``, a route independent of the SVD of Q'Y behind the fit.
    """

    def _error(data, P, K, fit=None):
        if fit is None:
            fit = fit_projected_pca(data, P, K)
        py = P.project(data.y)
        w, xi = np.linalg.eigh(py @ py.T / data.T)
        cand = xi[:, ::-1][:, :K] * np.sqrt(np.maximum(w[::-1][:K], 0.0))
        return aligned_max_error(cand, fit.g_hat)

    return _error


@pytest.fixture
def cell_mean():
    """Look up one aggregated Monte Carlo mean; a missing cell raises KeyError."""

    def _mean(result, p, T, method, metric):
        for row in result.aggregate:
            if (row["p"], row["T"], row["method"], row["metric"]) == (p, T, method, metric):
                return row["mean"]
        raise KeyError((p, T, method, metric))

    return _mean


@pytest.fixture
def banded_cov():
    """Sigma_u = L L' from the (p, s + 1) band B[i, k] = L[i, i - k]."""

    def _expand(band):
        L = sum(np.diag(band[k:, k], -k) for k in range(band.shape[1]))
        return L @ L.T

    return _expand
