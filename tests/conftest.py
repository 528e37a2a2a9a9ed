import numpy as np
import pytest

from ppca.basis import BasisSpec, build_basis
from ppca.estimator import PanelData, fix_signs
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
