"""Synthetic panel generators for the simulation studies.

Two designs are supported: a one-covariate three-factor polynomial
design (``gen_design2``) and a data-calibrated design with four
covariates, sparse cross-sectional error correlation, and small
unexplained loadings (``gen_calibrated``).  Both produce identified
truths so estimation error can be measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import PanelData, identification_transform
from .exceptions import InvalidSpecError, NonStationaryError

# VAR(1) innovation covariance and transition matrix calibrated to the
# market data (three factors).
FACTOR_VAR_SIGMA = np.array(
    [
        [0.9076, 0.0049, 0.0230],
        [0.0049, 0.8737, 0.0403],
        [0.0230, 0.0403, 0.9266],
    ]
)
FACTOR_VAR_A = np.array(
    [
        [-0.0371, -0.1226, -0.1130],
        [-0.2339, 0.1060, -0.2793],
        [0.2803, 0.0755, -0.0529],
    ]
)

BURN_IN = 100  # VAR draws discarded before the T kept ones

# Covariate correlation matrix for the calibrated design.  The source
# data's 4x4 correlation matrix is not published; these are plausible
# stand-in values (moderate positive dependence among firm size /
# value / momentum / volatility style characteristics).
DEFAULT_SIGMA_X = np.array(
    [
        [1.00, 0.45, 0.15, 0.30],
        [0.45, 1.00, 0.10, 0.25],
        [0.15, 0.10, 1.00, 0.20],
        [0.30, 0.25, 0.20, 1.00],
    ]
)


@dataclass(frozen=True)
class VarProcess:
    """Stationary VAR(1) f_t = A f_{t-1} + eps_t with Gaussian innovations."""

    a: np.ndarray
    sigma_eps: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        s = np.atleast_2d(np.asarray(self.sigma_eps, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma_eps", s)
        if a.shape[0] != a.shape[1] or s.shape != a.shape:
            raise InvalidSpecError("A and Sigma_eps must be square with equal shape")
        if self.spectral_radius() >= 1.0:
            raise NonStationaryError(
                f"VAR transition matrix has spectral radius "
                f"{self.spectral_radius():.4f} >= 1"
            )
        if not np.allclose(s, s.T):
            raise InvalidSpecError("Sigma_eps must be symmetric")
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError as exc:
            raise InvalidSpecError("Sigma_eps must be positive definite") from exc

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(np.atleast_2d(self.a))).max())

    @property
    def k(self) -> int:
        return self.a.shape[0]


def default_var_process() -> VarProcess:
    return VarProcess(a=FACTOR_VAR_A, sigma_eps=FACTOR_VAR_SIGMA)


@dataclass(frozen=True)
class CalibratedParams:
    """Constants of the data-calibrated simulation design."""

    gamma_shape: float = 7.06
    gamma_rate: float = 536.93
    offdiag_mean: float = -0.0019
    offdiag_sd: float = 0.1499
    corr_threshold: float = 0.03
    gamma_loading_sd: float = 0.0027
    var: VarProcess = field(default_factory=default_var_process)
    sigma_x: np.ndarray = field(default_factory=lambda: DEFAULT_SIGMA_X.copy())

    def __post_init__(self):
        if self.gamma_shape <= 0 or self.gamma_rate <= 0:
            raise InvalidSpecError("Gamma shape and rate must be positive")
        if not 0.0 < self.corr_threshold < 1.0:
            raise InvalidSpecError("correlation threshold must be in (0, 1)")
        if self.offdiag_sd < 0 or self.gamma_loading_sd < 0:
            raise InvalidSpecError("standard deviations must be nonnegative")


@dataclass(frozen=True)
class SimulatedPanel:
    """A generated panel together with its identified truths."""

    data: PanelData
    f_true: np.ndarray
    g_true: np.ndarray
    gamma_true: np.ndarray
    k_true: int


def simulate_var(proc: VarProcess, T: int, rng) -> np.ndarray:
    """Draw T rows from the stationary VAR(1), discarding the burn-in."""
    rng = np.random.default_rng(rng)
    if T < 1:
        raise InvalidSpecError("T must be >= 1")
    K = proc.k
    chol = np.linalg.cholesky(proc.sigma_eps)
    eps = rng.standard_normal((BURN_IN + T, K)) @ chol.T
    out = np.empty((BURN_IN + T, K))
    state = np.zeros(K)
    for t in range(BURN_IN + T):
        state = proc.a @ state + eps[t]
        out[t] = state
    return out[BURN_IN:]


def nearest_pd(M: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Nearest positive definite matrix by eigenvalue clipping."""
    M = np.asarray(M, dtype=float)
    sym = (M + M.T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w[0] >= floor:
        return sym
    w = np.maximum(w, floor)
    out = (v * w) @ v.T
    return (out + out.T) / 2.0


def make_sparse_error_cov(p: int, params: CalibratedParams, rng) -> np.ndarray:
    """Sparse cross-sectional error covariance D Sigma_0 D.

    The diagonal scale D is Gamma-distributed, the off-diagonal
    correlations are Gaussian draws truncated to zero below the
    threshold, and the thresholded correlation matrix is pushed to
    positive definiteness by eigenvalue clipping.
    """
    rng = np.random.default_rng(rng)
    if p < 2:
        raise InvalidSpecError("p must be >= 2")
    d = rng.gamma(shape=params.gamma_shape, scale=1.0 / params.gamma_rate, size=p)
    corr = np.eye(p)
    iu = np.triu_indices(p, 1)
    vals = rng.normal(params.offdiag_mean, params.offdiag_sd, size=iu[0].size)
    vals[np.abs(vals) < params.corr_threshold] = 0.0
    corr[iu] = vals
    corr = corr + corr.T - np.eye(p)
    corr = nearest_pd(corr, floor=1e-8)
    return corr * np.outer(d, d)


def design2_curves(x: np.ndarray) -> np.ndarray:
    """The three polynomial loading curves g1 = x, g2 = x^2-1, g3 = x^3-2x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.column_stack([x, x**2 - 1.0, x**3 - 2.0 * x])


def gen_design2(p: int, T: int, rng=None, seed: int | None = None) -> SimulatedPanel:
    """One-covariate, three-factor polynomial design with Gamma = 0.

    X ~ N(0,1), loadings from :func:`design2_curves`, factors from the
    calibrated VAR transition with identity innovation covariance, noise
    i.i.d. standard normal.  The returned truths are identified.
    """
    if p <= 3:
        raise InvalidSpecError("design 2 needs p > 3")
    if T < 2:
        raise InvalidSpecError("T must be >= 2")
    rng = np.random.default_rng(seed if rng is None else rng)
    x = rng.standard_normal(p)
    g = design2_curves(x)
    proc = VarProcess(a=FACTOR_VAR_A, sigma_eps=np.eye(3))
    f = simulate_var(proc, T, rng)
    u = rng.standard_normal((p, T))
    f0, g0, _ = identification_transform(f, g)
    y = g0 @ f0.T + u
    return SimulatedPanel(
        data=PanelData(y=y, x=x[:, None]),
        f_true=f0,
        g_true=g0,
        gamma_true=np.zeros_like(g0),
        k_true=3,
    )


@dataclass(frozen=True)
class PolynomialCurves:
    """Additive cubic loading curves, one polynomial per (factor, covariate).

    ``coeffs`` has shape (K, d, 4) holding coefficients for
    1, x, x^2, x^3 in that order.
    """

    coeffs: np.ndarray

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        K, d, _ = self.coeffs.shape
        if x.shape[1] != d:
            raise InvalidSpecError(f"curves expect d={d} covariates")
        powers = np.stack([np.ones_like(x), x, x**2, x**3], axis=-1)
        # sum over covariates and polynomial degrees
        return np.einsum("nlj,klj->nk", powers, self.coeffs)


def default_loading_curves() -> PolynomialCurves:
    """Bundled nonlinear curves standing in for the data-calibrated fits.

    The shapes (one near-linear, one U-shaped, one cubic S-shaped per
    covariate, at market-beta scale) emulate the qualitative look of the
    fitted real-data curves, which are not available as numbers.
    """
    coeffs = np.array(
        [
            # factor 1: mildly nonlinear, monotone-ish
            [
                [0.010, 0.012, -0.002, 0.001],
                [0.005, 0.008, 0.003, -0.001],
                [-0.004, 0.010, 0.002, 0.001],
                [0.002, -0.009, 0.001, 0.002],
            ],
            # factor 2: U-shaped components
            [
                [-0.006, 0.003, 0.008, -0.001],
                [0.004, -0.002, 0.006, 0.001],
                [0.003, 0.004, -0.007, 0.001],
                [-0.002, 0.003, 0.005, -0.002],
            ],
            # factor 3: S-shaped components
            [
                [0.002, -0.006, 0.001, 0.004],
                [-0.003, 0.005, -0.002, 0.003],
                [0.001, 0.002, 0.003, -0.004],
                [0.004, -0.003, -0.001, 0.003],
            ],
        ]
    )
    return PolynomialCurves(coeffs=coeffs)


def gen_calibrated(
    p: int,
    T: int,
    params: CalibratedParams | None = None,
    rng=None,
    seed: int | None = None,
) -> SimulatedPanel:
    """Data-calibrated design: four correlated covariates, sparse noise.

    Loadings follow :func:`default_loading_curves`.  Truths are identified and
    the unexplained loadings Gamma are transformed consistently so that
    Y = (G0 + Gamma0) F0' + U holds exactly.
    """
    if params is None:
        params = CalibratedParams()
    rng = np.random.default_rng(seed if rng is None else rng)
    if T < 2:
        raise InvalidSpecError("T must be >= 2")
    d = params.sigma_x.shape[0]
    chol_x = np.linalg.cholesky(params.sigma_x)
    x = rng.standard_normal((p, d)) @ chol_x.T
    g = default_loading_curves().evaluate(x)
    K = g.shape[1]
    gamma = rng.normal(0.0, params.gamma_loading_sd, size=(p, K))
    cov = make_sparse_error_cov(p, params, rng)
    f = simulate_var(params.var, T, rng)
    if f.shape[1] != K:
        raise InvalidSpecError(
            f"VAR dimension {f.shape[1]} != number of loading curves {K}"
        )
    u = np.linalg.cholesky(cov) @ rng.standard_normal((p, T))
    f0, g0, h = identification_transform(f, g)
    gamma0 = gamma @ np.linalg.inv(h.T)
    y = (g0 + gamma0) @ f0.T + u
    return SimulatedPanel(
        data=PanelData(y=y, x=x),
        f_true=f0,
        g_true=g0,
        gamma_true=gamma0,
        k_true=K,
    )
