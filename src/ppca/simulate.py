"""Synthetic panel generators for the simulation studies.

Two designs are supported: a one-covariate three-factor polynomial
design (``gen_design2``) and a data-calibrated design with four
covariates, sparse cross-sectional error correlation, and small
unexplained loadings (``gen_calibrated``).  Both produce identified
truths so estimation error can be measured directly.  ``gen_design``
draws either by its name in ``DESIGNS``; the CLI and the Monte Carlo
harness both call it.

The calibrated design's values are module constants, fixed from the
S&P 500 fit: the noise standard deviations are Gamma(``GAMMA_SHAPE``,
rate ``GAMMA_RATE``), the error-correlation draws are
N(``OFFDIAG_MEAN``, ``OFFDIAG_SD``) zeroed below ``CORR_THRESHOLD`` on
``ERROR_BAND`` sub-diagonals, Gamma's entries are N(0, ``GAMMA_LOADING_SD``),
the factors follow the VAR(1) (``FACTOR_VAR_A``, ``FACTOR_VAR_SIGMA``) after
``BURN_IN`` draws, and the covariates are N(0, ``DEFAULT_SIGMA_X``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import PanelData, identification_transform
from .exceptions import InvalidSpecError

DESIGNS = ("design2", "calibrated")

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
ERROR_BAND = 5  # sub-diagonals of the calibrated noise's lower-banded factor
GAMMA_SHAPE = 7.06  # noise standard deviations ~ Gamma(shape, rate)
GAMMA_RATE = 536.93
OFFDIAG_MEAN = -0.0019  # error-correlation draws ~ N(mean, sd^2) ...
OFFDIAG_SD = 0.1499
CORR_THRESHOLD = 0.03  # ... zeroed below this in absolute value
GAMMA_LOADING_SD = 0.0027  # unexplained loadings Gamma ~ N(0, sd^2)

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
class SimulatedPanel:
    """A generated panel together with its identified truths."""

    data: PanelData
    f_true: np.ndarray
    g_true: np.ndarray
    gamma_true: np.ndarray
    k_true: int


def simulate_var(a: np.ndarray, sigma_eps: np.ndarray, T: int, rng) -> np.ndarray:
    """Draw T rows of f_t = A f_{t-1} + eps_t, eps_t ~ N(0, Sigma_eps), after the burn-in."""
    rng = np.random.default_rng(rng)
    if T < 1:
        raise InvalidSpecError("T must be >= 1")
    K = a.shape[0]
    chol = np.linalg.cholesky(sigma_eps)
    eps = rng.standard_normal((BURN_IN + T, K)) @ chol.T
    out = np.empty((BURN_IN + T, K))
    state = np.zeros(K)
    for t in range(BURN_IN + T):
        state = a @ state + eps[t]
        out[t] = state
    return out[BURN_IN:]


def make_sparse_error_cov(p: int, rng) -> np.ndarray:
    """Band of the lower-triangular factor L of a sparse Sigma_u = L L'.

    L = D N C.  C is unit lower-triangular with ``ERROR_BAND`` sub-diagonals
    of N(``OFFDIAG_MEAN``, ``OFFDIAG_SD``) draws, zeroed below ``CORR_THRESHOLD``
    in absolute value.  N scales C's rows to unit length and D holds the
    Gamma(``GAMMA_SHAPE``, ``GAMMA_RATE``) standard deviations.  So
    Sigma_u = D Sigma_0 D with Sigma_0 = N C C' N a positive definite
    correlation matrix whose entries are products of the thresholded draws,
    var(u_i) = d_i^2 at every p, and each row of Sigma_u has at most
    2 * ERROR_BAND + 1 nonzeros.  Returns the (p, ERROR_BAND + 1) band
    B[i, k] = L[i, i - k].
    """
    rng = np.random.default_rng(rng)
    if p < 2:
        raise InvalidSpecError("p must be >= 2")
    d = rng.gamma(shape=GAMMA_SHAPE, scale=1.0 / GAMMA_RATE, size=p)
    off = rng.normal(OFFDIAG_MEAN, OFFDIAG_SD, size=(p, ERROR_BAND))
    off[np.abs(off) < CORR_THRESHOLD] = 0.0
    off[np.arange(p)[:, None] <= np.arange(ERROR_BAND)] = 0.0  # before column 0
    band = np.column_stack([np.ones(p), off])
    return band * (d / np.linalg.norm(band, axis=1))[:, None]


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
    f = simulate_var(FACTOR_VAR_A, np.eye(3), T, rng)
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


def default_loading_curves() -> np.ndarray:
    """Bundled nonlinear curves standing in for the data-calibrated fits.

    Returns the (K, d, 4) = (3, 4, 4) array of additive cubic coefficients:
    entry [k, l, j] multiplies x_l**j in loading curve k, so g_k(x) is the
    sum of coeffs[k, l, j] * x_l**j over covariates l and powers j = 0..3.
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
    return coeffs


def gen_calibrated(p: int, T: int, rng=None, seed: int | None = None) -> SimulatedPanel:
    """Data-calibrated design: four correlated covariates, sparse noise.

    X ~ N(0, ``DEFAULT_SIGMA_X``), loadings from :func:`default_loading_curves`,
    Gamma ~ N(0, ``GAMMA_LOADING_SD``), factors from the VAR(1) (``FACTOR_VAR_A``,
    ``FACTOR_VAR_SIGMA``).  The noise u = L z, with L banded from
    :func:`make_sparse_error_cov`, costs O(p * ERROR_BAND * T).  Truths are
    identified and Gamma is transformed consistently so that
    Y = (G0 + Gamma0) F0' + U holds exactly.
    """
    rng = np.random.default_rng(seed if rng is None else rng)
    if T < 2:
        raise InvalidSpecError("T must be >= 2")
    coeffs = default_loading_curves()
    K, d, _ = coeffs.shape
    x = rng.standard_normal((p, d)) @ np.linalg.cholesky(DEFAULT_SIGMA_X).T
    powers = np.stack([np.ones_like(x), x, x**2, x**3], axis=-1)
    g = np.einsum("nlj,klj->nk", powers, coeffs)
    gamma = rng.normal(0.0, GAMMA_LOADING_SD, size=(p, K))
    band = make_sparse_error_cov(p, rng)
    f = simulate_var(FACTOR_VAR_A, FACTOR_VAR_SIGMA, T, rng)
    z = rng.standard_normal((p, T))
    u = band[:, :1] * z
    for k in range(1, band.shape[1]):
        u[k:] += band[k:, k : k + 1] * z[:-k]
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


def gen_design(design: str, p: int, T: int, rng) -> SimulatedPanel:
    """Draw one panel of the design named ``design`` (one of ``DESIGNS``) from ``rng``."""
    if design == "design2":
        return gen_design2(p, T, rng=rng)
    if design == "calibrated":
        return gen_calibrated(p, T, rng=rng)
    raise InvalidSpecError(f"unknown design {design!r}; expected one of {DESIGNS}")
