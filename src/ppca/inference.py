"""Loading specification tests and eigenvalue-ratio factor counting.

``test_g_zero`` asks whether the covariates explain anything about the
loadings (H0: G(X) = 0) and is built on the regular-PCA factor estimate,
since the projection is not meaningful under that null, and is weighted by
that fit's eigenvalues.  Conversely ``test_gamma_zero`` asks whether the
covariates explain everything (H0: Gamma = 0) and uses the projected-PCA
factors.  ``select_k`` picks the number of factors as the argmax of
adjacent eigenvalue ratios of Y'PY or Y'Y.  All spectra come from
``estimator._spectrum``: the projected one from the singular values of the
m x T matrix Q'Y, the plain one in full for ``select_k`` from the smaller
of the Gram matrices Y'Y and YY' (they share their nonzero eigenvalues),
and only its top K pairs for ``test_g_zero``, by a subspace iteration that
forms no T x T matrix at T >= p.

The p-values use ``math`` alone: ``_normal_sf`` is the normal upper tail and
``_chi2_sf`` the chi-square one, Q(df/2, x/2) (Numerical Recipes 6.2).  The
tests hold them to their scipy oracles ``special.ndtr(-z)`` and ``special.chdtrc``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimator import (
    FLOOR_REL,
    PanelData,
    _floored,
    _residual_variances,
    _spectrum,
    fit_projected_pca,
    fit_regular_pca,
)
from .exceptions import (
    BoundaryWarning,
    DimensionMismatchError,
    RangeEmptyError,
    SingularWeightError,
)
from .projection import Projector

_TAIL_MAX_TERMS = 10**6  # ~5 sqrt(df) terms near x = df; far above any p K in memory
_TAIL_EPS = 2.0**-52
_TINY = 1e-300


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _chi2_sf(df: int, x: float) -> float:
    """P(chi2_df > x) = Q(a, h), a = df/2, h = x/2: a series below h = a + 1, else Lentz."""
    a, h = 0.5 * df, 0.5 * x
    if h <= 0.0:
        return 1.0
    pre = math.exp(a * math.log(h) - h - math.lgamma(a))
    if h < a + 1.0:  # the series for P = 1 - Q; Q > 0.08 here, so no cancellation
        term = total = 1.0 / a
        for n in range(1, _TAIL_MAX_TERMS):
            term *= h / (a + n)
            total += term
            if term < total * _TAIL_EPS:
                break
        return 1.0 - pre * total
    b, c = h + 1.0 - a, 1.0 / _TINY  # the continued fraction for Q by modified Lentz
    d = f = 1.0 / b
    for n in range(1, _TAIL_MAX_TERMS):
        an, b = -n * (n - a), b + 2.0
        d = 1.0 / max(an * d + b, _TINY, key=abs)
        c = max(b + an / c, _TINY, key=abs)
        f *= d * c
        if abs(d * c - 1.0) <= _TAIL_EPS:
            break
    return pre * f


@dataclass(frozen=True)
class TestResult:
    statistic: float
    standardized: float
    df: int
    p_value_normal: float
    p_value_chisq: float
    k_used: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "standardized": self.standardized,
            "df": self.df,
            "p_normal": self.p_value_normal,
            "p_chisq": self.p_value_chisq,
            "K": self.k_used,
        }


def _result(statistic: float, scaled: float, df: int, K: int) -> TestResult:
    """Standardize ``scaled`` (chi-square_df under H0) and attach both p-values."""
    standardized = (scaled - df) / np.sqrt(2.0 * df)
    return TestResult(
        statistic=statistic,
        standardized=float(standardized),
        df=df,
        p_value_normal=_normal_sf(standardized),
        p_value_chisq=_chi2_sf(df, scaled),
        k_used=K,
    )


@dataclass(frozen=True)
class SelectionResult:
    k_hat: int
    eigenvalues: np.ndarray
    ratios: np.ndarray


def test_g_zero(data: PanelData, P: Projector, K: int) -> TestResult:
    """Test H0: G(X) = 0 via S_G = tr(W1 Lam'P Lam) / p = sum_k ||z_k||^2 / ev_k.

    Lam = Y F_hat / T are the regular-PCA loadings and ev the eigenvalues of
    that fit; z = Q'Lam.  W1 inverts Lam'Lam / p = diag(ev) / p (F_hat'F_hat
    / T = I) and is singular when ev_K is not above ``FLOOR_REL`` * ev_1.
    Under the null p * S_G is asymptotically chi-square with m K degrees of
    freedom (m = number of effective basis columns); both the normal
    standardization and the chi-square upper-tail p-value are reported.
    """
    _, lam, eigvals = fit_regular_pca(data.y, K)
    if not eigvals[-1] > FLOOR_REL * eigvals[0]:
        raise SingularWeightError("loading Gram matrix is numerically singular")
    z = P.coordinates(lam)
    s_g = float(np.sum(z**2 / eigvals))
    return _result(s_g, data.p * s_g, P.rank * K, K)


def test_gamma_zero(data: PanelData, P: Projector, K: int) -> TestResult:
    """Test H0: Gamma = 0 via S_Gamma = tr(Lam'(I-P) Sigma_u^-1 (I-P) Lam).

    Lam = Y F_hat / T with the projected-PCA factors, and Sigma_u is the
    diagonal ||y_i||^2 / T - ||lam_i||^2 of that fit, ``_floored``.  Under
    the null (with Gaussian, serially independent noise) T * S_Gamma is
    asymptotically chi-square with p K degrees of freedom; p-values are
    calibrated only under those conditions.

    It over-rejects at small T: on design 2 (Γ = 0) with T = 50 and J = 8
    it rejects at 5 % for 20 of 20 seeds at p = 1000 (median z 4.2).
    """
    fit = fit_projected_pca(data, P, K)
    sigma = _residual_variances(data.y, fit.lambda_hat)
    s_gamma = float(np.sum(fit.gamma_hat**2 / sigma[:, None]))
    return _result(s_gamma, data.T * s_gamma, data.p * K, K)


def select_k(y: np.ndarray, P: Optional[Projector], m: int) -> SelectionResult:
    """Eigenvalue-ratio estimate of the number of factors.

    Searches K_hat = argmax over 0 < k < m/2 of the ratio of adjacent
    eigenvalues of Y'PY (projected mode, when a projector is given) or
    Y'Y (plain mode).  Eigenvalues are ``_floored`` at ``FLOOR_REL`` *
    lambda_1 before forming ratios; ties pick the smallest k.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatchError("Y must be 2-dimensional")
    if m < 4:
        raise RangeEmptyError(f"need m >= 4 for a nonempty search range, got m={m}")
    T = y.shape[1]
    lam, _ = _spectrum(y if P is None else P.coordinates(y), projected=P is not None)
    # largest k with k < m/2, limited by the T available eigenvalues
    k_max = min((m - 1) // 2, T - 1)
    if k_max < 1:
        raise RangeEmptyError(f"search range 0 < k < m/2 is empty (m={m}, T={T})")
    lam = _floored(lam[: k_max + 1])
    ratios = lam[:-1] / lam[1:]
    k_hat = int(np.argmax(ratios)) + 1
    if k_hat == k_max:
        warnings.warn(
            f"eigenvalue-ratio argmax at the search boundary k={k_hat}",
            BoundaryWarning,
        )
    return SelectionResult(k_hat=k_hat, eigenvalues=lam, ratios=ratios)
