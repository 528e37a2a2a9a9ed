"""Factor and loading estimation by projected and regular PCA.

Factors come from the top eigenvectors of Y'PY or Y'Y, and ``_spectrum``
alone decides how they are computed.  Y'PY = Z'Z with Z = Q'Y only m x T,
so projected mode takes a thin SVD of Z and never forms a T x T matrix;
plain mode eigendecomposes the T x T Gram matrix Y'Y, which is cheaper
than an SVD of the p x T panel.  Loadings follow by least squares,
Lambda_hat = Y F_hat / T, split into the projected part G_hat and the
orthogonal remainder Gamma_hat.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    EigenFailureError,
    InvalidSpecError,
    KTooLargeError,
    NearTieWarning,
    NonDistinctEigenvaluesWarning,
    RankDeficientError,
)
from .projection import Projector

NEAR_TIE_RTOL = 1e-8
SIGMA_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class PanelData:
    """Observed p x T response panel with its p x d covariates."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if y.ndim != 2 or y.shape[0] < 2 or y.shape[1] < 2:
            raise InvalidSpecError("Y must be p x T with p, T >= 2")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatchError("X and Y must have the same row count")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise InvalidSpecError("panel contains non-finite entries")

    @property
    def p(self) -> int:
        return self.y.shape[0]

    @property
    def T(self) -> int:
        return self.y.shape[1]


@dataclass
class FitResult:
    """Estimated factors and loadings; loadings split only for projected PCA."""

    f_hat: np.ndarray
    lambda_hat: np.ndarray
    eigvals: np.ndarray
    method: str
    k: int
    g_hat: Optional[np.ndarray] = None
    gamma_hat: Optional[np.ndarray] = None
    b_hat: Optional[np.ndarray] = None


def _column_signs(V: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign of its largest-magnitude entry (ties: lowest index)."""
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def fix_signs(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (ties: lowest index)."""
    V = np.asarray(V, dtype=float)
    return V * _column_signs(V)


def _spectrum(y: np.ndarray, P: Optional[Projector], K: int = 0):
    """Eigenvalues of Y'PY (P given) or Y'Y, descending, all T = Y.shape[1].

    Returns ``(w, v)`` with ``v`` the top-K eigenvectors, signs fixed
    (None for K = 0).  Projected mode pads the eigenvalues beyond the
    rank of Q'Y with zeros; plain mode computes only values for K = 0.
    """
    T = y.shape[1]
    try:
        if P is not None:
            _, s, vt = np.linalg.svd(P.q.T @ y, full_matrices=False)
            w, v = s**2, vt.T
        elif K:
            w, v = np.linalg.eigh(y.T @ y)
        else:
            w, v = np.linalg.eigvalsh(y.T @ y), None
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    w = np.concatenate([w[order], np.zeros(T - w.size)])
    if 0 < K < T and w[K] > 0 and w[K - 1] / w[K] < 1.0 + NEAR_TIE_RTOL:
        warnings.warn(
            f"eigenvalues {K} and {K + 1} nearly tied (ratio "
            f"{w[K - 1] / w[K]:.2e})",
            NearTieWarning,
        )
    return w, fix_signs(v[:, order[:K]]) if K else None


def fit_projected_pca(data: PanelData, P: Projector, K: int) -> FitResult:
    """Projected-PCA fit: factors from the top-K eigenvectors of Y'PY.

    F_hat / sqrt(T) holds the eigenvectors; G_hat = P Y F_hat / T,
    Lambda_hat = Y F_hat / T, Gamma_hat = Lambda_hat - G_hat, and the
    sieve coefficients solve (Phi'Phi) B = Phi' Y F_hat / T.
    """
    y = data.y
    T = data.T
    if y.shape[0] != P.p:
        raise DimensionMismatchError("projector and panel disagree on p")
    if not (1 <= K <= P.rank and K < T):
        raise KTooLargeError(
            f"need 1 <= K <= rank={P.rank} and K < T={T}, got K={K}"
        )
    eigvals, v = _spectrum(y, P, K)
    f_hat = np.sqrt(T) * v
    yf = y @ f_hat / T
    g_hat = P.project(yf)
    gamma_hat = yf - g_hat
    b_hat = P.solve_sieve_coefficients(yf)
    # recompose so Lambda_hat == G_hat + Gamma_hat holds bitwise
    return FitResult(
        f_hat=f_hat,
        lambda_hat=g_hat + gamma_hat,
        eigvals=eigvals[:K] / T,
        method="projected_pca",
        k=K,
        g_hat=g_hat,
        gamma_hat=gamma_hat,
        b_hat=b_hat,
    )


def fit_regular_pca(y: np.ndarray, K: int) -> FitResult:
    """Baseline PCA: factors from the top-K eigenvectors of Y'Y."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatchError("Y must be 2-dimensional")
    T = y.shape[1]
    if not 1 <= K < T:
        raise KTooLargeError(f"need 1 <= K < T={T}, got K={K}")
    eigvals, v = _spectrum(y, None, K)
    f_hat = np.sqrt(T) * v
    return FitResult(
        f_hat=f_hat,
        lambda_hat=y @ f_hat / T,
        eigvals=eigvals[:K] / T,
        method="regular_pca",
        k=K,
    )


def estimate_sigma_u(y: np.ndarray, f_hat: Optional[np.ndarray]) -> np.ndarray:
    """Diagonal idiosyncratic variances, Sigma_u = diag(Y (I - FF'/T) Y') / T.

    With no factors the variances reduce to row second moments.  Entries
    are floored at ``SIGMA_FLOOR_REL`` times the largest variance so the
    inverse stays finite on exact-fit rows.
    """
    y = np.asarray(y, dtype=float)
    T = y.shape[1]
    if f_hat is None or f_hat.size == 0:
        resid = y
    else:
        resid = y - (y @ f_hat) @ f_hat.T / T
    variances = np.sum(resid**2, axis=1) / T
    top = variances.max()
    floor = SIGMA_FLOOR_REL * top if top > 0 else SIGMA_FLOOR_REL
    return np.maximum(variances, floor)


def identification_transform(F: np.ndarray, G: np.ndarray):
    """Rotate (F, G) into the identified pair (F0, G0) and return H.

    F0 = F H satisfies F0'F0 / T = I_K; G0 = G (H')^-1 has G0'G0
    diagonal with decreasing entries.  H is computed by whitening F and
    then diagonalizing the whitened G'G.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if F.ndim != 2 or G.ndim != 2 or F.shape[1] != G.shape[1]:
        raise DimensionMismatchError("F and G must share the column count K")
    T = F.shape[0]
    s_f = F.T @ F / T
    w, e = np.linalg.eigh(s_f)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise RankDeficientError("F'F is numerically singular")
    s_f_isqrt = e @ np.diag(w**-0.5) @ e.T
    s_f_sqrt = e @ np.diag(w**0.5) @ e.T
    g1 = G @ s_f_sqrt
    d, r = np.linalg.eigh(g1.T @ g1)
    order = np.argsort(d)[::-1]
    d = d[order]
    r = r[:, order]
    if d[-1] <= 1e-12 * max(d[0], 1.0):
        raise RankDeficientError("G'G is numerically singular")
    if np.any(d[:-1] / d[1:] < 1.0 + NEAR_TIE_RTOL):
        warnings.warn(
            "whitened G'G has nearly tied eigenvalues; identification is fragile",
            NonDistinctEigenvaluesWarning,
        )
    H = s_f_isqrt @ r
    F0 = F @ H
    # flip signs via the factor convention; apply the same flips to G0
    signs = _column_signs(F0)
    H = H * signs
    F0 = F0 * signs
    G0 = g1 @ r * signs
    return F0, G0, H


def align_columns(est: np.ndarray, truth: np.ndarray):
    """Column-sign alignment and error norms against a reference matrix.

    Returns ``(signs, max_err, fro_err)`` where each estimated column's
    sign is flipped to minimize its distance to the matching truth
    column, ``max_err`` is the entrywise max of the aligned difference,
    and ``fro_err`` is the Frobenius norm divided by sqrt(n rows).
    """
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {est.shape} vs {truth.shape}"
        )
    dots = np.sum(est * truth, axis=0)
    signs = np.where(dots < 0, -1.0, 1.0)
    diff = est * signs - truth
    n = est.shape[0]
    return signs, float(np.abs(diff).max()), float(np.linalg.norm(diff) / np.sqrt(n))


def verify_equivalence(
    data: PanelData, P: Projector, K: int, fit: Optional[FitResult] = None
) -> float:
    """Max discrepancy between G_hat = P Y F_hat / T and Xi D^(1/2).

    Xi and D come from the p x p eigenproblem (1/T) P Y Y' P computed
    directly (an independent route from the SVD of Q'Y used by the
    fit), so agreement is a genuine cross-check of the two loading
    formulas rather than an algebraic tautology.
    """
    if fit is None:
        fit = fit_projected_pca(data, P, K)
    py = P.project(data.y)
    T = data.T
    # plain mode on (PY)' eigendecomposes the p x p Gram P Y Y' P
    d_vals, xi = _spectrum(py.T, None, K)
    cand = xi @ np.diag(np.sqrt(np.maximum(d_vals[:K] / T, 0.0)))
    signs, max_err, _ = align_columns(cand, fit.g_hat)
    return max_err
