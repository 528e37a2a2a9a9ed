"""Factor and loading estimation by projected and regular PCA.

Factors come from the top eigenvectors of Y'PY or Y'Y, and ``_spectrum``
alone decides how they are computed.  Y'PY = Z'Z with Z = Q'Y only m x T,
so projected mode takes a thin SVD of Z and never forms a T x T matrix.
Plain mode takes the top K pairs of Y'Y by one subspace iteration
(``_top_eigh``), cheaper than a full eigh or an SVD of the p x T panel; it
applies Y'Y through the T x T Gram when T < p and as Y'(YV) otherwise, so at
T >= p no T x T matrix is formed unless the iteration falls back to a full
eigh.  Loadings follow by least squares, Lambda_hat = Y F_hat / T; a
projected fit splits them into the projected part G_hat and the orthogonal
remainder Gamma_hat.
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
TOP_EIGH_MAX_STEPS = 40
GAP_BLOCKS = 8


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
    """Projected-PCA factors, loadings Lambda_hat = G_hat + Gamma_hat, and sieve coefficients."""

    f_hat: np.ndarray
    lambda_hat: np.ndarray
    eigvals: np.ndarray
    g_hat: np.ndarray
    gamma_hat: np.ndarray
    b_hat: np.ndarray


def _column_signs(V: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign of sum(v**3).

    Unlike the largest entry's sign, it survives a near tie between entries
    of opposite sign.  Where |sum v^3| <= 1e-8 sum |v|^3 the largest-magnitude
    entry (lowest index) decides.
    """
    cubes = np.sum(V**3, axis=0)
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    clear = np.abs(cubes) > 1e-8 * np.sum(np.abs(V) ** 3, axis=0)
    return np.where(np.where(clear, cubes, top) < 0, -1.0, 1.0)


def fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip each column so that sum(v**3) is positive (see ``_column_signs``)."""
    V = np.asarray(V, dtype=float)
    return V * _column_signs(V)


def _top_eigh(y: np.ndarray, K: int):
    """The K + 1 leading Ritz pairs of Y'Y, or the full ``eigh`` of its Gram.

    Block subspace iteration with Rayleigh-Ritz (Saad, ch. 5) on q = K + 5
    columns from a fixed-seed start, until the first K residuals are at most
    1e-13 * theta_1 and lambda_{K+1} is settled for the near-tie check:
    bounded below theta_K / (1 + ``NEAR_TIE_RTOL``), or converged too.  The
    shape picks how Y'Y V is applied: by the T x T Gram G when T < p, else as
    Y'(YV).  lambda_{K+1} is bounded (Courant-Fischer) by ||G - V_K Theta V_K'||_F
    with G, and without it by ||Y (I - V_K V_K')||_2^2 <= sum_b ||C_b'C_b||_F
    over ``GAP_BLOCKS`` column blocks C_b of that residual, each formed alone
    from the rotated YV and a fraction of Y's size (||C_b'C_b||_F =
    ||C_b C_b'||_F, so the smaller Gram is taken).  Falls back to ``eigh`` of
    the Gram when q >= T, at the step cap, or once the rate theta_q / theta_n
    shows the cap cannot be met.
    """
    T = y.shape[1]
    g = y.T @ y if T < y.shape[0] else None
    q = K + 5
    if q < T:
        w = np.random.default_rng(0).standard_normal((T, q))
        w = y.T @ (y @ w) if g is None else g @ w
        n = K  # pairs whose residuals must converge
        for step in range(1, TOP_EIGH_MAX_STEPS + 1):
            v, _ = np.linalg.qr(w)
            if g is None:
                yv = y @ v
                w = y.T @ yv
            else:
                w = g @ v
            theta, s = np.linalg.eigh(v.T @ w)
            theta, s = theta[::-1], s[:, ::-1]
            v, w = v @ s, w @ s
            resid = np.linalg.norm(w[:, : K + 1] - v[:, : K + 1] * theta[: K + 1], axis=0)
            tol = 1e-13 * theta[0]
            if n == K and resid[:K].max() <= tol:
                if g is not None:
                    bound = np.linalg.norm(g - (v[:, :K] * theta[:K]) @ v[:, :K].T)
                else:
                    yk, width, bound = yv @ s[:, :K], -(-T // GAP_BLOCKS), 0.0
                    for lo in range(0, T, width):
                        c = yk @ v[lo : lo + width, :K].T
                        np.subtract(y[:, lo : lo + width], c, out=c)
                        bound += np.linalg.norm(c.T @ c if c.shape[1] <= c.shape[0] else c @ c.T)
                        del c  # so that one block at a time is alive
                n = K if bound * (1.0 + NEAR_TIE_RTOL) < theta[K - 1] else K + 1
            if resid[:n].max() <= tol:
                return theta[: K + 1], v[:, : K + 1]
            rate = abs(theta[-1] / theta[n - 1]) if theta[n - 1] > 0 else 1.0
            if resid[:n].max() * rate ** (TOP_EIGH_MAX_STEPS - step) > tol:
                break
    return np.linalg.eigh(y.T @ y if g is None else g)


def _spectrum(y: np.ndarray, P: Optional[Projector], K: int = 0):
    """Eigenvalues of Y'PY (P given) or Y'Y, descending, and top-K eigenvectors.

    Returns ``(w, v)`` with ``v`` signs fixed (None for K = 0).  ``w`` holds
    all T = Y.shape[1] values, zero beyond the rank of Q'Y in projected mode
    and beyond min(p, T) in plain mode with K = 0, which takes them from the
    smaller of the Grams Y'Y and YY' (they share their nonzero eigenvalues).
    Plain mode with K > 0 holds only the leading K + 1 from ``_top_eigh``,
    unless it fell back to the full ``eigh``.
    """
    T = y.shape[1]
    try:
        if P is not None:
            _, s, vt = np.linalg.svd(P.q.T @ y, full_matrices=False)
            w, v = s**2, vt.T
        elif K:
            w, v = _top_eigh(y, K)
        else:
            w = np.linalg.eigvalsh(y @ y.T if T >= y.shape[0] else y.T @ y)
            w, v = np.concatenate([w, np.zeros(T - w.size)]), None
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(w)):  # s**2 overflows on a panel near the float range
        raise EigenFailureError("eigenvalues are not finite; rescale the panel")
    order = np.argsort(w)[::-1]
    w = w[order] if P is None else np.concatenate([w[order], np.zeros(T - w.size)])
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
        g_hat=g_hat,
        gamma_hat=gamma_hat,
        b_hat=b_hat,
    )


def fit_regular_pca(y: np.ndarray, K: int):
    """Baseline PCA: factors from the top-K eigenvectors of Y'Y.

    Returns ``(f_hat, lambda_hat, eigvals)`` with Lambda_hat = Y F_hat / T.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatchError("Y must be 2-dimensional")
    T = y.shape[1]
    if not 1 <= K < T:
        raise KTooLargeError(f"need 1 <= K < T={T}, got K={K}")
    eigvals, v = _spectrum(y, None, K)
    f_hat = np.sqrt(T) * v
    return f_hat, y @ f_hat / T, eigvals[:K] / T


def _residual_variances(y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Diagonal of Sigma_u = Y (I - FF'/T) Y' / T for lam = Y F / T.

    With F'F/T = I, as every fit returns, that is ||y_i||^2 / T - ||lam_i||^2:
    two row sums that never form the p x T residual.  Floored at
    ``SIGMA_FLOOR_REL`` times the largest so the inverse stays finite on
    exact-fit rows.
    """
    variances = np.einsum("it,it->i", y, y) / y.shape[1] - np.einsum("ik,ik->i", lam, lam)
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


def align_columns(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column signs (+1 or -1) that bring each estimated column closest to its truth."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {est.shape} vs {truth.shape}"
        )
    return np.where(np.sum(est * truth, axis=0) < 0, -1.0, 1.0)
