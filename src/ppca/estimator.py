"""Factor and loading estimation by projected and regular PCA.

Factors come from the top eigenvectors of Y'PY or Y'Y, and ``_spectrum``
alone decides how they are computed.  Y'PY = Z'Z with Z = Q'Y only m x T,
so projected mode takes a thin SVD of Z and never forms a T x T matrix.
Plain mode takes the top K pairs of Y'Y by one subspace iteration
(``_top_eigh``), cheaper than a full eigh or an SVD of the p x T panel; it
applies Y'Y through the T x T Gram when T < p and otherwise as Y'(YV),
over cache-sized row blocks (one read of Y per step) while a block holds
2q rows.  At T >= p it certifies the eigengap from 2q x 2q block Grams and
falls back to the p x p Gram, so no T x T matrix is formed.  Loadings are
Lambda_hat = Y F_hat / T; a projected fit reads its split into G_hat = P
Lambda_hat and Gamma_hat off the one Z it takes (public calls share none).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
FLOOR_REL = 1e-12  # below this share of the largest, an eigenvalue or variance counts as zero
TOP_EIGH_MAX_STEPS = 40
ROW_BLOCK_BYTES = 1 << 19  # rows of Y that Y'Y V is applied over at T >= p: more leave the cache


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


def _row_blocks(p: int, rows: int) -> list:
    """Slices of ``rows`` consecutive rows (at least one; the last may be shorter) covering p."""
    rows = max(1, rows)
    return [slice(lo, lo + rows) for lo in range(0, p, rows)]


def _gap_bound(y: np.ndarray, u: np.ndarray, rows: int, unit: float) -> float:
    """An upper bound on lambda_{K+1}(Y'Y) / ``unit`` from U = Y V_K, V_K orthonormal T x K.

    lambda_{K+1} <= ||Y (I - V_K V_K')||_2^2 = ||R R'||_2 (Courant-Fischer),
    R R' = Y Y' - U U', and ||R R'||_2 <= sum_b ||R_b R_b'||_2 over groups b
    of ``rows`` consecutive rows, each at most its largest absolute row sum
    (Golub & Van Loan 2.3).  Full groups go through one batched product, the
    tail alone.  Each Gram is divided by ``unit`` = theta_1 first: its entries
    are at most ||y_i|| ||y_j|| <= theta_1, so no scale of Y overflows the
    sums.  To first order, (T + K + 1) eps ||y_i|| ||y_j|| bounds the rounding
    of an entry of Y_b Y_b' - U_b U_b' (Higham 3.1); it is doubled for the
    rounding already in U, with the ||y_i|| read off the Grams' diagonals.
    """
    p, T = y.shape
    cut = p - p % rows
    groups = [(y[:cut].reshape(-1, rows, T), u[:cut].reshape(-1, rows, u.shape[1]))]
    if cut < p:
        groups.append((y[None, cut:], u[None, cut:]))
    bound = rounding = 0.0
    for yb, ub in groups:
        g = yb @ yb.transpose(0, 2, 1)
        g /= unit
        uu = ub @ ub.transpose(0, 2, 1)
        uu /= unit
        norms = np.sqrt(np.diagonal(g, axis1=1, axis2=2))
        g -= uu
        bound += np.abs(g, out=g).sum(axis=2).max(axis=1).sum()
        rounding += (norms.max(axis=1) * norms.sum(axis=1)).sum()
    return bound + 2 * (T + u.shape[1] + 1) * np.finfo(float).eps * rounding


def _top_eigh(y: np.ndarray, K: int):
    """The K + 1 leading Ritz pairs of Y'Y, or pairs from a full ``eigh`` of the smaller Gram.

    Block subspace iteration with Rayleigh-Ritz (Saad, ch. 5) on q = K + 5
    columns from a fixed-seed start, until the first K residuals are at most
    1e-13 * theta_1 and lambda_{K+1} is settled for the near-tie check:
    bounded below theta_K / (1 + ``NEAR_TIE_RTOL``), or converged too.  The
    shape picks how Y'Y V is applied: by the T x T Gram G when T < p, else as
    sum_b Y_b'(Y_b V) over blocks of ``ROW_BLOCK_BYTES``, so each step reads Y
    once and both products run on a block in cache; a block under 2q rows
    would move more of the T x q sum than of Y, so then Y'(YV) is taken whole.
    lambda_{K+1} is bounded (Courant-Fischer) by ||G - V_K Theta V_K'||_F with
    G, and without it by ``_gap_bound`` over 2q-row groups, from the U = Y V_K
    that the step's Y V already holds.  Residuals and bound are taken in units
    of theta_1, so the scale of Y cannot overflow or underflow them.  Falls
    back, when q >= T, at the step cap, or once the rate theta_q / theta_n
    shows the cap cannot be met, to ``eigh`` of G when T < p, and otherwise to
    the top K + 1 pairs of the p x p Gram Y Y' (``_small_gram_pairs``).
    """
    T = y.shape[1]
    g = y.T @ y if T < y.shape[0] else None
    q = K + 5
    if q < T:
        if g is None:
            p, yv, rows = y.shape[0], np.empty((y.shape[0], q)), ROW_BLOCK_BYTES // (T * y.itemsize)
            blocks = _row_blocks(p, rows if rows >= 2 * q else p)

        def times_gram(v):  # Y'Y v; Y_b v is kept in yv for the gap bound
            if g is not None:
                return g @ v
            w = np.zeros((T, q))
            for b in blocks:
                w += y[b].T @ np.matmul(y[b], v, out=yv[b])
            return w

        w = times_gram(np.random.default_rng(0).standard_normal((T, q)))
        n, tol = K, 1e-13  # pairs whose residuals must converge, and to what share of theta_1
        for step in range(1, TOP_EIGH_MAX_STEPS + 1):
            v, _ = np.linalg.qr(w)
            w = times_gram(v)
            theta, s = np.linalg.eigh(v.T @ w)
            theta, s = theta[::-1], s[:, ::-1]
            v, w = v @ s, w @ s
            unit = theta[0] if theta[0] > 0 else 1.0  # divided out first: 1e-13 * theta_1 may be subnormal
            resid = np.linalg.norm(w[:, : K + 1] / unit - v[:, : K + 1] * (theta[: K + 1] / unit), axis=0)
            if n == K and resid[:K].max() <= tol:
                if g is not None:
                    bound = np.linalg.norm(((v[:, :K] * theta[:K]) @ v[:, :K].T - g) / unit)
                else:
                    bound = _gap_bound(y, yv @ s[:, :K], 2 * q, unit)
                n = K if bound * (1.0 + NEAR_TIE_RTOL) < theta[K - 1] / unit else K + 1
            if resid[:n].max() <= tol:
                return theta[: K + 1], v[:, : K + 1]
            rate = abs(theta[-1] / theta[n - 1]) if theta[n - 1] > 0 else 1.0
            if resid[:n].max() * rate ** (TOP_EIGH_MAX_STEPS - step) > tol:
                break
    return np.linalg.eigh(g) if g is not None else _small_gram_pairs(y, K + 1)


def _small_gram_pairs(y: np.ndarray, n: int):
    """The top n eigenpairs of Y'Y, descending, from ``eigh`` of the p x p Gram Y Y'.

    A pair (lambda, u) of Y Y' gives Y'u / sqrt(lambda) for Y'Y.  Pairs at or
    below ``FLOOR_REL`` * lambda_1, and those past p, have no such vector;
    they keep their eigenvalue (zero past p) and take orthonormal columns
    orthogonal to the others, from a fixed-seed draw.
    """
    lam, u = np.linalg.eigh(y @ y.T)
    lam, u = lam[::-1][:n], u[:, ::-1][:, :n]
    r = int(np.count_nonzero(lam > FLOOR_REL * lam[0])) if lam.size else 0
    v = y.T @ u[:, :r] / np.sqrt(lam[:r])
    if r < n:
        extra = np.random.default_rng(0).standard_normal((y.shape[1], n - r))
        v = np.hstack([v, np.linalg.qr(np.hstack([v, extra]))[0][:, r:]])
    return np.concatenate([lam, np.zeros(n - lam.size)]), v


def _spectrum(y: np.ndarray, K: int = 0, projected: bool = False):
    """Descending eigenvalues of Y'Y (Z'Z = Y'PY if ``projected``, y = Z) and top-K eigenvectors.

    Returns ``(w, v)`` with ``v`` signs fixed (None for K = 0).  ``w`` holds
    T = y.shape[1] values, zero past those computed: the rank of Z when
    projected, from its thin SVD; when plain, min(p, T) for K = 0, from the
    smaller Gram (Y'Y or YY'), and K + 1 for K > 0, from ``_top_eigh`` (T if
    it fell back to the ``eigh`` of Y'Y at T < p).
    """
    T = y.shape[1]
    try:
        if projected:
            _, s, vt = np.linalg.svd(y, full_matrices=False)
            w, v = s**2, vt.T
        elif K:
            w, v = _top_eigh(y, K)
        else:
            w, v = np.linalg.eigvalsh(y @ y.T if T >= y.shape[0] else y.T @ y), None
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(w)):  # s**2 overflows on a panel near the float range
        raise EigenFailureError("eigenvalues are not finite; rescale the panel")
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

    F_hat / sqrt(T) holds the eigenvectors, from Z = Q'Y taken once;
    Lambda_hat = Y F_hat / T, and C = Q'Lambda_hat = Z F_hat / T gives
    G_hat = QC, Gamma_hat = Lambda_hat - G_hat, and the least-norm sieve
    coefficients B_hat = ``P.coef`` @ C of (Phi'Phi) B = Phi' Lambda_hat.
    """
    y, T = data.y, data.T
    if not (1 <= K <= P.rank and K < T):
        raise KTooLargeError(f"need 1 <= K <= rank={P.rank} and K < T={T}, got K={K}")
    z = P.coordinates(y)
    eigvals, v = _spectrum(z, K, projected=True)
    f_hat = np.sqrt(T) * v
    yf = y @ f_hat / T
    c = z @ f_hat / T
    g_hat = P.span(c)
    gamma_hat = yf - g_hat
    b_hat = P.coef @ c
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
    eigvals, v = _spectrum(y, K)
    f_hat = np.sqrt(T) * v
    return f_hat, y @ f_hat / T, eigvals[:K] / T


def _floored(values: np.ndarray) -> np.ndarray:
    """``values`` floored at ``FLOOR_REL`` times the largest (at ``FLOOR_REL`` if not positive)."""
    floor = FLOOR_REL * values.max()
    return np.maximum(values, floor if floor > 0 else FLOOR_REL)


def _residual_variances(y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Diagonal of Sigma_u = Y (I - FF'/T) Y' / T for lam = Y F / T.

    With F'F/T = I, as every fit returns, that is ||y_i||^2 / T - ||lam_i||^2:
    two row sums that never form the p x T residual.  ``_floored`` so the
    inverse stays finite on exact-fit rows.
    """
    return _floored(np.einsum("it,it->i", y, y) / y.shape[1] - np.einsum("ik,ik->i", lam, lam))


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
    if not w[0] > FLOOR_REL * w[-1]:
        raise RankDeficientError("F'F is numerically singular")
    s_f_isqrt = e @ np.diag(w**-0.5) @ e.T
    s_f_sqrt = e @ np.diag(w**0.5) @ e.T
    g1 = G @ s_f_sqrt
    d, r = np.linalg.eigh(g1.T @ g1)
    order = np.argsort(d)[::-1]
    d = d[order]
    r = r[:, order]
    if not d[-1] > FLOOR_REL * d[0]:
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
