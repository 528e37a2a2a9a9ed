"""Factored projector P = Phi (Phi'Phi)^-1 Phi' onto the span of the sieve design.

P = QQ' with Q = Phi W orthonormal, but Q is never formed: its two operations are Q'M = W'(Phi'M)
and QC = Phi(WC), and the least-norm sieve coefficients of C are ``coef`` @ Q'C.  W is from
CholeskyQR (Fukaya et al. 2014): a centred cubic B-spline block sums to zero, so its last column is
dropped; W = L^-T (L = chol of the kept Gram) fills the kept rows less each block's row mean, the
null space's direction.  W must pass max |W'GW - I| <= ``ORTHO_TOL`` on G = Phi'Phi, at once or
after one m-space CholeskyQR2 pass W <- W chol(W'GW)^-T, and so must Q_c'Q_c, Q_c = Phi W_c for the
``CHECK_COLS`` longest columns W_c of W, where G's own rounding (up to eps cond(Phi)^2) shows most.
Else a thin SVD cut at ``DEFAULT_RANK_TOL`` keeps U_r (W = I): V_r / s_r would lose cond(Phi) * eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisMatrix
from .exceptions import DegenerateBasisError, DimensionMismatchError, InvalidSpecError

DEFAULT_RANK_TOL = 1e-10
ORTHO_TOL, CHECK_COLS = 1e-12, 8


@dataclass(frozen=True)
class Projector:
    """Factored representation of P, with Q = design @ w never formed."""

    design: np.ndarray  # p x m: the caller's Phi, borrowed uncopied, so never written; or U_r
    w: np.ndarray  # m x rank
    coef: np.ndarray  # m x rank, B = coef @ Q'C

    @property
    def rank(self) -> int:
        return self.w.shape[1]

    def coordinates(self, M: np.ndarray) -> np.ndarray:
        """Q'M = W'(design' M), the coordinates of P M in the orthonormal basis Q."""
        M = np.asarray(M, dtype=float)
        if M.ndim not in (1, 2) or M.shape[0] != len(self.design):
            raise DimensionMismatchError(f"expected {len(self.design)} rows, got shape {M.shape}")
        return self.w.T @ (self.design.T @ M)

    def span(self, C: np.ndarray) -> np.ndarray:
        """QC = design (w C), the p-row vectors with coordinates C in the basis Q."""
        return self.design @ (self.w @ C)

    def project(self, M: np.ndarray) -> np.ndarray:
        """Apply P = QQ' to the columns of M without forming P."""
        return self.span(self.coordinates(M))


def _orthonormal(gram: np.ndarray) -> bool:
    return bool(gram.size) and np.abs(gram - np.eye(gram.shape[0])).max() <= ORTHO_TOL  # NaN fails


def _cholesky_qr(values: np.ndarray, blocks: list):
    """W of CholeskyQR(2) with ``blocks``' last columns dropped, or None if untrusted."""
    gram = values.T @ values
    keep = np.setdiff1d(np.arange(gram.shape[0]), [b.stop - 1 for b in blocks])
    w = np.zeros((gram.shape[0], keep.size))
    try:
        w[keep] = np.linalg.inv(np.linalg.cholesky(gram[np.ix_(keep, keep)])).T
        for b in blocks:
            w[b] -= w[b].mean(axis=0)
        if not _orthonormal(wgw := w.T @ gram @ w):  # the one CholeskyQR2 pass
            w = w @ np.linalg.inv(np.linalg.cholesky(wgw)).T
            if not _orthonormal(w.T @ gram @ w):
                return None
    except np.linalg.LinAlgError:
        return None
    z = values @ w[:, np.argsort(np.linalg.norm(w, axis=0))[-CHECK_COLS:]]
    return w if _orthonormal(z.T @ z) else None


def make_projector(phi) -> Projector:
    """Projector onto the span of a design matrix (array or BasisMatrix); see the module."""
    values = np.asarray(getattr(phi, "values", phi), dtype=float)
    if values.ndim != 2:
        raise DimensionMismatchError("design matrix must be 2-dimensional")
    if (p := values.shape[0]) < (m := values.shape[1]):
        raise DimensionMismatchError(f"need p >= m, got p={p}, m={m}")
    if not np.all(np.isfinite(values)):
        raise InvalidSpecError("design matrix has non-finite entries")
    spline = isinstance(phi, BasisMatrix) and phi.spec.family == "bspline_cubic"
    if (w := _cholesky_qr(values, phi.blocks if spline else [])) is not None:
        return Projector(design=values, w=w, coef=w)
    u, s, vt = np.linalg.svd(values, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateBasisError("design matrix is numerically zero")
    r = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    return Projector(design=u[:, :r], w=np.eye(r), coef=vt[:r].T / s[:r])
