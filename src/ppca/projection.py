"""Factored projector P = Phi (Phi'Phi)^-1 Phi' onto the span of the sieve design.

P is applied as Q (Q' M) with Q an orthonormal basis of span(Phi), and the
least-norm sieve coefficients are B = W Q' C with Q = Phi W.  Both come from
CholeskyQR (Fukaya et al. 2014) on full-rank columns: each centred cubic
B-spline block sums to zero, so its last column is dropped; W is L^-T, with
L = chol of the kept Gram, scattered into the kept rows minus each block's row
mean, as the block indicators span the null space.  When the Cholesky fails or
max |Q'Q - I| > ``ORTHO_TOL``, a thin SVD cut at ``DEFAULT_RANK_TOL`` is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisMatrix
from .exceptions import DegenerateBasisError, DimensionMismatchError, InvalidSpecError

DEFAULT_RANK_TOL = 1e-10
ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Projector:
    """Immutable factored representation of P."""

    q: np.ndarray
    rank: int
    _coef: np.ndarray  # m x rank, q = Phi @ _coef

    @property
    def p(self) -> int:
        return self.q.shape[0]

    def _check(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.ndim not in (1, 2) or M.shape[0] != self.p:
            raise DimensionMismatchError(f"expected {self.p} rows, got shape {M.shape}")
        return M

    def project(self, M: np.ndarray) -> np.ndarray:
        """Apply P to the columns of M without forming P."""
        M = self._check(M)
        return self.q @ (self.q.T @ M)

    def solve_sieve_coefficients(self, C: np.ndarray) -> np.ndarray:
        """Solve (Phi'Phi) B = Phi' C in the least-norm sense (B is m x k)."""
        C = self._check(C)
        return self._coef @ (self.q.T @ C)


def _cholesky_qr(values: np.ndarray, blocks: list):
    """The CholeskyQR projector with ``blocks``' last columns dropped, or None if untrusted."""
    keep = np.ones(values.shape[1], dtype=bool)
    keep[[b.stop - 1 for b in blocks]] = False
    try:
        chol = np.linalg.cholesky((values.T @ values)[np.ix_(keep, keep)])
    except np.linalg.LinAlgError:
        return None
    coef = np.zeros((keep.size, chol.shape[0]))
    coef[keep] = np.linalg.inv(chol).T
    for b in blocks:
        coef[b] -= coef[b].mean(axis=0)
    q = values @ coef  # = values[:, keep] L^-T without copying the kept columns
    if q.size and np.abs(q.T @ q - np.eye(q.shape[1])).max() <= ORTHO_TOL:  # NaN fails
        return Projector(q=q, rank=q.shape[1], _coef=coef)
    return None


def make_projector(phi) -> Projector:
    """Projector onto the span of a design matrix (array or BasisMatrix); see the module."""
    values = np.asarray(getattr(phi, "values", phi), dtype=float)
    if values.ndim != 2:
        raise DimensionMismatchError("design matrix must be 2-dimensional")
    p, m = values.shape
    if p < m:
        raise DimensionMismatchError(f"need p >= m, got p={p}, m={m}")
    if not np.all(np.isfinite(values)):
        raise InvalidSpecError("design matrix has non-finite entries")
    spline = isinstance(phi, BasisMatrix) and phi.spec.family == "bspline_cubic"
    fast = _cholesky_qr(values, phi.blocks if spline else [])
    if fast is not None:
        return fast
    u, s, vt = np.linalg.svd(values, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateBasisError("design matrix is numerically zero")
    r = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    return Projector(q=u[:, :r], rank=r, _coef=vt[:r].T / s[:r])
