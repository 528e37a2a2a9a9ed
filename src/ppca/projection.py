"""Factored projector onto the column space of the sieve design matrix.

The p x p matrix P = Phi (Phi'Phi)^-1 Phi' is never materialized;
instead an orthonormal column basis Q of span(Phi) is kept (from a
rank-revealing SVD) and P is applied as Q (Q' M).  The same SVD factors
solve the Gram system (Phi'Phi) B = Phi' C for sieve coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateBasisError, DimensionMismatchError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class Projector:
    """Immutable factored representation of P."""

    q: np.ndarray
    rank: int
    _s: np.ndarray
    _vt: np.ndarray

    @property
    def p(self) -> int:
        return self.q.shape[0]

    def _check(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        one_d = M.ndim == 1
        if one_d:
            M = M[:, None]
        if M.ndim != 2 or M.shape[0] != self.p:
            raise DimensionMismatchError(
                f"expected {self.p} rows, got shape {M.shape}"
            )
        return M[:, 0] if one_d else M

    def project(self, M: np.ndarray) -> np.ndarray:
        """Apply P to the columns of M without forming P."""
        M = self._check(M)
        return self.q @ (self.q.T @ M)

    def solve_sieve_coefficients(self, C: np.ndarray) -> np.ndarray:
        """Solve (Phi'Phi) B = Phi' C in the least-norm sense (B is m x k)."""
        C = self._check(C)
        r = self.rank
        ut_c = self.q.T @ C
        return self._vt[:r].T @ (ut_c / self._s[:r, None])


def make_projector(phi) -> Projector:
    """Build a projector from a design matrix (array or BasisMatrix).

    Columns whose singular value falls below ``DEFAULT_RANK_TOL`` relative to the
    largest are dropped, so duplicated or collinear basis columns do not
    change the projection.
    """
    values = getattr(phi, "values", phi)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DimensionMismatchError("design matrix must be 2-dimensional")
    p, m = values.shape
    if p < m:
        raise DimensionMismatchError(f"need p >= m, got p={p}, m={m}")
    u, s, vt = np.linalg.svd(values, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateBasisError("design matrix is numerically zero")
    r = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    if r == 0:
        raise DegenerateBasisError("design matrix has numerical rank zero")
    return Projector(q=u[:, :r], rank=r, _s=s, _vt=vt)
