"""Additive sieve design matrices built from observed covariates.

Each covariate gets a block of ``J`` basis functions (cubic B-spline,
polynomial, Fourier, or a single constant column).  Blocks are stacked
side by side, every non-intercept column is mean-centered, and a single
global intercept column may be prepended.  The centered design matrix is
what the projection and estimation code consumes; the stored knots,
standardization parameters, and centering constants let fitted additive
curves be evaluated at new points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import config_int
from .exceptions import (
    InvalidSpecError,
    RankWarning,
    ZeroVarianceError,
)

FAMILIES = ("bspline_cubic", "polynomial", "fourier", "constant")


@dataclass(frozen=True)
class BasisSpec:
    """Configuration of the additive sieve basis.

    ``J`` counts basis functions per covariate.  The ``constant`` family
    ignores the covariates entirely and produces a single column of ones
    regardless of ``J``, ``d``, or the intercept flag.
    """

    family: str = "bspline_cubic"
    J: int = 8
    knot_rule: str = "quantile"
    include_intercept: bool = True
    standardize: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown basis family {self.family!r}")
        if self.knot_rule not in ("quantile", "uniform"):
            raise InvalidSpecError(f"unknown knot rule {self.knot_rule!r}")
        if self.family == "constant":
            object.__setattr__(self, "J", 1)
        if self.J < 1:
            raise InvalidSpecError("J must be >= 1")
        if self.family == "bspline_cubic" and self.J < 4:
            raise InvalidSpecError("cubic B-splines need J >= 4")

    def n_columns(self, d: int) -> int:
        if self.family == "constant":
            return 1
        return self.J * d + (1 if self.include_intercept else 0)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "J": self.J,
            "knot_rule": self.knot_rule,
            "intercept": self.include_intercept,
            "standardize": self.standardize,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BasisSpec":
        unknown = set(obj) - {"family", "J", "knot_rule", "intercept", "standardize"}
        if unknown:
            raise InvalidSpecError(f"unknown basis spec keys: {sorted(unknown)}")
        if "J" in obj:
            config_int("J", obj["J"], 1)
        kwargs = {key: obj[key] for key in ("family", "J", "knot_rule") if key in obj}
        for key, name in (("intercept", "include_intercept"), ("standardize", "standardize")):
            if key in obj:
                if not isinstance(obj[key], bool):
                    raise InvalidSpecError(f"{key} must be true or false, got {obj[key]!r}")
                kwargs[name] = obj[key]
        return cls(**kwargs)


@dataclass
class BasisMatrix:
    """A built p x m design matrix plus everything needed to re-evaluate it.

    ``knots`` holds the full (clamped) knot vector per covariate for the
    B-spline family and is empty otherwise.  ``supports`` holds the
    per-covariate evaluation interval on the (possibly standardized)
    scale; points outside are clamped.  ``centers`` are the column means
    subtracted from the non-intercept columns.
    """

    values: np.ndarray
    spec: BasisSpec
    knots: list
    supports: list
    standardization: list
    centers: np.ndarray

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return len(self.supports)


def standardize_covariates(X: np.ndarray):
    """Center and scale each covariate column to mean 0, sample variance 1.

    Uses the sample standard deviation (denominator p - 1).  Returns the
    transformed matrix and the per-column ``(mean, sd)`` pairs so the
    same transform can be applied to new evaluation points.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidSpecError("covariate matrix must be 2-dimensional")
    params = []
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        mu = X[:, j].mean()
        sd = X[:, j].std(ddof=1) if X.shape[0] > 1 else 0.0
        if sd <= 0.0 or not np.isfinite(sd):
            raise ZeroVarianceError(j)
        out[:, j] = (X[:, j] - mu) / sd
        params.append((mu, sd))
    return out, params


def default_J(p: int, T: int, C: float = 3.0, kappa: float = 4.0) -> int:
    """Sieve dimension rule J = floor(C * (p * min(T, p))^(1/kappa)).

    Clamped below at 4 so the result is always usable with cubic
    B-splines.
    """
    if p < 1 or T < 1:
        raise InvalidSpecError("p and T must be positive")
    if not (math.isfinite(C) and C > 0 and math.isfinite(kappa) and kappa >= 4):
        raise InvalidSpecError(f"need finite C > 0 and kappa >= 4, got C={C}, kappa={kappa}")
    J = math.floor(C * (p * min(T, p)) ** (1.0 / kappa))
    return max(J, 4)


def _bspline_knots(x: np.ndarray, J: int, rule: str) -> np.ndarray:
    """Clamped cubic knot vector with J - 4 interior knots."""
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise InvalidSpecError("covariate has no spread; cannot place knots")
    n_int = J - 4
    if n_int > 0:
        if rule == "quantile":
            qs = np.arange(1, n_int + 1) / (n_int + 1)
            interior = np.quantile(x, qs)
        else:
            interior = lo + (hi - lo) * np.arange(1, n_int + 1) / (n_int + 1)
        interior = np.asarray(interior, dtype=float)
        eps = 1e-12 * max(1.0, abs(hi - lo))
        if np.any(np.diff(interior) <= eps) or interior[0] <= lo or interior[-1] >= hi:
            raise InvalidSpecError(
                "knots coincide; too few distinct covariate values"
            )
    else:
        interior = np.empty(0)
    return np.concatenate(([lo] * 4, interior, [hi] * 4))


def _bspline_block(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # de Boor's recurrence over all points at once, in the operation order of scipy's
    # BSpline.design_matrix and added into zeros as its toarray does (-0.0 reads 0.0),
    # so bit for bit the same; the knots of _bspline_knots leave no zero denominator
    k = 3
    n = t.size - k - 1
    xc = np.clip(x, t[0], t[-1])
    ell = np.clip(np.searchsorted(t, xc, side="right") - 1, k, n - 1)
    tl = {i: t[ell + i] for i in range(1 - k, k + 1)}
    h = [np.ones_like(xc)]  # after round j: the j + 1 degree-j splines nonzero at x
    for j in range(1, k + 1):
        nxt = [np.zeros_like(xc)]
        for i in range(1, j + 1):
            w = h[i - 1] / (tl[i] - tl[i - j])
            nxt[i - 1] += w * (tl[i] - xc)
            nxt.append(w * (xc - tl[i - j]))
        h = nxt
    out = np.zeros((xc.size, n))
    for i, col in enumerate(h):
        out[np.arange(xc.size), ell - k + i] += col
    return out


def _polynomial_block(x: np.ndarray, J: int) -> np.ndarray:
    return np.column_stack([x**j for j in range(1, J + 1)])


def _fourier_block(x: np.ndarray, J: int, support) -> np.ndarray:
    lo, hi = support
    t = (x - lo) / (hi - lo)
    cols = []
    for j in range(1, J + 1):
        freq = (j + 1) // 2
        if j % 2 == 1:
            cols.append(np.sin(2 * np.pi * freq * t))
        else:
            cols.append(np.cos(2 * np.pi * freq * t))
    return np.column_stack(cols)


def _raw_design(spec: BasisSpec, knots, supports, xs: np.ndarray) -> np.ndarray:
    """Uncentered blocks of all covariates side by side, at xs clipped to the supports."""
    blocks = []
    for l, (lo, hi) in enumerate(supports):
        x = np.clip(xs[:, l], lo, hi)
        if spec.family == "bspline_cubic":
            blocks.append(_bspline_block(x, knots[l]))
        elif spec.family == "polynomial":
            blocks.append(_polynomial_block(x, spec.J))
        else:
            blocks.append(_fourier_block(x, spec.J, (lo, hi)))
    return np.hstack(blocks)


def build_basis(X: np.ndarray, spec: BasisSpec) -> BasisMatrix:
    """Build the p x m additive sieve design matrix from raw covariates.

    Column order is (intercept, covariate-1 block, ..., covariate-d
    block); every non-intercept column is mean-centered.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InvalidSpecError("covariate matrix must be p x d with p, d >= 1")
    if not np.all(np.isfinite(X)):
        raise InvalidSpecError("covariate matrix has non-finite entries")
    p, d = X.shape

    if spec.family == "constant":
        return BasisMatrix(
            values=np.ones((p, 1)),
            spec=spec,
            knots=[],
            supports=[],
            standardization=[],
            centers=np.zeros(1),
        )

    m = spec.n_columns(d)
    if p <= m:
        raise InvalidSpecError(f"need p > m but p={p}, m={m}")

    if spec.standardize:
        Xs, std_params = standardize_covariates(X)
    else:
        Xs, std_params = X, [(0.0, 1.0)] * d

    supports = [(float(x.min()), float(x.max())) for x in Xs.T]
    knots = [
        _bspline_knots(x, spec.J, spec.knot_rule) if spec.family == "bspline_cubic" else None
        for x in Xs.T
    ]
    raw = _raw_design(spec, knots, supports, Xs)
    centers = raw.mean(axis=0)
    centered = raw - centers
    col_scale = np.abs(raw).max(axis=0)
    dead = np.abs(centered).max(axis=0) <= 1e-12 * np.maximum(col_scale, 1.0)
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} basis column(s) numerically zero after centering",
            RankWarning,
        )

    if spec.include_intercept:
        values = np.hstack([np.ones((p, 1)), centered])
        centers = np.concatenate(([0.0], centers))
    else:
        values = centered

    return BasisMatrix(
        values=values,
        spec=spec,
        knots=knots,
        supports=supports,
        standardization=std_params,
        centers=centers,
    )


@dataclass
class CurveValues:
    """Evaluated additive loading curves at a set of points.

    ``total`` is n x K; ``per_covariate`` is n x d x K with the centered
    contribution of each covariate block; ``intercept`` is the length-K
    constant term (zeros when the basis has no intercept).
    """

    total: np.ndarray
    per_covariate: np.ndarray
    intercept: np.ndarray


def design_row(basis: BasisMatrix, x: np.ndarray) -> np.ndarray:
    """Evaluate the centered design matrix at new points (n x m)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    spec = basis.spec
    if spec.family == "constant":
        return np.ones((x.shape[0], 1))
    if x.shape[1] != basis.d:
        raise InvalidSpecError(
            f"expected points with d={basis.d} coordinates, got {x.shape[1]}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidSpecError("evaluation points have non-finite entries")
    mu, sd = np.array(basis.standardization).T
    xs = (x - mu) / sd
    rows = _raw_design(spec, basis.knots, basis.supports, xs)
    rows = rows - basis.centers[1 if spec.include_intercept else 0 :]
    if spec.include_intercept:
        rows = np.hstack([np.ones((rows.shape[0], 1)), rows])
    return rows


def eval_curves(B_hat: np.ndarray, basis: BasisMatrix, x: np.ndarray) -> CurveValues:
    """Evaluate fitted additive loading curves g_k at points x.

    Reuses the stored knots, centering constants, and standardization
    parameters, so evaluation at a training point reproduces the
    corresponding row of Phi(X) @ B_hat.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    if B_hat.ndim == 1:
        B_hat = B_hat[:, None]
    if B_hat.shape[0] != basis.m:
        raise InvalidSpecError(
            f"coefficient rows ({B_hat.shape[0]}) != basis columns ({basis.m})"
        )
    rows = design_row(basis, x)
    n, K = rows.shape[0], B_hat.shape[1]
    total = rows @ B_hat
    spec = basis.spec
    if spec.family == "constant":
        return CurveValues(
            total=total,
            per_covariate=np.zeros((n, 0, K)),
            intercept=np.zeros(K),
        )
    offset = 1 if spec.include_intercept else 0
    per_cov = np.empty((n, basis.d, K))
    for l in range(basis.d):
        sl = slice(offset + l * spec.J, offset + (l + 1) * spec.J)
        per_cov[:, l, :] = rows[:, sl] @ B_hat[sl, :]
    intercept = B_hat[0, :].copy() if spec.include_intercept else np.zeros(K)
    return CurveValues(total=total, per_covariate=per_cov, intercept=intercept)
