"""Output checks against computations made apart from ppca.

Every reference here is plain numpy: the sieve space comes from a cubic
truncated-power basis (the same span as ppca's centred cubic B-splines
with an intercept, built another way), factors from a numpy SVD instead
of ppca's symmetric eigensolver, and the test statistics from their
definitions.  Nothing is compared with a stored copy of earlier output.
Each check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import math

import numpy as np

ORACLE_RTOL = 1e-6
IDENTITY_TOL = 1e-8


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def truncated_power_q(x: np.ndarray, J: int) -> np.ndarray:
    """Orthonormal basis of span{1, x, x^2, x^3, (x - k)^3_+} per covariate.

    Knots sit at the (J - 3)-quantiles of each covariate, as ppca's
    quantile rule places the J - 4 interior knots of its cubic B-splines.
    """
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    cols = [np.ones(x.shape[0])]
    n_knots = J - 4
    for col in x.T:
        z = (col - col.mean()) / col.std()
        knots = np.quantile(z, np.arange(1, n_knots + 1) / (n_knots + 1))
        cols += [z, z**2, z**3] + [np.maximum(z - k, 0.0) ** 3 for k in knots]
    a = np.column_stack(cols)
    return np.linalg.qr(a / np.abs(a).max(axis=0))[0]


def sieve_j(p: int, T: int, d: int) -> int:
    """The Monte Carlo sieve size: floor(3 (p min(T,p))^(1/4)), 4 <= J <= (p-2)/d - 1."""
    return max(4, min(math.floor(3.0 * (p * min(T, p)) ** 0.25), (p - 2) // d - 1))


def top_factors(a: np.ndarray, K: int):
    """sqrt(T) times the top-K right singular vectors of a, and sigma^2 / T."""
    T = a.shape[1]
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return math.sqrt(T) * vt[:K].T, s[:K] ** 2 / T


def aligned(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """est with each column's sign flipped towards the matching ref column."""
    return est * np.where(np.sum(est * ref, axis=0) < 0, -1.0, 1.0)


class PanelOracle:
    """Reference factors, loadings and test statistics for one panel."""

    def __init__(self, y: np.ndarray, x: np.ndarray, K: int, J: int = 8):
        y = np.asarray(y, dtype=float)
        p, T = y.shape
        self.K = K
        q = truncated_power_q(x, J)
        self.f_proj, self.eig_proj = top_factors(q.T @ y, K)
        lam = y @ self.f_proj / T
        gamma = lam - q @ (q.T @ lam)
        f_reg, _ = top_factors(y, K)
        lam_reg = y @ f_reg / T
        qyf = q.T @ (y @ f_reg)
        self.s_g = float(np.trace(np.linalg.inv(lam_reg.T @ lam_reg / p) @ (qyf.T @ qyf))) / (T**2 * p)
        resid = y - (y @ self.f_proj) @ self.f_proj.T / T
        sigma = np.sum(resid**2, axis=1) / T
        sigma = np.maximum(sigma, 1e-12 * sigma.max())
        self.s_gamma = float(np.sum(gamma**2 / sigma[:, None]))


def check_factor_count(k_hat: int, k_true: int) -> None:
    _require(k_hat == k_true, f"K_hat = {k_hat}, true K = {k_true}")


def check_eigen_equation(y, g_hat, f_hat, eigvals) -> None:
    """Y'G_hat = F_hat diag(eigenvalues), which holds for G_hat = P Y F_hat / T."""
    lhs = y.T @ g_hat
    rhs = f_hat * np.asarray(eigvals)[None, :]
    err = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    _require(err < IDENTITY_TOL, f"eigen-equation Y'G = F diag(eig) off by {err:.3g}")


def check_normalisation(f_hat, g_hat, gamma_hat) -> None:
    """F_hat'F_hat / T = I, and G_hat'Gamma_hat = 0 since G = P Lam, Gamma = (I-P) Lam."""
    T, K = f_hat.shape
    err = np.abs(f_hat.T @ f_hat / T - np.eye(K)).max()
    _require(err < IDENTITY_TOL, f"F'F/T differs from I by {err:.3g}")
    cross = np.abs(g_hat.T @ gamma_hat).max()
    scale = np.linalg.norm(g_hat) * np.linalg.norm(gamma_hat)
    _require(cross <= IDENTITY_TOL * scale, f"G'Gamma is {cross:.3g}, not 0")


def check_oracle_factors(f_hat, eigvals, oracle: PanelOracle) -> None:
    """Factors and eigenvalues come from the top singular triplets of Q'Y."""
    err = np.abs(aligned(f_hat, oracle.f_proj) - oracle.f_proj).max()
    _require(err < ORACLE_RTOL, f"factors differ from the SVD of Q'Y by {err:.3g}")
    err = np.abs(np.asarray(eigvals) / oracle.eig_proj - 1.0).max()
    _require(err < ORACLE_RTOL, f"eigenvalues differ from sigma(Q'Y)^2 / T by {err:.3g}")


def check_truth_error(f_hat, f_true, bound: float) -> None:
    """Sign-aligned factor error ||F_hat - F|| / sqrt(T) against the simulated truth."""
    err = np.linalg.norm(aligned(f_hat, f_true) - f_true) / math.sqrt(f_true.shape[0])
    _require(err < bound, f"factor error against the truth {err:.3g} >= {bound}")


def check_statistic(name: str, got: float, expected: float) -> None:
    _require(math.isclose(got, expected, rel_tol=ORACLE_RTOL),
             f"{name} = {got!r}, recomputed {expected!r}")


def check_g_test_rejects(p_value: float) -> None:
    """Design 2 has strong covariate-driven loadings, so H0: G = 0 must fall."""
    _require(p_value < 1e-6, f"G = 0 test p-value {p_value!r} does not reject")


def check_panel_fit(y, k_hat, f_hat, g_hat, gamma_hat, eigvals, s_g, s_gamma,
                    p_g, oracle: PanelOracle, f_true, truth_bound) -> None:
    """All checks of one projected-PCA fit plus both tests on a design-2 panel."""
    check_factor_count(k_hat, oracle.K)
    check_eigen_equation(y, g_hat, f_hat, eigvals)
    check_normalisation(f_hat, g_hat, gamma_hat)
    check_oracle_factors(f_hat, eigvals, oracle)
    check_truth_error(f_hat, f_true, truth_bound)
    check_statistic("S_G", s_g, oracle.s_g)
    check_statistic("S_Gamma", s_gamma, oracle.s_gamma)
    check_g_test_rejects(p_g)


def replication_metrics(y, x, f_true, g_true, gamma_true, J: int, K: int) -> dict:
    """The Monte Carlo error metrics of one replication, recomputed with numpy."""
    p, T = y.shape
    q = truncated_power_q(x, J)
    sqrt_p = math.sqrt(p)
    lam_true = g_true + gamma_true
    out = {}

    def factor(method, f):
        fa = aligned(f, f_true)
        out[(method, "factor_max")] = float(np.abs(fa - f_true).max())
        out[(method, "factor_fro")] = float(np.linalg.norm(fa - f_true) / math.sqrt(T))
        return np.where(np.sum(f * f_true, axis=0) < 0, -1.0, 1.0)

    def loading(method, name, est, truth):
        out[(method, f"{name}_max")] = float(np.abs(est - truth).max())
        out[(method, f"{name}_fro")] = float(np.linalg.norm(est - truth) / sqrt_p)

    f, _ = top_factors(q.T @ y, K)
    signs = factor("projected_pca", f)
    lam = y @ f / T
    g = q @ (q.T @ lam)
    for name, est, truth in (("lambda", lam, lam_true), ("g", g, g_true),
                             ("gamma", lam - g, gamma_true)):
        loading("projected_pca", name, est * signs, truth)
    f, _ = top_factors(y, K)
    signs = factor("regular_pca", f)
    loading("regular_pca", "lambda", y @ f / T * signs, lam_true)
    loading("sieve_ls_known_factors", "g", q @ (q.T @ (y @ f_true)) / T, g_true)
    return out


def check_replication(record: dict, expected: dict) -> None:
    """A Monte Carlo record's metrics match the numpy recomputation."""
    _require(set(record["metrics"]) == set(expected),
             f"metric set {sorted(record['metrics'])} != {sorted(expected)}")
    for key, value in expected.items():
        got = record["metrics"][key]
        _require(math.isclose(got, value, rel_tol=ORACLE_RTOL, abs_tol=1e-12),
                 f"{key} = {got!r}, recomputed {value!r}")


def check_same(name: str, a, b) -> None:
    """Outputs that must not depend on the worker count are equal exactly."""
    _require(a == b, f"{name} differs between one and two workers")


def check_study(result, scenario) -> None:
    """No failures, and one record per (p, T, rep) cell of the scenario."""
    _require(not result.failures, f"{len(result.failures)} replications failed")
    cells = sorted((p, T, rep) for p in scenario.p_grid for T in scenario.t_grid
                   for rep in range(scenario.n_reps))
    got = sorted((r["p"], r["T"], r["rep"]) for r in result.raw)
    _require(got == cells, f"{len(got)} records do not cover the {len(cells)} cells once each")
