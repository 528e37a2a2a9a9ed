"""Monte Carlo harness: replicate, fit, align, and aggregate errors.

Per-replication RNG streams are derived deterministically from the
master seed and the cell coordinates, so the output table is identical
no matter how many worker processes run the replications.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, build_basis, default_J
from .estimator import align_columns, fit_projected_pca, fit_regular_pca
from .exceptions import InputError, InvalidSpecError, PpcaError
from .projection import make_projector
from .simulate import gen_calibrated, gen_design2

METHODS = ("projected_pca", "regular_pca", "sieve_ls_known_factors")
DESIGNS = ("design2", "calibrated")


@dataclass(frozen=True)
class Scenario:
    """Configuration of one Monte Carlo experiment."""

    design: str = "design2"
    p_grid: tuple = (50, 100, 200)
    t_grid: tuple = (10,)
    k: int = 3
    j_c: float = 3.0
    j_kappa: float = 4.0
    methods: tuple = ("projected_pca", "regular_pca")
    n_reps: int = 100
    seed: int = 0
    basis_family: str = "bspline_cubic"

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise InvalidSpecError(f"unknown design {self.design!r}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise InvalidSpecError(f"unknown methods {bad}")
        if not self.methods:
            raise InvalidSpecError("at least one method is required")
        if self.n_reps < 1:
            raise InvalidSpecError("n_reps must be >= 1")
        if not self.p_grid or not self.t_grid:
            raise InvalidSpecError("p_grid and t_grid must be nonempty")
        object.__setattr__(self, "p_grid", tuple(int(p) for p in self.p_grid))
        object.__setattr__(self, "t_grid", tuple(int(t) for t in self.t_grid))
        object.__setattr__(self, "methods", tuple(self.methods))

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "p_grid": list(self.p_grid),
            "T_grid": list(self.t_grid),
            "K": self.k,
            "J_rule": {"C": self.j_c, "kappa": self.j_kappa},
            "methods": list(self.methods),
            "n_reps": self.n_reps,
            "seed": self.seed,
            "basis_family": self.basis_family,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise InvalidSpecError("scenario must be a JSON object")
        kwargs = {}
        mapping = {
            "design": "design",
            "p_grid": "p_grid",
            "T_grid": "t_grid",
            "K": "k",
            "methods": "methods",
            "n_reps": "n_reps",
            "seed": "seed",
            "basis_family": "basis_family",
        }
        known = set(mapping) | {"J_rule"}
        unknown = set(obj) - known
        if unknown:
            raise InvalidSpecError(f"unknown scenario keys: {sorted(unknown)}")
        for src, dst in mapping.items():
            if src in obj:
                val = obj[src]
                kwargs[dst] = tuple(val) if isinstance(val, list) else val
        rule = obj.get("J_rule", {})
        if "C" in rule:
            kwargs["j_c"] = float(rule["C"])
        if "kappa" in rule:
            kwargs["j_kappa"] = float(rule["kappa"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidSpecError(f"bad scenario: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(obj)


@dataclass
class MonteCarloResult:
    """Aggregated error table plus per-replication raw records."""

    scenario: Scenario
    aggregate: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def sieve_dimension(scenario: Scenario, p: int, T: int, d: int) -> int:
    """J from the growth rule, capped so the design matrix stays p > m."""
    J = default_J(p, T, C=scenario.j_c, kappa=scenario.j_kappa)
    cap = (p - 2) // d - 1
    return max(4, min(J, cap))


def _simulate(scenario: Scenario, p: int, T: int, rng):
    if scenario.design == "design2":
        return gen_design2(p, T, rng=rng)
    return gen_calibrated(p, T, rng=rng)


def run_replication(scenario: Scenario, p: int, T: int, rep: int) -> dict:
    """One replication: simulate, fit each method, record aligned errors."""
    rng = np.random.default_rng([scenario.seed, p, T, rep])
    panel = _simulate(scenario, p, T, rng)
    d = panel.data.x.shape[1]
    J = sieve_dimension(scenario, p, T, d)
    spec = BasisSpec(family=scenario.basis_family, J=J)
    basis = build_basis(panel.data.x, spec)
    projector = make_projector(basis)
    lam_true = panel.g_true + panel.gamma_true
    sqrt_p = np.sqrt(p)

    record = {"p": p, "T": T, "rep": rep, "J": J, "metrics": {}}
    metrics = record["metrics"]
    for method in scenario.methods:
        if method == "projected_pca":
            fit = fit_projected_pca(panel.data, projector, scenario.k)
            signs, f_max, f_fro = align_columns(fit.f_hat, panel.f_true)
            metrics[(method, "factor_max")] = f_max
            metrics[(method, "factor_fro")] = f_fro
            for name, est, truth in (
                ("lambda", fit.lambda_hat, lam_true),
                ("g", fit.g_hat, panel.g_true),
                ("gamma", fit.gamma_hat, panel.gamma_true),
            ):
                diff = est * signs - truth
                metrics[(method, f"{name}_max")] = float(np.abs(diff).max())
                metrics[(method, f"{name}_fro")] = float(
                    np.linalg.norm(diff) / sqrt_p
                )
        elif method == "regular_pca":
            fit = fit_regular_pca(panel.data.y, scenario.k)
            signs, f_max, f_fro = align_columns(fit.f_hat, panel.f_true)
            metrics[(method, "factor_max")] = f_max
            metrics[(method, "factor_fro")] = f_fro
            diff = fit.lambda_hat * signs - lam_true
            metrics[(method, "lambda_max")] = float(np.abs(diff).max())
            metrics[(method, "lambda_fro")] = float(np.linalg.norm(diff) / sqrt_p)
        elif method == "sieve_ls_known_factors":
            # loadings from projected LS with the true factors observed
            est = projector.project(panel.data.y) @ panel.f_true / T
            diff = est - panel.g_true
            metrics[(method, "g_max")] = float(np.abs(diff).max())
            metrics[(method, "g_fro")] = float(np.linalg.norm(diff) / sqrt_p)
    return record


def _run_task(args):
    scenario, p, T, rep = args
    try:
        return ("ok", run_replication(scenario, p, T, rep))
    except PpcaError as exc:
        return ("fail", {"p": p, "T": T, "rep": rep, "error": str(exc)})


def run_monte_carlo(scenario: Scenario, n_jobs: int = 1) -> MonteCarloResult:
    """Run every (p, T, rep) cell and aggregate mean/sd per metric.

    Results are keyed by replication index, never by completion order,
    so the output is independent of ``n_jobs``.
    """
    tasks = [
        (scenario, p, T, rep)
        for p in scenario.p_grid
        for T in scenario.t_grid
        for rep in range(scenario.n_reps)
    ]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        outcomes = [_run_task(t) for t in tasks]

    result = MonteCarloResult(scenario=scenario)
    by_cell: dict = {}
    for status, payload in outcomes:
        if status == "fail":
            result.failures.append(payload)
            continue
        result.raw.append(payload)
        for (method, metric), value in payload["metrics"].items():
            key = (payload["p"], payload["T"], method, metric)
            by_cell.setdefault(key, []).append(value)

    n_failed_by_pt: dict = {}
    for fail in result.failures:
        n_failed_by_pt[(fail["p"], fail["T"])] = (
            n_failed_by_pt.get((fail["p"], fail["T"]), 0) + 1
        )

    for (p, T, method, metric), values in sorted(by_cell.items()):
        arr = np.asarray(values)
        result.aggregate.append(
            {
                "design": scenario.design,
                "p": p,
                "T": T,
                "method": method,
                "metric": metric,
                "mean": float(arr.mean()),
                "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                "n": int(arr.size),
                "n_failed": n_failed_by_pt.get((p, T), 0),
            }
        )
    return result


def cell_mean(result: MonteCarloResult, p: int, T: int, method: str, metric: str) -> float:
    """Look up one aggregated mean; raises if the cell is missing."""
    for row in result.aggregate:
        if (row["p"], row["T"], row["method"], row["metric"]) == (p, T, method, metric):
            return row["mean"]
    raise InputError(f"no aggregate cell for {(p, T, method, metric)}")
