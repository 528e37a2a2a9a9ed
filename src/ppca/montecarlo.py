"""Monte Carlo harness: replicate, fit, align, and aggregate errors.

Per-replication RNG streams are derived deterministically from the
master seed and the cell coordinates, so the output table is identical
no matter how many worker processes run the replications.

``METHODS`` record errors after sign alignment (``_max``/``_fro``: largest entry,
Frobenius norm over √p): ``projected_pca`` factor/lambda/g/gamma, ``regular_pca``
factor/lambda, ``sieve_ls_known_factors`` g. ``SELECT_K_METHODS`` (``select_k_projected``,
``select_k_plain``) record ``k_hit`` (1.0 if K̂ = K) and ``k_abs_err`` (|K̂ − K|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import FAMILIES, BasisSpec, build_basis, default_J
from .dataio import config_int
from .estimator import align_columns, fit_projected_pca, fit_regular_pca
from .exceptions import InvalidSpecError, PpcaError
from .inference import select_k
from .projection import make_projector
from .simulate import DESIGNS, gen_design

METHODS = ("projected_pca", "regular_pca", "sieve_ls_known_factors")
SELECT_K_METHODS = ("select_k_projected", "select_k_plain")


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
        bad = [m for m in self.methods if m not in METHODS + SELECT_K_METHODS]
        if bad:
            raise InvalidSpecError(f"unknown methods {bad}")
        if not self.methods:
            raise InvalidSpecError("at least one method is required")
        if self.basis_family not in FAMILIES:
            raise InvalidSpecError(f"unknown basis family {self.basis_family!r}")
        for attr, key, low in (("k", "K", 1), ("n_reps", "n_reps", 1), ("seed", "seed", 0)):
            object.__setattr__(self, attr, config_int(key, getattr(self, attr), low))
        default_J(1, 1, C=self.j_c, kappa=self.j_kappa)  # checks the J_rule once, up front
        for attr, key in (("p_grid", "p_grid"), ("t_grid", "T_grid")):
            grid = tuple(config_int(f"{key} entry", v, 1) for v in getattr(self, attr))
            if not grid or len(set(grid)) < len(grid):  # a repeat would count its draws twice
                raise InvalidSpecError(f"{key} must be nonempty, without repeats: {list(grid)}")
            object.__setattr__(self, attr, grid)
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

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
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
        if not isinstance(rule, dict):
            raise InvalidSpecError(f"J_rule must be an object, got {rule!r}")
        for src, dst in (("C", "j_c"), ("kappa", "j_kappa")):
            if src in rule:
                if isinstance(rule[src], bool) or not isinstance(rule[src], (int, float)):
                    raise InvalidSpecError(f"J_rule {src} must be a number, got {rule[src]!r}")
                kwargs[dst] = float(rule[src])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidSpecError(f"bad scenario: {exc}") from exc


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


def _record_errors(metrics: dict, method: str, name: str, diff: np.ndarray) -> None:
    """Largest entry and Frobenius norm over √rows of an aligned error matrix."""
    metrics[(method, f"{name}_max")] = float(np.abs(diff).max())
    metrics[(method, f"{name}_fro")] = float(np.linalg.norm(diff) / np.sqrt(diff.shape[0]))


def run_replication(scenario: Scenario, p: int, T: int, rep: int) -> dict:
    """One replication: simulate, fit each method, record aligned errors."""
    rng = np.random.default_rng([scenario.seed, p, T, rep])
    panel = gen_design(scenario.design, p, T, rng)
    d = panel.data.x.shape[1]
    J = sieve_dimension(scenario, p, T, d)
    spec = BasisSpec(family=scenario.basis_family, J=J)
    basis = build_basis(panel.data.x, spec)
    projector = make_projector(basis)

    record = {"p": p, "T": T, "rep": rep, "J": J, "metrics": {}}
    metrics = record["metrics"]
    for method in scenario.methods:
        if method in ("projected_pca", "regular_pca"):
            if method == "projected_pca":
                fit = fit_projected_pca(panel.data, projector, scenario.k)
            else:
                fit = fit_regular_pca(panel.data.y, scenario.k)
            signs, _, _ = align_columns(fit.f_hat, panel.f_true)
            for name, est, truth in (
                ("factor", fit.f_hat, panel.f_true),
                ("lambda", fit.lambda_hat, panel.g_true + panel.gamma_true),
                ("g", fit.g_hat, panel.g_true),  # None for regular_pca
                ("gamma", fit.gamma_hat, panel.gamma_true),
            ):
                if est is not None:
                    _record_errors(metrics, method, name, est * signs - truth)
        elif method == "sieve_ls_known_factors":
            # loadings from projected LS with the true factors observed
            est = projector.project(panel.data.y @ panel.f_true) / T
            _record_errors(metrics, method, "g", est - panel.g_true)
        elif method in SELECT_K_METHODS:
            P = projector if method == "select_k_projected" else None
            k_hat = select_k(panel.data.y, P, basis.m).k_hat
            metrics[(method, "k_hit")] = float(k_hat == panel.k_true)
            metrics[(method, "k_abs_err")] = float(abs(k_hat - panel.k_true))
    return record


def _run_task(args):
    scenario, p, T, rep = args
    try:
        return ("ok", run_replication(scenario, p, T, rep))
    except PpcaError as exc:
        return ("fail", {"p": p, "T": T, "rep": rep,
                         "type": type(exc).__name__, "error": str(exc)})


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
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
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
