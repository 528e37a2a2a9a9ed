"""Monte Carlo harness: replicate, fit, align, and aggregate errors.

Per-replication RNG streams are derived deterministically from the
master seed and the cell coordinates, so the output table is identical
no matter how many worker processes run the replications.

``METHODS`` record errors after sign alignment (``_max``/``_fro``: largest entry,
Frobenius norm over √rows): ``projected_pca`` factor/lambda/g/gamma, ``regular_pca``
factor/lambda, ``sieve_ls_known_factors`` g. ``SELECT_K_METHODS`` (``select_k_projected``,
``select_k_plain``) record ``k_hit`` (1.0 if K̂ = K) and ``k_abs_err`` (|K̂ − K|).
A (p, T) cell whose replications all failed aggregates to one ``all_failed`` row
per method, with mean and sd NaN and n 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .basis import BasisSpec, build_basis, default_J
from .dataio import config_int
from .estimator import align_columns, fit_projected_pca, fit_regular_pca
from .exceptions import InvalidSpecError, PpcaError
from .inference import select_k
from .projection import make_projector
from .simulate import DESIGN_K, DESIGNS, check_shape, gen_design

METHODS = ("projected_pca", "regular_pca", "sieve_ls_known_factors")
SELECT_K_METHODS = ("select_k_projected", "select_k_plain")
# (JSON key, Scenario field), in the order of ``Scenario.to_dict``
_SCENARIO_KEYS = (
    ("design", "design"),
    ("p_grid", "p_grid"),
    ("T_grid", "t_grid"),
    ("methods", "methods"),
    ("n_reps", "n_reps"),
    ("seed", "seed"),
)


@dataclass(frozen=True)
class Scenario:
    """Configuration of one Monte Carlo experiment.

    Every replication fits cubic B-splines with J = ``basis.default_J(p, T, d)``;
    every (p, T) cell must be one the design can draw and that basis can fit.
    Every fit takes K = ``k``, the designs' factor count, so every T must exceed it.
    """

    k: ClassVar[int] = DESIGN_K
    design: str = "design2"
    p_grid: tuple = (50, 100, 200)
    t_grid: tuple = (10,)
    methods: tuple = ("projected_pca", "regular_pca")
    n_reps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise InvalidSpecError(f"unknown design {self.design!r}")
        for attr, key in (("p_grid", "p_grid"), ("t_grid", "T_grid"), ("methods", "methods")):
            if not isinstance(getattr(self, attr), (list, tuple)):  # a string would be iterated
                raise InvalidSpecError(f"{key} must be a list, got {getattr(self, attr)!r}")
        bad = [m for m in self.methods if m not in METHODS + SELECT_K_METHODS]
        if bad:
            raise InvalidSpecError(f"unknown methods {bad}")
        if not self.methods:
            raise InvalidSpecError("at least one method is required")
        for attr, key, low in (("n_reps", "n_reps", 1), ("seed", "seed", 0)):
            object.__setattr__(self, attr, config_int(key, getattr(self, attr), low))
        for attr, key in (("p_grid", "p_grid"), ("t_grid", "T_grid")):
            grid = tuple(config_int(f"{key} entry", v, 1) for v in getattr(self, attr))
            if not grid or len(set(grid)) < len(grid):  # a repeat would count its draws twice
                raise InvalidSpecError(f"{key} must be nonempty, without repeats: {list(grid)}")
            object.__setattr__(self, attr, grid)
        object.__setattr__(self, "methods", tuple(self.methods))
        for p in self.p_grid:  # a cell no replication can draw or fit is a config error
            for T in self.t_grid:
                d = check_shape(self.design, p, T)
                BasisSpec(J=default_J(p, T, d)).check_rows(p, d)
        if min(self.t_grid) <= self.k:  # every fit needs K < T
            raise InvalidSpecError(f"T_grid entries must exceed K={self.k}: {list(self.t_grid)}")

    def to_dict(self) -> dict:
        values = {key: getattr(self, attr) for key, attr in _SCENARIO_KEYS}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        unknown = set(obj) - {key for key, _ in _SCENARIO_KEYS}
        if unknown:
            raise InvalidSpecError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**{attr: obj[key] for key, attr in _SCENARIO_KEYS if key in obj})


@dataclass
class MonteCarloResult:
    """Aggregated error table plus per-replication raw records."""

    scenario: Scenario
    aggregate: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def _record_errors(metrics: dict, method: str, name: str, diff: np.ndarray) -> None:
    """Largest entry and Frobenius norm over √rows of an aligned error matrix."""
    metrics[(method, f"{name}_max")] = float(np.abs(diff).max())
    metrics[(method, f"{name}_fro")] = float(np.linalg.norm(diff) / np.sqrt(diff.shape[0]))


def run_replication(scenario: Scenario, p: int, T: int, rep: int) -> dict:
    """One replication: simulate, fit each method, record aligned errors."""
    rng = np.random.default_rng([scenario.seed, p, T, rep])
    panel = gen_design(scenario.design, p, T, rng)
    d = panel.data.x.shape[1]
    J = default_J(p, T, d)
    basis = build_basis(panel.data.x, BasisSpec(J=J))
    projector = make_projector(basis)

    truths = {"factor": panel.f_true, "lambda": panel.g_true + panel.gamma_true,
              "g": panel.g_true, "gamma": panel.gamma_true}
    record = {"p": p, "T": T, "rep": rep, "J": J, "metrics": {}}
    metrics = record["metrics"]
    for method in scenario.methods:
        if method in ("projected_pca", "regular_pca"):
            if method == "projected_pca":
                fit = fit_projected_pca(panel.data, projector, scenario.k)
                estimates = {"factor": fit.f_hat, "lambda": fit.lambda_hat,
                             "g": fit.g_hat, "gamma": fit.gamma_hat}
            else:
                f_hat, lambda_hat, _ = fit_regular_pca(panel.data.y, scenario.k)
                estimates = {"factor": f_hat, "lambda": lambda_hat}
            signs = align_columns(estimates["factor"], panel.f_true)
            for name, est in estimates.items():
                _record_errors(metrics, method, name, est * signs - truths[name])
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
    n_jobs = min(n_jobs, len(tasks))  # a fork pool starts every worker at the first submit
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

    n_failed_by_pt = Counter((fail["p"], fail["T"]) for fail in result.failures)
    # a cell whose replications all failed keeps one row per method
    for p, T in n_failed_by_pt.keys() - {(rec["p"], rec["T"]) for rec in result.raw}:
        for method in scenario.methods:
            by_cell[(p, T, method, "all_failed")] = []

    for (p, T, method, metric), values in sorted(by_cell.items()):
        if values:
            arr = np.asarray(values)
            mean, sd = float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        else:
            mean = sd = float("nan")
        result.aggregate.append(
            {
                "design": scenario.design,
                "p": p,
                "T": T,
                "method": method,
                "metric": metric,
                "mean": mean,
                "sd": sd,
                "n": len(values),
                "n_failed": n_failed_by_pt[(p, T)],
            }
        )
    return result
