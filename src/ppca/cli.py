"""Command-line interface: fit, test, simulate, benchmark.

Exit codes: 0 on success, 2 for malformed input or configuration, 3 for
numerical failure.  The environment variable ``PPCA_SEED`` overrides any
seed found in a scenario config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .basis import BasisSpec, build_basis, eval_curves
from .dataio import (
    read_matrix,
    write_aggregate_csv,
    write_fit_bundle,
    write_manifest,
    write_matrix,
    write_raw_errors_csv,
)
from .estimator import PanelData, fit_projected_pca
from .exceptions import InputError, InvalidSpecError, NumericalError, PpcaError
from .inference import select_k, test_g_zero, test_gamma_zero
from .montecarlo import Scenario, run_monte_carlo
from .projection import make_projector
from .simulate import gen_calibrated, gen_design2

CURVE_GRID_POINTS = 200


def _env_seed(default):
    raw = os.environ.get("PPCA_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"PPCA_SEED must be an integer, got {raw!r}") from exc


def _load_model(args):
    """Prelude of ``fit`` and ``test``: read inputs, build basis and projector, resolve K."""
    y, _ = read_matrix(args.data)
    x, _ = read_matrix(args.covariates)
    if y.shape[0] != x.shape[0]:
        raise InputError(
            f"{args.data} has {y.shape[0]} rows but {args.covariates} has {x.shape[0]}"
        )
    panel = PanelData(y=y, x=x)
    spec = BasisSpec()
    if args.basis is not None:
        spec_path = Path(args.basis)
        if not spec_path.exists():
            raise InputError(f"basis spec file not found: {spec_path}")
        spec = BasisSpec.from_json(spec_path.read_text())
    basis = build_basis(panel.x, spec)
    projector = make_projector(basis)
    if args.k == "auto":
        k = select_k(panel.y, projector, basis.m).k_hat
    else:
        try:
            k = int(args.k)
        except ValueError as exc:
            raise InputError(f"--k must be an integer or 'auto', got {args.k!r}") from exc
    return panel, spec, basis, projector, k


def _write_model_manifest(path, args, spec, k, **config) -> None:
    write_manifest(
        path,
        command=args.command,
        config={
            "data": str(args.data),
            "covariates": str(args.covariates),
            "k": args.k,
            "K_hat": k,
            **config,
            "basis": json.loads(spec.to_json()),
        },
        seed=None,
        input_paths=[args.data, args.covariates]
        + ([args.basis] if args.basis else []),
    )


def cmd_fit(args) -> int:
    panel, spec, basis, projector, k = _load_model(args)
    fit = fit_projected_pca(panel, projector, k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_fit_bundle(out, fit, spec.to_json(), basis.m)
    if spec.family != "constant":
        _write_curves_csv(out / "curves.csv", fit.b_hat, basis)
    _write_model_manifest(out / "manifest.json", args, spec, k)
    return 0


def _write_curves_csv(path, b_hat, basis) -> None:
    """Plot-ready per-covariate curve samples on a uniform grid."""
    lines = ["covariate,x"]
    K = b_hat.shape[1]
    lines[0] += "," + ",".join(f"g{k + 1}" for k in range(K))
    for l in range(basis.d):
        mu, sd = basis.standardization[l]
        lo, hi = basis.supports[l]
        grid_std = np.linspace(lo, hi, CURVE_GRID_POINTS)
        grid_raw = grid_std * sd + mu
        pts = np.zeros((CURVE_GRID_POINTS, basis.d))
        pts[:, l] = grid_raw
        curves = eval_curves(b_hat, basis, pts)
        comp = curves.per_covariate[:, l, :]
        for i in range(CURVE_GRID_POINTS):
            vals = ",".join(repr(float(v)) for v in comp[i])
            lines.append(f"{l},{repr(float(grid_raw[i]))},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_test(args) -> int:
    panel, spec, _, projector, k = _load_model(args)
    results = {}
    if args.which in ("g", "both"):
        results["g"] = test_g_zero(panel, projector, k).to_dict()
    if args.which in ("gamma", "both"):
        results["gamma"] = test_gamma_zero(panel, projector, k).to_dict()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    _write_model_manifest(out.with_suffix(".manifest.json"), args, spec, k, which=args.which)
    return 0


def _load_json_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"scenario file not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{p}: scenario must be a JSON object")
    return obj


def cmd_simulate(args) -> int:
    cfg = _load_json_config(args.scenario)
    design = cfg.get("design", "design2")
    unknown = set(cfg) - {"design", "p", "T", "seed"}
    if unknown:
        raise InputError(f"unknown simulate config keys: {sorted(unknown)}")
    try:
        p, T = int(cfg["p"]), int(cfg["T"])
    except KeyError as exc:
        raise InputError(f"simulate config missing key: {exc}") from exc
    seed = _env_seed(int(cfg.get("seed", 0)))
    if design == "design2":
        panel = gen_design2(p, T, seed=seed)
    elif design == "calibrated":
        panel = gen_calibrated(p, T, seed=seed)
    else:
        raise InputError(f"unknown design {design!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "Y.csv", panel.data.y)
    write_matrix(
        out / "X.csv",
        panel.data.x,
        header=[f"x{l + 1}" for l in range(panel.data.x.shape[1])],
    )
    write_matrix(out / "factors_true.csv", panel.f_true)
    write_matrix(out / "loadings_g_true.csv", panel.g_true)
    write_matrix(out / "loadings_gamma_true.csv", panel.gamma_true)
    write_manifest(
        out / "manifest.json",
        command="simulate",
        config={"design": design, "p": p, "T": T, "K_true": panel.k_true},
        seed=seed,
        input_paths=[args.scenario],
    )
    return 0


def cmd_benchmark(args) -> int:
    cfg = _load_json_config(args.scenario)
    scenario = Scenario.from_dict(cfg)
    seed = _env_seed(scenario.seed)
    if seed != scenario.seed:
        scenario = Scenario.from_dict({**cfg, "seed": seed})
    result = run_monte_carlo(scenario, n_jobs=max(1, args.threads))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_aggregate_csv(out / "aggregate.csv", result.aggregate)
    write_raw_errors_csv(out / "raw_errors.csv", result.raw)
    if result.failures:
        (out / "failures.json").write_text(
            json.dumps(result.failures, indent=2) + "\n"
        )
    write_manifest(
        out / "manifest.json",
        command="benchmark",
        config=scenario.to_dict(),
        seed=scenario.seed,
        input_paths=[args.scenario],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppca",
        description="Projected-PCA estimation, testing, and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit factors and loading curves from CSVs")
    fit.add_argument("--data", required=True, help="Y.csv, p rows x T columns")
    fit.add_argument("--covariates", required=True, help="X.csv, p rows x d columns")
    fit.add_argument("--k", default="auto", help="number of factors or 'auto'")
    fit.add_argument("--basis", default=None, help="basis spec JSON file")
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=cmd_fit)

    test = sub.add_parser("test", help="loading specification tests")
    test.add_argument("--data", required=True)
    test.add_argument("--covariates", required=True)
    test.add_argument("--basis", default=None)
    test.add_argument("--k", default="auto")
    test.add_argument("--which", default="both", choices=["g", "gamma", "both"])
    test.add_argument("--out", required=True, help="results JSON path")
    test.set_defaults(func=cmd_test)

    sim = sub.add_parser("simulate", help="write one simulated panel as CSVs")
    sim.add_argument("--scenario", required=True, help="JSON: design, p, T, seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark", help="run a Monte Carlo scenario")
    bench.add_argument("--scenario", required=True, help="scenario JSON file")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--threads", type=int, default=1)
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
