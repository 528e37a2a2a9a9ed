"""Command-line interface: fit, test, simulate, benchmark.

Exit codes: 0 on success, 2 for malformed input or configuration or an
unusable path, 3 for numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .basis import BasisSpec, build_basis, eval_curves
from .dataio import (
    config_int,
    read_json_object,
    read_matrix,
    write_aggregate_csv,
    write_csv,
    write_fit_bundle,
    write_json,
    write_manifest,
    write_matrix,
    write_raw_errors_csv,
)
from .estimator import PanelData, fit_projected_pca
from .exceptions import InputError, NumericalError, PpcaError
from .inference import select_k, test_g_zero, test_gamma_zero
from .montecarlo import Scenario, run_monte_carlo
from .projection import make_projector
from .simulate import gen_design

CURVE_GRID_POINTS = 200


def _out_path(args, directory: bool) -> Path:
    """``args.out``, refused before any input is read when it exists as the other kind of path."""
    out = Path(args.out)
    if out.exists() and out.is_dir() != directory:
        raise InputError(f"--out {out} is an existing {'file' if directory else 'directory'}")
    return out


def _load_model(args):
    """Prelude of ``fit`` and ``test``: parse --k, read inputs, build basis and projector, resolve K."""
    k = None  # --k auto: the eigenvalue-ratio estimate, once the projector is built
    if args.k != "auto":
        try:
            k = int(args.k)
        except ValueError as exc:
            raise InputError(f"--k must be an integer or 'auto', got {args.k!r}") from exc
    y, _ = read_matrix(args.data)
    x, _ = read_matrix(args.covariates)
    if y.shape[0] != x.shape[0]:
        raise InputError(
            f"{args.data} has {y.shape[0]} rows but {args.covariates} has {x.shape[0]}"
        )
    panel = PanelData(y=y, x=x)
    spec = BasisSpec()
    if args.basis is not None:
        spec = BasisSpec.from_dict(read_json_object(args.basis))
    basis = build_basis(panel.x, spec)
    projector = make_projector(basis)
    if k is None:
        k = select_k(panel.y, projector, basis.m).k_hat
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
            "basis": spec.to_dict(),
        },
        seed=None,
        input_paths=[args.data, args.covariates]
        + ([args.basis] if args.basis else []),
    )


def cmd_fit(args) -> int:
    out = _out_path(args, directory=True)
    panel, spec, basis, projector, k = _load_model(args)
    fit = fit_projected_pca(panel, projector, k)
    out.mkdir(parents=True, exist_ok=True)
    write_fit_bundle(out, fit, spec.to_dict(), basis.m)
    _write_curves_csv(out / "curves.csv", fit.b_hat, basis)
    _write_model_manifest(out / "manifest.json", args, spec, k)
    return 0


def _write_curves_csv(path, b_hat, basis) -> None:
    """Plot-ready per-covariate curve samples on a uniform grid over each covariate's range."""
    lo, hi = np.array(basis.supports).T
    mu, sd = np.array(basis.standardization).T
    grid = np.linspace(lo, hi, CURVE_GRID_POINTS) * sd + mu  # column l: covariate l's grid
    comp = eval_curves(b_hat, basis, grid).per_covariate
    header = ["covariate", "x"] + [f"g{k + 1}" for k in range(b_hat.shape[1])]
    rows = ([l, x, *g] for l in range(basis.d)
            for x, g in zip(grid[:, l].tolist(), comp[:, l].tolist()))
    write_csv(path, header, rows)


def cmd_test(args) -> int:
    out = _out_path(args, directory=False)
    panel, spec, _, projector, k = _load_model(args)
    results = {}
    if args.which in ("g", "both"):
        results["g"] = test_g_zero(panel, projector, k).to_dict()
    if args.which in ("gamma", "both"):
        results["gamma"] = test_gamma_zero(panel, projector, k).to_dict()
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, results)
    _write_model_manifest(out.with_suffix(".manifest.json"), args, spec, k, which=args.which)
    return 0


def cmd_simulate(args) -> int:
    out = _out_path(args, directory=True)
    cfg = read_json_object(args.scenario)
    design = cfg.get("design", "design2")
    unknown = set(cfg) - {"design", "p", "T", "seed"}
    if unknown:
        raise InputError(f"unknown simulate config keys: {sorted(unknown)}")
    try:
        p, T = config_int("p", cfg["p"], 1), config_int("T", cfg["T"], 1)
    except KeyError as exc:
        raise InputError(f"simulate config missing key: {exc}") from exc
    seed = config_int("seed", cfg.get("seed", 0), 0)
    panel = gen_design(design, p, T, np.random.default_rng(seed))
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
    out = _out_path(args, directory=True)
    scenario = Scenario.from_dict(read_json_object(args.scenario))
    result = run_monte_carlo(scenario, n_jobs=max(1, args.threads))
    out.mkdir(parents=True, exist_ok=True)
    write_aggregate_csv(out / "aggregate.csv", result.aggregate)
    write_raw_errors_csv(out / "raw_errors.csv", result.raw)
    if result.failures:
        write_json(out / "failures.json", result.failures)
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

    model = argparse.ArgumentParser(add_help=False)  # the inputs of fit and test
    model.add_argument("--data", required=True, help="Y.csv, p rows x T columns")
    model.add_argument("--covariates", required=True, help="X.csv, p rows x d columns")
    model.add_argument("--k", default="auto", help="number of factors or 'auto'")
    model.add_argument("--basis", default=None, help="basis spec JSON file")

    fit = sub.add_parser("fit", parents=[model], help="fit factors and loading curves from CSVs")
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=cmd_fit)

    test = sub.add_parser("test", parents=[model], help="loading specification tests")
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
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PpcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
