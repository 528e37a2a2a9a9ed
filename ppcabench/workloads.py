"""The four workloads.  Each has set-up rounds, a timed operation and checks.

``setup(r)`` builds round r's inputs and warms up; ``op(i)`` is the timed
operation; ``check(i, out)`` verifies its outputs and runs with the clock
stopped.  Inputs come from ``derive(kind, index)``, a function of the
``--seed`` argument, the workload and the round or operation index.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP, OP, CHECK = 0, 1, 2


class OpFailed(RuntimeError):
    pass


def child_env(**extra) -> dict:
    """Environment of child processes: this checkout's ppca, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: str(v) for k, v in extra.items()})
    return env


class Workload:
    name = ""
    index = 0

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        self.seed = seed
        self.work = work_dir
        self.tracer = tracer

    def derive(self, kind: int, i: int) -> int:
        """A 32-bit seed for one round, operation or check."""
        seq = np.random.SeedSequence([self.seed, self.index, kind, i])
        return int(seq.generate_state(1)[0])

    def probe_import(self, module: str, span_name: str = "setup.import") -> None:
        """Import ``module`` in a fresh interpreter: the start-up a user pays."""
        with self.tracer.span(span_name) if self.tracer else contextlib.nullcontext():
            subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(),
                           check=True, stdout=subprocess.DEVNULL)


class CliCsv(Workload):
    """simulate -> fit --k auto -> test --k auto --which both, one process each."""

    name, index = "cli_csv", 0
    P, T = 5000, 50
    TRUTH_BOUND = 0.15

    def setup(self, r):
        self.probe_import("ppca.cli", "cli.startup")

    def _cli(self, command, *args):
        argv = [command, *map(str, args)]
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "ppca.cli", *argv], env=child_env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        else:
            with self.tracer.span(f"cli.{command}") as record:
                spans_file = self.work / f"spans-{record['id']}.json"
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv],
                    env=child_env(PPCABENCH_SPANS=spans_file, PPCABENCH_PARENT=record["id"],
                                  PPCABENCH_OP=self.tracer.op_id,
                                  PPCABENCH_WORKLOAD=self.tracer.workload),
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if spans_file.exists():
                self.tracer.spans.extend(json.loads(spans_file.read_text()))
        if proc.returncode != 0:
            raise OpFailed(f"ppca {command} exited {proc.returncode}: {proc.stderr.strip()}")

    def op(self, i):
        out = self.work / f"op{i}"
        data = out / "data"
        out.mkdir(parents=True)
        scenario = out / "sim.json"
        scenario.write_text(json.dumps(
            {"design": "design2", "p": self.P, "T": self.T, "seed": self.derive(OP, i)}))
        self._cli("simulate", "--scenario", scenario, "--out", data)
        panel = ("--data", data / "Y.csv", "--covariates", data / "X.csv", "--k", "auto")
        self._cli("fit", *panel, "--out", out / "fit")
        self._cli("test", *panel, "--which", "both", "--out", out / "test.json")
        return out

    def check(self, i, out):
        """Everything is read back with numpy, never with ppca.dataio."""
        def load(path, skip=0):
            return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip)

        y = load(out / "data/Y.csv")
        fit = json.loads((out / "fit/fit.json").read_text())
        tests = json.loads((out / "test.json").read_text())
        oracle = checks.PanelOracle(y, load(out / "data/X.csv", skip=1), K=3)
        checks.check_panel_fit(
            y, fit["K"], load(out / "fit/factors.csv", skip=1), load(out / "fit/loadings_g.csv"),
            load(out / "fit/loadings_gamma.csv"), fit["eigenvalues"], tests["g"]["statistic"],
            tests["gamma"]["statistic"], tests["g"]["p_normal"], oracle,
            load(out / "data/factors_true.csv"), self.TRUTH_BOUND)
        checks.check_statistic("test K", tests["gamma"]["K"], fit["K"])
        shutil.rmtree(out)


class PanelPipeline(Workload):
    """In-process build_basis -> make_projector -> select_k -> fit -> both tests.

    Each set-up round draws one design-2 panel; operation i runs on panel
    i mod rounds, so the reference for a panel is computed once.
    """

    P = T = 0
    TRUTH_BOUND = 0.0

    def __init__(self, seed, work_dir, tracer=None):
        super().__init__(seed, work_dir, tracer)
        self.panels = []
        self.oracles = {}

    def setup(self, r):
        import ppca.simulate

        self.probe_import("ppca")
        self.panels.append(ppca.simulate.gen_design2(self.P, self.T, seed=self.derive(SETUP, r)))
        self._pipeline(self.panels[-1])

    @staticmethod
    def _pipeline(panel):
        from ppca import basis, estimator, inference, projection

        data = panel.data
        b = basis.build_basis(data.x, basis.BasisSpec())
        proj = projection.make_projector(b)
        k = inference.select_k(data.y, proj, b.m).k_hat
        fit = estimator.fit_projected_pca(data, proj, k)
        return k, fit, inference.test_g_zero(data, proj, k), inference.test_gamma_zero(data, proj, k)

    def op(self, i):
        return self._pipeline(self.panels[i % len(self.panels)])

    def check(self, i, out):
        n = i % len(self.panels)
        panel = self.panels[n]
        if n not in self.oracles:
            self.oracles[n] = checks.PanelOracle(panel.data.y, panel.data.x, K=panel.k_true)
        k, fit, test_g, test_gamma = out
        checks.check_panel_fit(
            panel.data.y, k, fit.f_hat, fit.g_hat, fit.gamma_hat, fit.eigvals,
            test_g.statistic, test_gamma.statistic, test_g.p_value_normal, self.oracles[n],
            panel.f_true, self.TRUTH_BOUND)


class WidePanel(PanelPipeline):
    name, index = "wide_panel", 1
    P, T = 20000, 100
    TRUTH_BOUND = 0.1


class LongPanel(PanelPipeline):
    name, index = "long_panel", 2
    P, T = 1000, 1000
    TRUTH_BOUND = 0.1


class McCalibrated(Workload):
    """One run_monte_carlo study per operation, on a two-worker process pool."""

    name, index = "mc_calibrated", 3
    SCENARIO = {"design": "calibrated", "p_grid": [500, 1000], "T_grid": [50],
                "methods": ["projected_pca", "regular_pca", "sieve_ls_known_factors"],
                "n_reps": 8}
    # Small enough to run serially too; 16 tasks fill two chunks of 8.
    SMALL = {**SCENARIO, "p_grid": [100, 200], "T_grid": [20]}
    WORKERS = min(2, os.cpu_count() or 1)

    def _scenario(self, spec, seed):
        from ppca.montecarlo import Scenario

        return Scenario.from_dict({**spec, "seed": seed})

    def setup(self, r):
        from ppca import montecarlo

        self.probe_import("ppca")
        scenario = self._scenario(self.SCENARIO, self.derive(SETUP, r))
        montecarlo.run_replication(scenario, scenario.p_grid[0], scenario.t_grid[0], 0)

    def op(self, i):
        from ppca import montecarlo

        scenario = self._scenario(self.SCENARIO, self.derive(OP, i))
        return scenario, montecarlo.run_monte_carlo(scenario, n_jobs=self.WORKERS)

    def check(self, i, out):
        """No failures; one replication per p rerun serially and recomputed with numpy.

        The first check also runs a small study with one and with two
        workers and compares the aggregates exactly.
        """
        from ppca import montecarlo, simulate

        scenario, result = out
        checks.check_study(result, scenario)
        rep = i % scenario.n_reps
        for p in scenario.p_grid:
            for T in scenario.t_grid:
                pooled = result.raw[[(r["p"], r["T"], r["rep"]) for r in result.raw].index(
                    (p, T, rep))]
                checks.check_same(f"record p={p} rep={rep}", pooled,
                                  montecarlo.run_replication(scenario, p, T, rep))
                panel = simulate.gen_calibrated(p, T, rng=np.random.default_rng(
                    [scenario.seed, p, T, rep]))
                d = panel.data.x.shape[1]
                checks.check_statistic("J", pooled["J"], checks.sieve_j(p, T, d))
                checks.check_replication(pooled, checks.replication_metrics(
                    panel.data.y, panel.data.x, panel.f_true, panel.g_true, panel.gamma_true,
                    pooled["J"], scenario.k))
        if i == 0:
            small = self._scenario(self.SMALL, self.derive(CHECK, i))
            with self.tracer.muted() if self.tracer else contextlib.nullcontext():
                one = montecarlo.run_monte_carlo(small, n_jobs=1)
                two = montecarlo.run_monte_carlo(small, n_jobs=self.WORKERS)
            checks.check_study(one, small)
            checks.check_same("aggregate", one.aggregate, two.aggregate)


WORKLOADS = {w.name: w for w in (CliCsv, WidePanel, LongPanel, McCalibrated)}
