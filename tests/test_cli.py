import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppca

from ppca.cli import main
from ppca.dataio import read_matrix, write_matrix


def _write_panel(tmp_path, y, x):
    y_path = tmp_path / "Y.csv"
    x_path = tmp_path / "X.csv"
    write_matrix(y_path, y)
    write_matrix(x_path, x, header=[f"x{j + 1}" for j in range(x.shape[1])])
    return y_path, x_path


class TestFit:
    def test_constant_basis_closed_form(self, tmp_path, rng):
        p, T = 30, 12
        y = rng.standard_normal((p, T))
        x = rng.standard_normal((p, 1))
        y_path, x_path = _write_panel(tmp_path, y, x)
        spec_path = tmp_path / "basis.json"
        spec_path.write_text(
            json.dumps({"family": "constant", "J": 1, "knot_rule": "quantile",
                        "intercept": True, "standardize": True})
        )
        out = tmp_path / "fit"
        rc = main([
            "fit", "--data", str(y_path), "--covariates", str(x_path),
            "--k", "1", "--basis", str(spec_path), "--out", str(out),
        ])
        assert rc == 0
        factors, header = read_matrix(out / "factors.csv")
        assert header == ["f1"]
        ybar = y.mean(axis=0)
        target = np.sqrt(T) * ybar / np.linalg.norm(ybar)
        sign = np.sign(factors[:, 0] @ target)
        np.testing.assert_allclose(sign * factors[:, 0], target, atol=1e-10)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main([
            "fit", "--data", str(tmp_path / "nope.csv"),
            "--covariates", str(tmp_path / "nope2.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bundle_files_and_roundtrip(self, tmp_path):
        sim_out = tmp_path / "sim"
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 60, "T": 20, "seed": 2}))
        assert main(["simulate", "--scenario", str(cfg), "--out", str(sim_out)]) == 0
        out = tmp_path / "fit"
        rc = main([
            "fit", "--data", str(sim_out / "Y.csv"),
            "--covariates", str(sim_out / "X.csv"),
            "--k", "3", "--out", str(out),
        ])
        assert rc == 0
        for name in ("factors.csv", "loadings_g.csv", "loadings_gamma.csv",
                     "loadings_lambda.csv", "coefficients.csv", "fit.json",
                     "curves.csv", "manifest.json"):
            assert (out / name).exists()
        info = json.loads((out / "fit.json").read_text())
        assert info["K"] == 3
        g, _ = read_matrix(out / "loadings_g.csv")
        gam, _ = read_matrix(out / "loadings_gamma.csv")
        lam, _ = read_matrix(out / "loadings_lambda.csv")
        np.testing.assert_allclose(g + gam, lam, atol=1e-12)


class TestCsvRoundTrip:
    def test_exact_float_round_trip(self, tmp_path, rng):
        a = rng.standard_normal((7, 5)) * np.exp(rng.standard_normal((7, 5)) * 8)
        path = tmp_path / "m.csv"
        write_matrix(path, a)
        b, _ = read_matrix(path)
        np.testing.assert_array_equal(a, b)


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 40, "T": 10, "seed": 7}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "Y.csv").read_bytes() == (out2 / "Y.csv").read_bytes()
        assert (out1 / "X.csv").read_bytes() == (out2 / "X.csv").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 40, "T": 10, "seed": 7}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out1)]) == 0
        monkeypatch.setenv("PPCA_SEED", "8")
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "Y.csv").read_bytes() != (out2 / "Y.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 8

    def test_bad_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 40, "T": 10, "frob": 1}))
        assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestTest:
    def test_both_schema(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 100, "T": 30, "seed": 3}))
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(sim_out)]) == 0
        res_path = tmp_path / "tests.json"
        rc = main([
            "test", "--data", str(sim_out / "Y.csv"),
            "--covariates", str(sim_out / "X.csv"),
            "--k", "3", "--which", "both", "--out", str(res_path),
        ])
        assert rc == 0
        obj = json.loads(res_path.read_text())
        assert set(obj) == {"g", "gamma"}
        for block in obj.values():
            assert set(block) == {
                "statistic", "standardized", "df", "p_normal", "p_chisq", "K",
            }
        # covariates fully explain the loadings in this design
        assert obj["g"]["p_chisq"] < 0.01
        assert (tmp_path / "tests.manifest.json").exists()


class TestAutoK:
    def test_auto_selects_true_k(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 300, "T": 50, "seed": 5}))
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(sim_out)]) == 0
        out = tmp_path / "fit"
        rc = main([
            "fit", "--data", str(sim_out / "Y.csv"),
            "--covariates", str(sim_out / "X.csv"),
            "--k", "auto", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["K_hat"] == 3


class TestBenchmark:
    def test_small_run_and_bad_reps(self, tmp_path):
        scen = {
            "design": "design2", "p_grid": [40], "T_grid": [10], "K": 3,
            "methods": ["projected_pca"], "n_reps": 2, "seed": 1,
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        out = tmp_path / "bench"
        rc = main(["benchmark", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "raw_errors.csv").exists()
        scen["n_reps"] = 0
        path.write_text(json.dumps(scen))
        assert main(["benchmark", "--scenario", str(path), "--out", str(out)]) == 2


def test_cli_import_skips_scipy_stats():
    # a fresh interpreter that imports the same ppca as this test run
    src = str(Path(ppca.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ppca.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
