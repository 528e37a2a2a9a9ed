import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ppca

from ppca.cli import main
from ppca.dataio import read_matrix, write_matrix
from ppca.exceptions import InputError


def _write_panel(tmp_path, y, x):
    y_path = tmp_path / "Y.csv"
    x_path = tmp_path / "X.csv"
    write_matrix(y_path, y)
    write_matrix(x_path, x, header=[f"x{j + 1}" for j in range(x.shape[1])])
    return y_path, x_path


def test_read_matrix_typed_errors(tmp_path):
    # empty file, header with no rows, ragged row, non-numeric cell
    for i, text in enumerate(["", "a,b\n", "1.0,2.0\n3.0\n", "a,b\n1.0,2.0\n3.0,x\n"]):
        (tmp_path / f"{i}.csv").write_text(text)
        with pytest.raises(InputError):
            read_matrix(tmp_path / f"{i}.csv")


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
        # a missing file, a ragged Y.csv, then a --basis spec that is missing, not
        # JSON, or has a flag given as a string
        y_path, x_path = _write_panel(tmp_path, np.ones((2, 2)), np.ones((2, 1)))
        (tmp_path / "ok").mkdir()
        good_y, good_x = _write_panel(tmp_path / "ok", np.ones((8, 3)), np.arange(8.0)[:, None])
        y_path.write_text("1.0,2.0\n3.0\n")
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text("{not json")
        str_flag = tmp_path / "str_flag.json"
        str_flag.write_text(json.dumps({"family": "polynomial", "J": 2, "intercept": "false"}))
        for data, covariates, basis, msg in (
            (tmp_path / "nope.csv", tmp_path / "nope2.csv", [], "error"),
            (y_path, x_path, [], "row 2 has 1 fields"),
            (good_y, good_x, ["--basis", str(tmp_path / "nope.json")],
             f"file not found: {tmp_path / 'nope.json'}"),
            (good_y, good_x, ["--basis", str(bad_spec)], f"{bad_spec}: invalid JSON"),
            (good_y, good_x, ["--basis", str(str_flag)], "intercept must be true or false"),
        ):
            rc = main([
                "fit", "--data", str(data), "--covariates", str(covariates), *basis,
                "--out", str(tmp_path / "o"),
            ])
            assert rc == 2
            assert msg in capsys.readouterr().err

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

    def test_write_bytes_and_read_bits(self, tmp_path):
        a = np.array([[-0.0, 5e-324, 1e308], [0.1, 3.0, -7.0], [0.0, 1e-7, 2.0**60]])
        path = tmp_path / "m.csv"
        write_matrix(path, a, header=["a", "b", "c"])
        old = "a,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a)
        assert path.read_text() == old
        b, header = read_matrix(path)
        assert header == ["a", "b", "c"]
        assert b.tobytes() == a.tobytes()

    @pytest.mark.parametrize("text, where", [
        ("1.0,2.0\n3.0\n", "row 2 has 1 fields, expected 2"),
        ("a,b\n1.0,2.0\n3.0,x\n", "at row 2, column 2"),
        ("1.0\n2.0\n1_0\n", "at row 3, column 1"),  # float() accepts 1_0
        ("1.0,2.0\n3.0,4.0 # note\n", "at row 2, column 2"),  # no comment syntax
        ("1.0\n\n2.0\n", "row 2 has 0 fields, expected 1"),
        ("a,b\n", "header but no data rows"),
    ])
    def test_read_errors_name_path_and_row(self, tmp_path, text, where):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            read_matrix(path)
        assert str(path) in str(info.value) and where in str(info.value)


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"design": "design2", "p": 40, "T": 10, "seed": 7}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "Y.csv").read_bytes() == (out2 / "Y.csv").read_bytes()
        assert (out1 / "X.csv").read_bytes() == (out2 / "X.csv").read_bytes()

    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        # int() would truncate 300.7 and accept "5" and true; a negative seed
        # would reach numpy's seeding as a raw ValueError
        cfg = tmp_path / "sim.json"
        base = {"design": "design2", "p": 40, "T": 10}
        cases = [{**base, **bad} for bad in (
            {"frob": 1}, {"p": "x"}, {"p": None}, {"seed": "abc"}, {"p": 300.7},
            {"seed": "5"}, {"seed": True}, {"seed": -3}, {"design": "nope"},
        )] + [{"design": "design2", "p": 40}]  # T missing
        for obj in cases:
            cfg.write_text(json.dumps(obj))
            assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (obj, err)
            assert not (tmp_path / "o").exists()


class TestTest:
    def test_both_schema(self, tmp_path, capsys):
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
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", str(sim_out / "Y.csv"),
                  "--covariates", str(sim_out / "X.csv"), "--which", "bogus",
                  "--out", str(res_path)])
        assert exc.value.code == 2
        # K = 0 is refused by the fits the tests run: an input error, exit 2
        capsys.readouterr()
        assert main(["test", "--data", str(sim_out / "Y.csv"),
                     "--covariates", str(sim_out / "X.csv"), "--k", "0",
                     "--out", str(res_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
    def test_small_run_and_bad_reps(self, tmp_path, capsys):
        scen = {
            "design": "design2", "p_grid": [40], "T_grid": [10], "K": 3,
            "methods": ["projected_pca", "select_k_projected", "select_k_plain"],
            "n_reps": 2, "seed": 1,
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        out = tmp_path / "bench"
        rc = main(["benchmark", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        text = (out / "aggregate.csv").read_text()
        cells = {tuple(r.split(",")[3:5]) for r in text.splitlines()}
        assert {(m, k) for m in scen["methods"][1:] for k in ("k_hit", "k_abs_err")} <= cells
        assert (out / "raw_errors.csv").exists()
        # a float, string or bool grid entry or J_rule value was coerced, and a
        # repeated grid entry counted its draws twice in the aggregate
        bad_out = tmp_path / "bad"
        for bad in ({"n_reps": 0}, {"p_grid": ["a"]}, {"J_rule": 5}, {"J_rule": {"C": "x"}},
                    {"K": "3"}, {"K": 0}, {"seed": "x"}, {"seed": -1}, {"p_grid": [50.5]},
                    {"p_grid": ["60"]}, {"p_grid": [True]}, {"p_grid": [40, 40]},
                    {"J_rule": {"C": "3"}}, {"J_rule": {"C": True}}, {"J_rule": {"kappa": "5"}}):
            path.write_text(json.dumps({**scen, **bad}))
            assert main(["benchmark", "--scenario", str(path), "--out", str(bad_out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (bad, err)
            assert not bad_out.exists()


    @pytest.mark.parametrize("rule", [{"C": -1}, {"C": float("nan")}, {"kappa": 3}],
                             ids=["C=-1", "C=nan", "kappa=3"])
    def test_bad_j_rule_exits_2_without_output(self, tmp_path, capsys, rule):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps({"design": "design2", "p_grid": [40], "T_grid": [10],
                                    "n_reps": 2, "J_rule": rule}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_cli_import_skips_scipy_stats():
    # a fresh interpreter that imports the same ppca as this test run
    src = str(Path(ppca.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ppca.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "False"]


def test_simulate_and_fit_load_no_scipy(tmp_path):
    # a fresh interpreter that imports the same ppca as this test run: neither the
    # import nor a command loads scipy or a process pool
    code = textwrap.dedent("""\
        import json, sys
        from pathlib import Path
        from ppca.cli import main
        out = Path(sys.argv[1])
        (out / "sim.json").write_text(json.dumps({"design": "design2", "p": 60, "T": 20}))
        panel = ["--data", str(out / "s" / "Y.csv"), "--covariates", str(out / "s" / "X.csv")]
        loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                                or m == "concurrent.futures.process")
        print(json.dumps(loaded()))
        assert main(["simulate", "--scenario", str(out / "sim.json"), "--out", str(out / "s")]) == 0
        print(json.dumps(loaded()))
        assert main(["fit", *panel, "--k", "auto", "--out", str(out / "f")]) == 0
        print(json.dumps(loaded()))
        assert main(["test", *panel, "--k", "3", "--which", "both", "--out", str(out / "t.json")]) == 0
        print(json.dumps(loaded()))
    """)
    src = str(Path(ppca.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env=env)
    assert [json.loads(line) for line in out.stdout.splitlines()] == [[]] * 4


def test_public_namespace_resolves():
    # a stale __all__ entry left by a deletion fails only at `from ppca import *`
    assert len(set(ppca.__all__)) == len(ppca.__all__)
    for name in ppca.__all__:
        assert hasattr(ppca, name), name
    exec("from ppca import *", {})


def test_only_dataio_imports_json():
    # every file format lives in dataio; the numeric modules and the CLI pass dicts
    importers = set()
    for path in Path(ppca.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n is not None and n.split(".")[0] == "json" for n in names):
                importers.add(path.name)
    assert importers == {"dataio.py"}
