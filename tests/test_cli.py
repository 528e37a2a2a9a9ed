import ast
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ppca

from ppca.basis import BasisSpec, build_basis, eval_curves
from ppca.cli import main
from ppca.dataio import read_json_object, read_matrix, sha256_file, write_matrix
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


@pytest.mark.parametrize("reader, text", [(read_matrix, b"1.0,2.0\n3.0,\xff\n"),
                                          (read_json_object, b'{"design": "d\xe9sign2"}')],
                         ids=["csv", "json"])
def test_undecodable_file_input_error(tmp_path, reader, text):
    path = tmp_path / "latin1"
    path.write_bytes(text)
    with pytest.raises(InputError, match="not utf-8") as exc:
        reader(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("case", ["fit_out_is_file", "test_out_is_dir", "data_is_dir",
                                  "data_not_utf8", "scenario_not_utf8"])
def test_unusable_path_exit_2(tmp_path, capsys, case):
    # an --out that cannot be written, a --data directory, or a file that is not UTF-8
    y_path, x_path = _write_panel(tmp_path, ppca.gen_design2(60, 20, seed=1).data.y,
                                  np.linspace(0.0, 1.0, 60)[:, None])
    bad = tmp_path / "bad"
    if case == "fit_out_is_file":
        bad.write_text("keep")
    elif case in ("test_out_is_dir", "data_is_dir"):
        bad.mkdir()
    else:
        bad.write_bytes(b"1.0,2.0\n3.0,\xff\n" if case == "data_not_utf8" else b'{"p": "\xe9"}')
    model = ["--covariates", str(x_path), "--k", "3"]
    argv = {
        "fit_out_is_file": ["fit", "--data", str(y_path), *model, "--out", str(bad)],
        "test_out_is_dir": ["test", "--data", str(y_path), *model, "--out", str(bad)],
        "data_is_dir": ["fit", "--data", str(bad), *model, "--out", str(tmp_path / "o")],
        "data_not_utf8": ["fit", "--data", str(bad), *model, "--out", str(tmp_path / "o")],
        "scenario_not_utf8": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()
    if bad.is_dir():
        assert not any(bad.iterdir())
    elif case == "fit_out_is_file":
        assert bad.read_text() == "keep"


@pytest.mark.parametrize("command", ["fit", "test", "simulate", "benchmark"])
def test_out_refused_before_reading(tmp_path, capsys, monkeypatch, command):
    # test writes a file and the others a directory: the other kind of path is refused before
    # any input is read or any panel drawn
    work = []
    for name in ("read_matrix", "read_json_object", "gen_design", "run_monte_carlo"):
        monkeypatch.setattr(f"ppca.cli.{name}", lambda *a, name=name, **kw: work.append(name))
    bad = tmp_path / "bad"
    if command == "test":
        bad.mkdir()
    else:
        bad.write_text("keep")
    inputs = (["--scenario", str(tmp_path / "s.json")] if command in ("simulate", "benchmark")
              else ["--data", str(tmp_path / "Y.csv"), "--covariates", str(tmp_path / "X.csv")])
    assert main([command, *inputs, "--out", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and err.count("\n") == 1, err
    assert work == []


class TestFit:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        # a missing file, a ragged Y.csv, then a --basis spec that is missing, not
        # JSON, or has a deleted key (standardize, knot_rule, intercept) or family
        y_path, x_path = _write_panel(tmp_path, np.ones((2, 2)), np.ones((2, 1)))
        (tmp_path / "ok").mkdir()
        good_y, good_x = _write_panel(tmp_path / "ok", np.ones((8, 3)), np.arange(8.0)[:, None])
        y_path.write_text("1.0,2.0\n3.0\n")
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text("{not json")
        old_specs = []
        for key, value, msg in (
            ("standardize", True, "unknown basis spec keys: ['standardize']"),
            ("knot_rule", "quantile", "unknown basis spec keys: ['knot_rule']"),
            ("intercept", True, "unknown basis spec keys: ['intercept']"),
            ("family", "constant", "unknown basis family 'constant'"),
        ):
            path = tmp_path / f"old_{key}.json"
            path.write_text(json.dumps({"family": "polynomial", "J": 2, key: value}))
            old_specs.append((good_y, good_x, ["--basis", str(path)], msg))
        for data, covariates, basis, msg in (
            (tmp_path / "nope.csv", tmp_path / "nope2.csv", [], "error"),
            (y_path, x_path, [], "row 2 has 1 fields"),
            (good_y, good_x, ["--basis", str(tmp_path / "nope.json")],
             f"file not found: {tmp_path / 'nope.json'}"),
            (good_y, good_x, ["--basis", str(bad_spec)], f"{bad_spec}: invalid JSON"),
            *old_specs,
        ):
            rc = main([
                "fit", "--data", str(data), "--covariates", str(covariates), *basis,
                "--out", str(tmp_path / "o"),
            ])
            assert rc == 2
            err = capsys.readouterr().err
            assert msg in err and err.startswith("error: ") and err.count("\n") == 1, err
            assert not (tmp_path / "o").exists()

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
        # curves.csv: 200 points per covariate over its observed range, each g_k(x) the
        # covariate's own additive curve, as eval_curves gives it with the others at zero
        curves, header = read_matrix(out / "curves.csv")
        assert header == ["covariate", "x", "g1", "g2", "g3"]
        x, _ = read_matrix(sim_out / "X.csv")
        b_hat, _ = read_matrix(out / "coefficients.csv")
        basis = build_basis(x, BasisSpec())
        np.testing.assert_array_equal(curves[:, 0], np.repeat(np.arange(x.shape[1]), 200))
        for l in range(x.shape[1]):
            block = curves[curves[:, 0] == l]
            np.testing.assert_allclose(block[[0, -1], 1], [x[:, l].min(), x[:, l].max()],
                                       rtol=1e-12, atol=1e-12)
            pts = np.zeros((200, x.shape[1]))
            pts[:, l] = block[:, 1]
            own = eval_curves(b_hat, basis, pts).per_covariate[:, l]
            np.testing.assert_allclose(block[:, 2:], own, rtol=1e-12, atol=1e-12)


class TestCsvRoundTrip:
    def test_exact_float_round_trip(self, tmp_path, rng):
        a = rng.standard_normal((7, 5)) * np.exp(rng.standard_normal((7, 5)) * 8)
        path = tmp_path / "m.csv"
        write_matrix(path, a)
        b, _ = read_matrix(path)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_frees_rows_before_joining(self, tmp_path, rng):
        # rows are formatted and written a block at a time: neither the text nor the
        # matrix's Python floats are ever held whole (the matrix itself is 0.41x the file)
        path, a = tmp_path / "m.csv", rng.standard_normal((2000, 50))
        peak = self._peak(write_matrix, path, a)
        assert peak < 0.5 * path.stat().st_size

    def test_write_peak_does_not_grow_with_rows(self, tmp_path, rng):
        path = tmp_path / "m.csv"
        small, large = rng.standard_normal((2000, 50)), rng.standard_normal((8000, 50))
        assert self._peak(write_matrix, path, large) < 1.5 * self._peak(write_matrix, path, small)

    def test_read_holds_only_the_parsed_array(self, tmp_path, rng):
        # the file streams line by line into np.loadtxt; the array alone is 0.41x the file
        path = tmp_path / "m.csv"
        write_matrix(path, rng.standard_normal((2000, 50)))
        assert self._peak(read_matrix, path) < 0.6 * path.stat().st_size

    def test_checksum_spans_chunks(self, tmp_path, rng):
        path = tmp_path / "m.csv"
        write_matrix(path, rng.standard_normal((1000, 100)))  # about 2 MB: two 1 MiB chunks
        assert path.stat().st_size > 1 << 20
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_write_bytes_and_read_bits(self, tmp_path):
        a = np.array([[-0.0, 5e-324, 1e308], [0.1, 3.0, -7.0], [0.0, 1e-7, 2.0**60]])
        path = tmp_path / "m.csv"
        write_matrix(path, a, header=["a", "b", "c"])
        old = "a,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a)
        assert path.read_text() == old
        b, header = read_matrix(path)
        assert header == ["a", "b", "c"]
        assert b.tobytes() == a.tobytes()
        # a UTF-8 byte-order mark, as spreadsheet exports write it, is not part of row 1
        path.write_text("\ufeff" + old, encoding="utf-8")
        b, header = read_matrix(path)
        assert header == ["a", "b", "c"] and b.tobytes() == a.tobytes()
        path.write_text("\ufeff1.0,2.0\n3.0,4.0\n5.0,6.0", encoding="utf-8")
        b, header = read_matrix(path)
        assert header is None and b.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

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


MIB = 1 << 20


class TestReadParity:
    """Inputs, each with the matrix and header or the exact error it must read as.

    A file reads as the lines of its stripped text split by ``str.splitlines``, so
    a form feed ends a line, and errors come in a fixed order however far apart
    they lie: an undecodable byte, with its offset in the whole file, then the
    first row of the wrong width, then the first cell that does not parse.
    """

    CASES = {
        "trailing_blank_lines": (b"1.0,2.0\n3.0,4.0\n\n  \n\t\n", [[1.0, 2.0], [3.0, 4.0]], None),
        "leading_blank_lines": (b"\n \n1.0,2.0\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]], None),
        "crlf": (b"a,b\r\n1.0,2.0\r\n3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]], ["a", "b"]),
        "no_final_newline": (b"1.0,2.0\n3.0,4.0", [[1.0, 2.0], [3.0, 4.0]], None),
        "carriage_returns_only": (b"1.0\r2.0\r", [[1.0], [2.0]], None),
        "padded_cells": (b"  1.0, 2.0\n3.0,4.0 \n", [[1.0, 2.0], [3.0, 4.0]], None),
        "bom_and_header": (b"\xef\xbb\xbfa,b\n1.0,2.0\n", [[1.0, 2.0]], ["a", "b"]),
        "form_feed": (b"1.0\x0c\n2.0\n", "{path}: row 2 has 0 fields, expected 1"),
        "blank_after_header": (b"a\n\n1.0\n", "{path}: row 1 has 0 fields, expected 1"),
        "interior_blank_line": (b"1.0\n\n2.0\n", "{path}: row 2 has 0 fields, expected 1"),
        "interior_whitespace_line": (
            b"1.0\n  \n2.0\n", "{path}: could not convert string '  ' to float64 at row 2, column 1."),
        "bad_cell_then_bad_width": (b"1.0\nx\n2.0,3.0\n", "{path}: row 3 has 2 fields, expected 1"),
        "bad_byte_after_first_mib": (
            b"1.0\n" * (MIB // 4 + 3) + b"2.\xff\n",
            "{path}: not utf-8-sig text: 'utf-8' codec can't decode byte 0xff in position "
            "1048590: invalid start byte"),
        "bom_then_bad_byte_after_first_mib": (
            b"\xef\xbb\xbf" + b"1.0\n" * (MIB // 4 + 3) + b"2.\xff\n",
            "{path}: not utf-8-sig text: 'utf-8' codec can't decode byte 0xff in position "
            "1048593: invalid start byte"),
        "bad_width_then_bad_bytes": (
            b"1.0\n2.0,3.0\n" + b"1.0\n" * (MIB // 4) + b"\xe2\x82\n",
            "{path}: not utf-8-sig text: 'utf-8' codec can't decode bytes in position "
            "1048588-1048589: invalid continuation byte"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_reads_as_lines_of_stripped_text(self, tmp_path, case):
        data, *expected = self.CASES[case]
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        if isinstance(expected[0], str):
            with pytest.raises(InputError) as info:
                read_matrix(path)
            assert str(info.value) == expected[0].format(path=path)
        else:
            matrix, header = read_matrix(path)
            assert matrix.shape == np.shape(expected[0])
            assert matrix.tobytes() == np.array(expected[0]).tobytes()
            assert header == expected[1]


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
        # would reach numpy's seeding as a raw ValueError; T < K = 3 (p < K on the
        # calibrated design) would make F'F (G'G) singular, a numerical failure
        cfg = tmp_path / "sim.json"
        base = {"design": "design2", "p": 40, "T": 10}
        cases = [{**base, **bad} for bad in (
            {"frob": 1}, {"p": "x"}, {"p": None}, {"seed": "abc"}, {"p": 300.7},
            {"seed": "5"}, {"seed": True}, {"seed": -3}, {"design": "nope"}, {"T": 2},
            {"design": "calibrated", "T": 2}, {"design": "calibrated", "p": 2},
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


    @pytest.mark.parametrize("case", ["overflow", "rank_one"])
    def test_numerical_failure_exit_3(self, tmp_path, capsys, rng, case):
        # Y'Y overflows, so eigh fails; or the second loading column of a rank-one Y
        # is roundoff, so the G test's weight matrix is singular
        if case == "overflow":
            y = ppca.gen_design2(40, 10, seed=1).data.y * 1e200
        else:
            y = np.outer(rng.standard_normal(40), rng.standard_normal(10))
        y_path, x_path = _write_panel(tmp_path, y, rng.standard_normal((40, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["test", "--data", str(y_path), "--covariates", str(x_path),
                       "--k", "2", "--which", "g", "--out", str(tmp_path / "t.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("command", [["fit", "--out", "fit"],
                                         ["test", "--which", "gamma", "--out", "t.json"]])
    def test_projected_overflow_exit_3(self, tmp_path, capsys, rng, command):
        # Q'Y stays finite but its squared singular values overflow
        y = ppca.gen_design2(40, 10, seed=1).data.y * 1e200
        y_path, x_path = _write_panel(tmp_path, y, rng.standard_normal((40, 1)))
        out = tmp_path / command[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([command[0], "--data", str(y_path), "--covariates", str(x_path),
                       "--k", "3", *command[1:-1], str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        assert not out.exists()


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
            "design": "design2", "p_grid": [40], "T_grid": [10],
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
        # a float, string or bool grid entry was coerced, a repeated grid entry
        # counted its draws twice in the aggregate, and J_rule, basis_family and K are
        # deleted keys; a string or number where a list belongs was iterated
        not_lists = ({"methods": "regular_pca"}, {"p_grid": "40"}, {"p_grid": 40})
        bad_out = tmp_path / "bad"
        for bad in ({"n_reps": 0}, {"p_grid": ["a"]}, {"K": 3}, {"seed": "x"},
                    {"seed": -1}, {"p_grid": [50.5]}, {"p_grid": ["60"]}, {"p_grid": [True]},
                    {"p_grid": [40, 40]}, {"J_rule": {"C": 3}}, {"basis_family": "polynomial"},
                    *not_lists):
            path.write_text(json.dumps({**scen, **bad}))
            assert main(["benchmark", "--scenario", str(path), "--out", str(bad_out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (bad, err)
            if bad in not_lists:
                assert f"{next(iter(bad))} must be a list" in err, (bad, err)
            assert not bad_out.exists()

    def test_cells_the_design_cannot_draw_exit_2(self, tmp_path, capsys):
        # every p = 3 and T = 2 replication of design 2 would fail in the simulator
        path, out = tmp_path / "scen.json", tmp_path / "bench"
        path.write_text(json.dumps({"design": "design2", "p_grid": [3, 40], "T_grid": [2, 10],
                                    "methods": ["projected_pca"], "n_reps": 2}))
        assert main(["benchmark", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: design2 needs p >= 4") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        # every fit refuses K >= T, so each cell would record only KTooLargeError
        ({"T_grid": [3]}, "T_grid entries must exceed K=3: [3]"),
        # both designs draw three factors and every fit takes K = 3, so K is no key
        ({"T_grid": [10], "K": 9}, "unknown scenario keys: ['K']"),
    ], ids=["T_not_above_K", "K_not_the_designs"])
    def test_k_the_cells_cannot_use_exits_2(self, tmp_path, capsys, bad, message):
        path, out = tmp_path / "scen.json", tmp_path / "bench"
        path.write_text(json.dumps({"design": "design2", "p_grid": [40], "n_reps": 2,
                                    "methods": ["projected_pca", "regular_pca"], **bad}))
        assert main(["benchmark", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err
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


def test_public_names_have_callers():
    # each name in ppca.__all__ is used in src/ppca (outside its own definition
    # and __init__.py) or in ppcabench; a name only tests call is dead surface
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    package = Path(ppca.__file__).parent
    bench = package.parents[1] / "ppcabench"
    for path in [*package.glob("*.py"), *bench.glob("*.py")]:
        if path.name != "__init__.py" or path.parent != package:
            visit(ast.parse(path.read_text()), frozenset())
    assert sorted(set(ppca.__all__) - used) == []


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


def test_only_dataio_writes_files():
    # dataio holds every file writer; the CLI hands it rows and dicts
    writers = set()
    for path in Path(ppca.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                if name in ("open", "write_text", "write_bytes"):
                    writers.add(path.name)
    assert writers == {"dataio.py"}
