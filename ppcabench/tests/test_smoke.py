"""Tiny-size runs of every workload, traced spans, and the exit without a program.

    python3 -m pytest ppcabench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent


class TinyCli(workloads.CliCsv):
    P, T, TRUTH_BOUND = 300, 30, 0.5


class TinyWide(workloads.WidePanel):
    P, T, TRUTH_BOUND = 600, 20, 0.5


class TinyLong(workloads.LongPanel):
    P, T, TRUTH_BOUND = 100, 60, 0.5


class TinyMc(workloads.McCalibrated):
    SCENARIO = {**workloads.McCalibrated.SCENARIO, "p_grid": [100, 150], "T_grid": [20],
                "n_reps": 2}


@pytest.mark.parametrize("cls", [TinyCli, TinyWide, TinyLong, TinyMc])
def test_tiny_workload_runs_and_checks(cls, tmp_path):
    res = run.run_workload(cls, 3, tmp_path, None, rounds=2, seconds=0.0)
    assert res["correct"]
    assert (res["attempted"], res["failed"], len(res["setup"])) == (1, 0, 2)


class UnreadableFit(TinyCli):
    def op(self, i):
        out = super().op(i)
        (out / "fit" / "fit.json").write_text("{")
        return out


def test_an_unreadable_output_fails_the_check(tmp_path):
    res = run.run_workload(UnreadableFit, 3, tmp_path, None, rounds=1, seconds=0.0)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 1, 0)


def test_inputs_follow_the_seed(tmp_path):
    a, b = TinyWide(1, tmp_path), TinyWide(2, tmp_path)
    assert a.derive(workloads.OP, 0) == TinyWide(1, tmp_path).derive(workloads.OP, 0)
    assert a.derive(workloads.OP, 0) != b.derive(workloads.OP, 0)
    assert a.derive(workloads.OP, 0) != a.derive(workloads.SETUP, 0)


def test_self_time_subtracts_every_child_span():
    def span(sid, name, parent, start, end):
        return {"id": sid, "name": name, "parent": parent, "start": start, "end": end}

    got = spans.self_times([
        span("a", "x.outer", None, 0.0, 10.0),
        span("b", "y.child", "a", 1.0, 4.0),
        span("c", "x.inner", "a", 5.0, 9.0),
        span("d", "y.grandchild", "c", 6.0, 8.0),
    ])
    assert got == pytest.approx({"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0})


@pytest.fixture
def tracer():
    t = spans.Tracer(workload="test")
    t.instrument()
    yield t
    t.restore()


def test_traced_cli_child_spans_nest_under_the_command(tracer, tmp_path):
    res = run.run_workload(TinyCli, 3, tmp_path, tracer, rounds=1, seconds=0.0)
    assert res["correct"]
    by_id = {s["id"]: s for s in tracer.spans}
    (fit,) = [s for s in tracer.spans if s["name"] == "cli.fit"]
    reads = [s for s in tracer.spans
             if s["name"] == "dataio.read_matrix" and s.get("file") == "Y.csv"]
    assert reads and all(by_id[s["parent"]]["name"] in ("cli.fit", "cli.test") for s in reads)
    assert fit["start"] < min(s["start"] for s in reads if s["parent"] == fit["id"])
    metrics = spans.layer_metrics(tracer.spans)
    assert 0 < metrics["cli.fit_s"]["value"] < fit["end"] - fit["start"]
    assert metrics["dataio.read_mb_per_s"]["value"] > 0
    assert "montecarlo.worker_utilisation" not in metrics


def test_traced_pipeline_reports_its_layers(tracer, tmp_path):
    res = run.run_workload(TinyWide, 3, tmp_path, tracer, rounds=1, seconds=0.0)
    assert res["correct"]
    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) == {"basis.build_s", "projection.make_s", "inference.select_k_s",
                            "inference.test_g_s", "inference.test_gamma_s",
                            "estimator.fit_projected_s", "estimator.fit_regular_s",
                            "simulate.gen_design2_s", "trace.op_s"}
    assert all(m["value"] > 0 for m in metrics.values())
    # test_g_zero's own time excludes the regular-PCA fit it calls
    (g,) = [s for s in tracer.spans if s["name"] == "inference.test_g_zero" and s["op"]]
    assert spans.self_times(tracer.spans)[g["id"]] < g["end"] - g["start"]


def test_census_fills_only_the_layers_the_workload_never_reaches(tracer, tmp_path):
    tracer.workload = "wide_panel"
    run.run_workload(TinyWide, 3, tmp_path, tracer, rounds=1, seconds=0.0)
    own = spans.layer_metrics(list(tracer.spans))
    metrics, from_census, ok = run.traced_metrics(
        "wide_panel", 3, tmp_path, tracer, {"wide_panel": TinyWide, "cli_csv": TinyCli})
    assert ok
    assert from_census == {"cli.startup_s", "cli.simulate_s", "cli.fit_s", "cli.test_s",
                           "dataio.read_s", "dataio.read_mb_per_s", "dataio.write_s",
                           "dataio.write_mb_per_s", "dataio.bundle_write_s"}
    assert {m: metrics[m] for m in own} == own
    census_fit = [s for s in tracer.spans if s["name"] == "cli.fit"]
    assert census_fit and all(s["workload"] == "cli_csv" for s in census_fit)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "wide_panel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in spans.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "ops_per_s",
                                                      "peak_rss_mb"}
