import math
from dataclasses import replace

import pytest

from ppca.basis import default_J
from ppca import montecarlo
from ppca.exceptions import InvalidSpecError, KTooLargeError, NumericalError
from ppca.montecarlo import Scenario, run_monte_carlo, run_replication


SMALL = Scenario(
    design="design2",
    p_grid=(40, 60),
    t_grid=(10,),
    methods=("projected_pca", "regular_pca", "sieve_ls_known_factors"),
    n_reps=3,
    seed=123,
)
SELECT_K = replace(SMALL, methods=("select_k_projected", "select_k_plain"))


class TestScenario:
    def test_json_round_trip(self):
        obj = SMALL.to_dict()
        # the key order is the benchmark manifest's
        assert list(obj) == ["design", "p_grid", "T_grid", "methods", "n_reps", "seed"]
        assert Scenario.from_dict(obj) == SMALL

    def test_unknown_key_rejected(self):
        obj = {**SMALL.to_dict(), "bogus": 1}
        with pytest.raises(InvalidSpecError):
            Scenario.from_dict(obj)

    def test_zero_reps_rejected(self):
        with pytest.raises(InvalidSpecError):
            Scenario(n_reps=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidSpecError):
            Scenario(methods=("projected_pca", "nope"))

    def test_unknown_design_rejected(self):
        with pytest.raises(InvalidSpecError):
            Scenario(design="design9")

    @pytest.mark.parametrize("design, p_ok, p_bad, T_ok, T_bad", [
        # design 2 draws p >= 4 and T >= 3, and at p = 5 its J = 4 basis has 5 columns;
        # the calibrated design's J = 4 basis has 4 * 4 + 1 = 17 columns; a fit of
        # K = 3 factors needs T >= 4
        ("design2", 6, 5, 4, 2),
        ("calibrated", 18, 17, 4, 2),
    ])
    def test_cells_the_design_cannot_draw_rejected(self, design, p_ok, p_bad, T_ok, T_bad):
        Scenario(design=design, p_grid=(p_ok,), t_grid=(T_ok,))
        for p, T in ((p_bad, T_ok), (p_ok, T_bad)):
            with pytest.raises(InvalidSpecError, match=f"p={p}"):
                Scenario(design=design, p_grid=(p,), t_grid=(T,))


class TestSieveDimension:
    def test_cap_binds_for_small_p(self):
        # at small p the growth rule exceeds what p rows can support
        assert default_J(10, 1000, 1) == (10 - 2) // 1 - 1
        assert default_J(60, 1000, 4) == (60 - 2) // 4 - 1

    def test_floor_of_four(self):
        # the cap (p - 2)//d - 1 = 1 falls below the floor of 4
        assert default_J(50, 10, 24) == 4


class TestRunReplication:
    def test_deterministic(self):
        a = run_replication(SMALL, 40, 10, rep=0)
        b = run_replication(SMALL, 40, 10, rep=0)
        assert a["metrics"] == b["metrics"]

    def test_reps_differ(self):
        a = run_replication(SMALL, 40, 10, rep=0)
        b = run_replication(SMALL, 40, 10, rep=1)
        assert a["metrics"] != b["metrics"]

    def test_metric_keys(self):
        rec = run_replication(SMALL, 40, 10, rep=0)
        methods = {m for m, _ in rec["metrics"]}
        assert methods == set(SMALL.methods)
        assert ("projected_pca", "gamma_fro") in rec["metrics"]
        assert all(v >= 0 for v in rec["metrics"].values())
        got = run_replication(SELECT_K, 40, 10, rep=0)["metrics"]
        assert set(got) == {(m, n) for m in SELECT_K.methods for n in ("k_hit", "k_abs_err")}
        for m in SELECT_K.methods:  # k_hit is 1.0 exactly when K_hat = K, else 0.0
            assert got[m, "k_hit"] == (got[m, "k_abs_err"] == 0)


class TestRunMonteCarlo:
    def test_serial_parallel_identical(self):
        serial = run_monte_carlo(SMALL, n_jobs=1)
        parallel = run_monte_carlo(SMALL, n_jobs=3)
        assert serial.aggregate == parallel.aggregate
        assert not serial.failures

    def test_workers_capped_at_task_count(self, monkeypatch):
        # a fork pool starts all max_workers processes at the first submit
        import concurrent.futures

        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        one, two = replace(SMALL, p_grid=(40,), n_reps=1), replace(SMALL, p_grid=(40,), n_reps=2)
        assert run_monte_carlo(one, n_jobs=3).aggregate == run_monte_carlo(one).aggregate
        assert run_monte_carlo(two, n_jobs=3).aggregate == run_monte_carlo(two).aggregate
        assert started == [2]

    def test_aggregate_schema(self):
        res = run_monte_carlo(SMALL, n_jobs=1)
        for row in res.aggregate:
            assert set(row) == {
                "design", "p", "T", "method", "metric", "mean", "sd", "n", "n_failed",
            }
            assert row["n"] == SMALL.n_reps
            assert row["n_failed"] == 0
        # every (p, method-metric) cell is present
        cells = {(r["p"], r["method"], r["metric"]) for r in res.aggregate}
        assert (40, "projected_pca", "factor_fro") in cells
        assert (60, "regular_pca", "lambda_max") in cells

    def test_failure_records_exception_type(self, monkeypatch):
        def fail(scenario, p, T, rep):
            raise KTooLargeError("injected")

        monkeypatch.setattr(montecarlo, "run_replication", fail)
        res = run_monte_carlo(replace(SMALL, p_grid=(40,), n_reps=1))
        assert [(f["p"], f["type"], f["error"]) for f in res.failures] == [
            (40, "KTooLargeError", "injected")]

    def test_failures_counted_per_cell(self, monkeypatch):
        def flaky(scenario, p, T, rep):
            if p == 40 and rep > 0:
                raise NumericalError("injected")
            return run_replication(scenario, p, T, rep)

        monkeypatch.setattr(montecarlo, "run_replication", flaky)
        res = run_monte_carlo(SMALL)
        assert len(res.failures) == SMALL.n_reps - 1
        assert {(r["p"], r["n"], r["n_failed"]) for r in res.aggregate} == {
            (40, 1, SMALL.n_reps - 1), (60, SMALL.n_reps, 0)}
        # a cell whose every replication fails keeps one all_failed row per
        # method instead of vanishing from the table
        def dead(scenario, p, T, rep):
            if p == 60:
                raise NumericalError("injected")
            return flaky(scenario, p, T, rep)

        monkeypatch.setattr(montecarlo, "run_replication", dead)
        res = run_monte_carlo(SMALL)
        failed = [r for r in res.aggregate if r["p"] == 60]
        assert [(r["method"], r["metric"], r["n"], r["n_failed"]) for r in failed] == [
            (m, "all_failed", 0, SMALL.n_reps) for m in sorted(SMALL.methods)]
        assert all(math.isnan(r["mean"]) and math.isnan(r["sd"]) for r in failed)
        kept = {(r["n"], r["n_failed"]) for r in res.aggregate if r["p"] == 40}
        assert kept == {(1, SMALL.n_reps - 1)}

    def test_cell_mean_lookup(self, cell_mean):
        res = run_monte_carlo(SMALL, n_jobs=1)
        val = cell_mean(res, 40, 10, "projected_pca", "factor_fro")
        assert val > 0
        with pytest.raises(KeyError):
            cell_mean(res, 999, 10, "projected_pca", "factor_fro")

    def test_mean_matches_raw(self, cell_mean):
        res = run_monte_carlo(SMALL, n_jobs=1)
        vals = [
            r["metrics"][("projected_pca", "factor_fro")]
            for r in res.raw
            if r["p"] == 40
        ]
        assert cell_mean(res, 40, 10, "projected_pca", "factor_fro") == pytest.approx(
            sum(vals) / len(vals)
        )
