from dataclasses import replace

import pytest

from ppca.exceptions import InvalidSpecError
from ppca.montecarlo import (
    MonteCarloResult,
    Scenario,
    cell_mean,
    run_monte_carlo,
    run_replication,
    sieve_dimension,
)


SMALL = Scenario(
    design="design2",
    p_grid=(40, 60),
    t_grid=(10,),
    k=3,
    methods=("projected_pca", "regular_pca", "sieve_ls_known_factors"),
    n_reps=3,
    seed=123,
)
SELECT_K = replace(SMALL, methods=("select_k_projected", "select_k_plain"))


class TestScenario:
    def test_json_round_trip(self):
        obj = SMALL.to_dict()
        assert set(obj) == {"design", "p_grid", "T_grid", "K", "J_rule", "methods",
                            "n_reps", "seed", "basis_family"}
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

    def test_j_rule_round_trip(self):
        s = Scenario(j_c=2.5, j_kappa=5.0)
        assert Scenario.from_dict(s.to_dict()) == s


class TestSieveDimension:
    def test_cap_binds_for_small_p(self):
        # at small p the growth rule exceeds what p rows can support
        s = Scenario()
        J = sieve_dimension(s, p=10, T=1000, d=1)
        assert J == (10 - 2) // 1 - 1

    def test_floor_of_four(self):
        s = Scenario(j_c=0.1)
        assert sieve_dimension(s, p=50, T=10, d=1) == 4


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

    def test_failure_records_exception_type(self):
        res = run_monte_carlo(replace(SMALL, p_grid=(3,), n_reps=1))
        assert [(f["p"], f["type"]) for f in res.failures] == [(3, "InvalidSpecError")]

    def test_cell_mean_lookup(self):
        res = run_monte_carlo(SMALL, n_jobs=1)
        val = cell_mean(res, 40, 10, "projected_pca", "factor_fro")
        assert val > 0
        with pytest.raises(Exception):
            cell_mean(res, 999, 10, "projected_pca", "factor_fro")

    def test_mean_matches_raw(self):
        res = run_monte_carlo(SMALL, n_jobs=1)
        vals = [
            r["metrics"][("projected_pca", "factor_fro")]
            for r in res.raw
            if r["p"] == 40
        ]
        assert cell_mean(res, 40, 10, "projected_pca", "factor_fro") == pytest.approx(
            sum(vals) / len(vals)
        )
