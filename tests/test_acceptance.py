"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing pytest capture) so the
overall run shows a one-line verdict per criterion.
"""

import sys
import time
import warnings

import numpy as np
import pytest

import ppca
from ppca.dataio import write_aggregate_csv, write_raw_errors_csv
from ppca.montecarlo import Scenario, run_monte_carlo
from ppca.simulate import FACTOR_VAR_A, simulate_var


@pytest.fixture
def report(request):
    """Per-criterion verdict printer that bypasses output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(n: int, desc: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"\n[{verdict}] criterion {n}: {desc}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, file=sys.__stdout__, flush=True)

    return _report


def test_criterion_1_closed_form_oracle(report):
    rng = np.random.default_rng(0)
    p, T = 60, 20
    y = rng.standard_normal((p, T))
    data = ppca.PanelData(y=y, x=rng.standard_normal((p, 1)))
    P = ppca.make_projector(np.ones((p, 1)))
    t0 = time.perf_counter()
    fit = ppca.fit_projected_pca(data, P, 1)
    elapsed = time.perf_counter() - t0
    ybar = y.mean(axis=0)
    target_f = np.sqrt(T) * ybar / np.linalg.norm(ybar)
    sign = np.sign(fit.f_hat[:, 0] @ target_f)
    dev_f = np.abs(sign * fit.f_hat[:, 0] - target_f).max()
    target_g = np.linalg.norm(ybar) / np.sqrt(T) * np.ones(p)
    dev_g = np.abs(sign * fit.g_hat[:, 0] - target_g).max()
    ok = dev_f < 1e-10 and dev_g < 1e-10 and elapsed < 1.0
    report(1, f"closed-form constant-basis oracle (max dev {max(dev_f, dev_g):.2e})", ok)
    assert ok


def test_criterion_2_algebraic_invariants(report, equivalence_error):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = {"idem": 0.0, "orth": 0.0, "annihil": 0.0, "split": 0.0,
             "equiv": 0.0, "rot": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            p = int(rng.integers(30, 201))
            T = int(rng.integers(8, 51))
            y = rng.standard_normal((p, T))
            x = rng.standard_normal((p, 1))
            data = ppca.PanelData(y=y, x=x)
            basis = ppca.build_basis(x, ppca.BasisSpec(J=5))
            P = ppca.make_projector(basis)
            K = 2
            fit = ppca.fit_projected_pca(data, P, K)
            # idempotency probe on a random vector
            v = rng.standard_normal(p)
            pv = P.project(v)
            worst["idem"] = max(worst["idem"],
                                np.abs(P.project(pv) - pv).max())
            worst["orth"] = max(worst["orth"],
                                np.abs(fit.f_hat.T @ fit.f_hat / T - np.eye(K)).max())
            worst["annihil"] = max(
                worst["annihil"],
                np.abs(basis.values.T @ fit.gamma_hat).max() / np.linalg.norm(y),
            )
            worst["split"] = max(
                worst["split"],
                np.abs(fit.lambda_hat - (fit.g_hat + fit.gamma_hat)).max(),
            )
            worst["equiv"] = max(worst["equiv"],
                                 equivalence_error(data, P, K, fit=fit))
            r_mat = rng.standard_normal((basis.m, basis.m)) + 4 * np.eye(basis.m)
            fit2 = ppca.fit_projected_pca(
                data, ppca.make_projector(basis.values @ r_mat), K
            )
            worst["rot"] = max(
                worst["rot"],
                np.abs(fit.f_hat - fit2.f_hat).max(),
                np.abs(fit.g_hat - fit2.g_hat).max(),
                np.abs(fit.gamma_hat - fit2.gamma_hat).max(),
            )
    elapsed = time.perf_counter() - t0
    ok = (worst["idem"] < 1e-10 and worst["orth"] < 1e-8
          and worst["annihil"] < 1e-8 and worst["split"] == 0.0
          and worst["equiv"] < 1e-8 and worst["rot"] < 1e-8
          and elapsed < 30.0)
    report(2, f"algebraic invariants on 50 instances (worst {max(worst.values()):.2e})", ok)
    assert ok


def test_criterion_3_exact_recovery(report, aligned_max_error):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(10):
        K = case % 3 + 1
        p = int(rng.integers(40, 120))
        T = int(rng.integers(10, 30))
        x = rng.standard_normal((p, 1))
        basis = ppca.build_basis(x, ppca.BasisSpec(J=6))
        g_raw = basis.values @ rng.standard_normal((basis.m, K))
        f_raw = rng.standard_normal((T, K))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f0, g0, _ = ppca.identification_transform(f_raw, g_raw)
            data = ppca.PanelData(y=g0 @ f0.T, x=x)
            fit = ppca.fit_projected_pca(data, ppca.make_projector(basis), K)
        worst = max(worst, aligned_max_error(fit.f_hat, f0), aligned_max_error(fit.g_hat, g0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report(3, f"noiseless identified recovery, 10 cases (worst {worst:.2e})", ok)
    assert ok


def test_criterion_4_factor_count_recovery(report, cell_mean):
    t0 = time.perf_counter()
    wide = run_monte_carlo(Scenario(
        p_grid=(300,), t_grid=(50,), methods=("select_k_projected",),
        n_reps=50, seed=7), n_jobs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        short = run_monte_carlo(Scenario(
            p_grid=(200,), t_grid=(10,),
            methods=("select_k_projected", "select_k_plain"),
            n_reps=50, seed=8), n_jobs=1)
    elapsed = time.perf_counter() - t0
    hit_rate = cell_mean(wide, 300, 50, "select_k_projected", "k_hit")
    dev_proj = cell_mean(short, 200, 10, "select_k_projected", "k_abs_err")
    dev_plain = cell_mean(short, 200, 10, "select_k_plain", "k_abs_err")
    ok = (not wide.failures and not short.failures
          and hit_rate >= 0.95 and dev_proj < dev_plain and elapsed < 300.0)
    report(4, f"factor-count recovery (hit rate {hit_rate:.2f}; "
               f"mean |K_hat-3| projected {dev_proj:.2f} "
               f"vs plain {dev_plain:.2f})", ok)
    assert ok


@pytest.fixture(scope="module")
def convergence_study():
    scenario = Scenario(
        design="design2",
        p_grid=(50, 100, 200, 400),
        t_grid=(10,),
        methods=("projected_pca", "regular_pca", "sieve_ls_known_factors"),
        n_reps=100,
        seed=42,
    )
    t0 = time.perf_counter()
    result = run_monte_carlo(scenario)
    return result, time.perf_counter() - t0


def test_criterion_5_convergence_ordering(convergence_study, report, cell_mean):
    result, elapsed = convergence_study
    ps = [50, 100, 200, 400]
    err_proj = [cell_mean(result, p, 10, "projected_pca", "factor_fro") for p in ps]
    err_reg = [cell_mean(result, p, 10, "regular_pca", "factor_fro") for p in ps]
    slope = float(np.polyfit(np.log(ps), np.log(err_proj), 1)[0])
    ok = (all(a > b for a, b in zip(err_proj, err_proj[1:]))
          and all(a < b for a, b in zip(err_proj, err_reg))
          and -0.8 <= slope <= -0.2
          and not result.failures
          and elapsed < 900.0)
    report(5, f"convergence ordering (errors {[round(e, 3) for e in err_proj]}, "
               f"slope {slope:.2f})", ok)
    assert ok


def test_criterion_6_sieve_ls_comparison(convergence_study, report, cell_mean):
    result, _ = convergence_study
    g_proj = cell_mean(result, 400, 10, "projected_pca", "g_fro")
    g_sls = cell_mean(result, 400, 10, "sieve_ls_known_factors", "g_fro")
    gap = g_proj / g_sls - 1.0
    ok = gap <= 0.25
    report(6, f"loading error vs sieve-LS with known factors at p=400 "
               f"(relative gap {gap:+.1%})", ok)
    assert ok


def _gen_h1_null(p, T, rng):
    """Loadings independent of the covariates (covariates explain nothing)."""
    x = rng.standard_normal((p, 1))
    lam = rng.standard_normal((p, 3))
    f = simulate_var(FACTOR_VAR_A, np.eye(3), T, rng)
    u = rng.standard_normal((p, T))
    return ppca.PanelData(y=lam @ f.T + u, x=x)


def test_criterion_7_test_size_and_power(report):
    t0 = time.perf_counter()
    p, T, n = 300, 200, 500
    spec = ppca.BasisSpec(J=8)

    rej_g = 0
    for rep in range(n):
        rng = np.random.default_rng([11, rep])
        data = _gen_h1_null(p, T, rng)
        basis = ppca.build_basis(data.x, spec)
        P = ppca.make_projector(basis)
        rej_g += ppca.test_g_zero(data, P, 3).p_value_chisq < 0.05
    size_g = rej_g / n

    rej_gam = 0
    for rep in range(n):
        panel = ppca.gen_design2(p, T, seed=rep)
        basis = ppca.build_basis(panel.data.x, spec)
        P = ppca.make_projector(basis)
        rej_gam += ppca.test_gamma_zero(panel.data, P, 3).p_value_chisq < 0.05
    size_gam = rej_gam / n

    n_pow = 100
    pow_g = 0
    for rep in range(n_pow):
        panel = ppca.gen_design2(p, T, seed=10_000 + rep)
        basis = ppca.build_basis(panel.data.x, spec)
        P = ppca.make_projector(basis)
        pow_g += ppca.test_g_zero(panel.data, P, 3).p_value_chisq < 0.05
    power_g = pow_g / n_pow

    pow_gam = 0
    for rep in range(n_pow):
        rng = np.random.default_rng([13, rep])
        panel = ppca.gen_design2(p, T, rng=rng)
        gamma = rng.normal(0, 0.5, size=panel.g_true.shape)
        data = ppca.PanelData(y=panel.data.y + gamma @ panel.f_true.T,
                              x=panel.data.x)
        basis = ppca.build_basis(data.x, spec)
        P = ppca.make_projector(basis)
        pow_gam += ppca.test_gamma_zero(data, P, 3).p_value_chisq < 0.05
    power_gam = pow_gam / n_pow

    elapsed = time.perf_counter() - t0
    ok = (0.02 <= size_g <= 0.10 and 0.02 <= size_gam <= 0.10
          and power_g >= 0.9 and power_gam >= 0.9
          and elapsed < 1800.0)
    report(7, f"test size/power (sizes {size_g:.3f}/{size_gam:.3f}, "
               f"powers {power_g:.2f}/{power_gam:.2f})", ok)
    assert ok


def test_criterion_8_parallel_determinism(tmp_path, report):
    scenario = Scenario(
        design="design2",
        p_grid=(40, 60),
        t_grid=(10,),
        methods=("projected_pca", "regular_pca"),
        n_reps=4,
        seed=99,
    )
    outputs = []
    for n_jobs in (1, 2, 4):
        result = run_monte_carlo(scenario, n_jobs=n_jobs)
        agg = tmp_path / f"agg_{n_jobs}.csv"
        raw = tmp_path / f"raw_{n_jobs}.csv"
        write_aggregate_csv(agg, result.aggregate)
        write_raw_errors_csv(raw, result.raw)
        outputs.append((agg.read_bytes(), raw.read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    report(8, "byte-identical benchmark outputs across 1/2/4 threads", ok)
    assert ok
