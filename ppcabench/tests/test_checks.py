"""Each output check passes on ppca's output and fails on a corrupted copy.

    python3 -m pytest ppcabench/tests -q
"""

import dataclasses

import numpy as np
import pytest

import checks
from ppca import basis, estimator, inference, montecarlo, projection, simulate


@pytest.fixture(scope="module")
def fitted():
    panel = simulate.gen_design2(400, 40, seed=5)
    data = panel.data
    b = basis.build_basis(data.x, basis.BasisSpec())
    proj = projection.make_projector(b)
    k = inference.select_k(data.y, proj, b.m).k_hat
    fit = estimator.fit_projected_pca(data, proj, k)
    out = {"y": data.y, "k_hat": k, "f_hat": fit.f_hat, "g_hat": fit.g_hat,
           "gamma_hat": fit.gamma_hat, "eigvals": fit.eigvals,
           "s_g": inference.test_g_zero(data, proj, k).statistic,
           "s_gamma": inference.test_gamma_zero(data, proj, k).statistic,
           "p_g": inference.test_g_zero(data, proj, k).p_value_normal,
           "oracle": checks.PanelOracle(data.y, data.x, K=3), "f_true": panel.f_true,
           "truth_bound": 0.3}
    return out


def flip_one(f):
    """The factor matrix with the sign of its largest entry flipped."""
    f = f.copy()
    f[np.unravel_index(np.argmax(np.abs(f)), f.shape)] *= -1
    return f


def test_honest_output_passes(fitted):
    checks.check_panel_fit(**fitted)


@pytest.mark.parametrize("field,corrupt", [
    ("k_hat", lambda k: k - 1),
    ("f_hat", flip_one),
    ("f_hat", lambda f: f[:, [1, 0, 2]]),
    ("g_hat", lambda g: g * 1.001),
    ("gamma_hat", lambda g: g + 1e-3),
    ("eigvals", lambda e: e * (1 + 1e-4)),
    ("s_g", lambda s: s * (1 + 1e-4)),
    ("s_gamma", lambda s: s * (1 - 1e-4)),
    ("p_g", lambda p: 0.2),
])
def test_corrupted_output_fails(fitted, field, corrupt):
    bad = {**fitted, field: corrupt(fitted[field])}
    with pytest.raises(checks.CheckFailed):
        checks.check_panel_fit(**bad)


def test_each_fit_check_fails_alone(fitted):
    f = fitted
    cases = [
        lambda: checks.check_factor_count(2, 3),
        lambda: checks.check_eigen_equation(f["y"], f["g_hat"], flip_one(f["f_hat"]), f["eigvals"]),
        lambda: checks.check_normalisation(flip_one(f["f_hat"]), f["g_hat"], f["gamma_hat"]),
        lambda: checks.check_normalisation(f["f_hat"], f["g_hat"], f["gamma_hat"] + f["g_hat"] * 1e-3),
        lambda: checks.check_oracle_factors(flip_one(f["f_hat"]), f["eigvals"], f["oracle"]),
        lambda: checks.check_oracle_factors(f["f_hat"], f["eigvals"] * 1.001, f["oracle"]),
        lambda: checks.check_truth_error(f["f_hat"][:, [1, 0, 2]], f["f_true"], 0.3),
        lambda: checks.check_statistic("S_G", f["s_g"] * (1 + 1e-5), f["oracle"].s_g),
        lambda: checks.check_statistic("S_Gamma", f["s_gamma"] * (1 + 1e-5), f["oracle"].s_gamma),
        lambda: checks.check_g_test_rejects(0.01),
    ]
    for case in cases:
        with pytest.raises(checks.CheckFailed):
            case()


@pytest.fixture(scope="module")
def replication():
    scenario = montecarlo.Scenario(design="calibrated", p_grid=(120,), t_grid=(20,),
                                   methods=montecarlo.METHODS, n_reps=1, seed=3)
    record = montecarlo.run_replication(scenario, 120, 20, 0)
    panel = simulate.gen_calibrated(120, 20, rng=np.random.default_rng([3, 120, 20, 0]))
    expected = checks.replication_metrics(panel.data.y, panel.data.x, panel.f_true,
                                          panel.g_true, panel.gamma_true, record["J"], 3)
    return scenario, record, expected


def test_replication_matches_numpy(replication):
    scenario, record, expected = replication
    assert record["J"] == checks.sieve_j(120, 20, 4)
    checks.check_replication(record, expected)


def test_replication_check_fails_on_perturbed_metric(replication):
    _, record, expected = replication
    key = ("projected_pca", "factor_fro")
    bad = {**record, "metrics": {**record["metrics"], key: record["metrics"][key] * 1.0001}}
    with pytest.raises(checks.CheckFailed):
        checks.check_replication(bad, expected)
    missing = {**record, "metrics": {k: v for k, v in record["metrics"].items() if k != key}}
    with pytest.raises(checks.CheckFailed):
        checks.check_replication(missing, expected)


def test_study_checks_fail_on_bad_results(replication):
    scenario, record, _ = replication
    ok = montecarlo.MonteCarloResult(scenario=scenario, raw=[record])
    checks.check_study(ok, scenario)
    with pytest.raises(checks.CheckFailed):
        checks.check_study(dataclasses.replace(ok, failures=[{"error": "x"}]), scenario)
    with pytest.raises(checks.CheckFailed):
        checks.check_study(dataclasses.replace(ok, raw=[record, record]), scenario)
    checks.check_same("record", record, dict(record))
    other = {**record, "metrics": {**record["metrics"], ("regular_pca", "lambda_max"): 0.0}}
    with pytest.raises(checks.CheckFailed):
        checks.check_same("record", record, other)
