import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_profile.py"


def _tool():
    spec = importlib.util.spec_from_file_location("stage_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_one_json_line_with_every_stage(capsys):
    svd, eigh = np.linalg.svd, np.linalg.eigh
    _tool().main(["--design", "design2", "--p", "120", "--T", "15", "--J", "auto", "--repeat", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["p"], record["T"], record["m"], record["K"]) == (120, 15, 20, 3)
    assert set(record["ms"]) == {"generate", "basis", "projector", "select_k", "fit_projected",
                                 "fit_regular", "test_g", "test_gamma"}
    assert all(ms > 0 for ms in record["ms"].values())
    assert record["projector_path"] == "cholesky" and record["peak_over_y"] > 0
    assert record["fit_regular_path"] == "certified"
    assert {"nproc", "numpy", "blas", "OPENBLAS_NUM_THREADS"} <= record["environment"].keys()
    assert np.linalg.svd is svd and np.linalg.eigh is eigh  # the path spies are taken down


@pytest.mark.parametrize("T", [15, 60])
def test_reports_the_regular_fit_fallback(capsys, monkeypatch, T):
    # with no subspace steps allowed the regular fit falls back: to the T x T Gram's eigh at
    # T < p, and to the p x p Gram (_small_gram_pairs) at T >= p
    monkeypatch.setattr("ppca.estimator.TOP_EIGH_MAX_STEPS", 0)
    _tool().main(["--design", "design2", "--p", "40", "--T", str(T), "--J", "4", "--repeat", "1"])
    assert json.loads(capsys.readouterr().out)["fit_regular_path"] == "eigh"

