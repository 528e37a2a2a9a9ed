"""A fresh CLI run compared with the committed reference run, ``reference_run.json``.

Design 2 and the calibrated design at (p, T) = (40, 10), seed 1, go through
``simulate`` -> ``fit --k auto`` -> ``test --which both``, plus a two-replication
``benchmark`` per design.  Every output is kept except the manifests and
``loadings_lambda.csv`` (the sum of the two loading files); ``curves.csv`` keeps every
``CURVE_STRIDE``-th row, and the file stores floats to 14 significant digits so it stays
under 50 KB.  Integers and strings must match exactly, floats to 1e-12 relative.  A
change that means to move a number regenerates the file with

    PYTHONPATH=src python tests/test_reference.py
"""

import json
import math
import tempfile
from pathlib import Path

from ppca.cli import main

REFERENCE = Path(__file__).with_name("reference_run.json")
CURVE_STRIDE = 20
METHODS = ["projected_pca", "regular_pca", "sieve_ls_known_factors",
           "select_k_projected", "select_k_plain"]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    rows = [[_cell(c) for c in line.split(",")] for line in path.read_text().splitlines()]
    return rows[:1] + rows[1::CURVE_STRIDE] if path.name == "curves.csv" else rows


def reference_run(tmp) -> dict:
    """Every non-manifest output of the reference commands, keyed design/step/file."""
    outputs = {}
    for design in ("design2", "calibrated"):
        d = Path(tmp, design)
        d.mkdir()
        (d / "sim.json").write_text(json.dumps({"design": design, "p": 40, "T": 10, "seed": 1}))
        (d / "bench.json").write_text(json.dumps({
            "design": design, "p_grid": [40], "T_grid": [10], "methods": METHODS,
            "n_reps": 2, "seed": 1}))
        panel = ["--data", str(d / "sim" / "Y.csv"), "--covariates", str(d / "sim" / "X.csv"),
                 "--k", "auto"]
        for argv in (["simulate", "--scenario", str(d / "sim.json"), "--out", str(d / "sim")],
                     ["fit", *panel, "--out", str(d / "fit")],
                     ["test", *panel, "--which", "both", "--out", str(d / "test" / "results.json")],
                     ["benchmark", "--scenario", str(d / "bench.json"), "--out", str(d / "bench")]):
            assert main(argv) == 0, argv
        for path in sorted(d.glob("*/*")):
            if "manifest" not in path.name and path.name != "loadings_lambda.csv":
                outputs[f"{design}/{path.parent.name}/{path.name}"] = _read(path)
    return outputs


def _rounded(v):
    if isinstance(v, float):
        return float(f"{v:.14g}")
    if isinstance(v, list):
        return [_rounded(x) for x in v]
    return {k: _rounded(x) for k, x in v.items()} if isinstance(v, dict) else v


def _mismatches(ref, new, where=""):
    if type(ref) is not type(new):
        return [f"{where}: {ref!r} != {new!r}"]
    if isinstance(ref, dict):
        if ref.keys() != new.keys():
            return [f"{where}: keys {sorted(ref)} != {sorted(new)}"]
        return [m for k in ref for m in _mismatches(ref[k], new[k], f"{where}/{k}")]
    if isinstance(ref, list):
        if len(ref) != len(new):
            return [f"{where}: length {len(ref)} != {len(new)}"]
        return [m for i, (a, b) in enumerate(zip(ref, new)) for m in _mismatches(a, b, f"{where}[{i}]")]
    if isinstance(ref, float):
        same = math.isclose(ref, new, rel_tol=1e-12, abs_tol=0.0) or (ref != ref and new != new)
    else:
        same = ref == new
    return [] if same else [f"{where}: {ref!r} != {new!r}"]


def test_fresh_run_matches_reference(tmp_path, monkeypatch):
    monkeypatch.delenv("PPCA_SEED", raising=False)
    bad = _mismatches(json.loads(REFERENCE.read_text()), reference_run(tmp_path))
    assert not bad, f"{len(bad)} outputs differ, first: " + "; ".join(bad[:10])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run = reference_run(tmp)
    lines = (f"{json.dumps(k)}:{json.dumps(_rounded(v), separators=(',', ':'))}"
             for k, v in run.items())
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
