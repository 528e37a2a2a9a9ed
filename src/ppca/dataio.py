"""File formats: full-precision CSV matrices, JSON files, run manifests, result bundles.

Numbers are written with Python's shortest round-trip representation so
an export/import cycle reproduces every matrix bit for bit, which is
what makes the reproducibility guarantees of the CLI checkable.
"""

from __future__ import annotations

import datetime
import json
import numbers
import re
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import InputError, InvalidSpecError


def _fmt(v: float) -> str:
    return repr(float(v))


def write_matrix(path, M: np.ndarray, header=None) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = []
    if header is not None:
        if len(header) != M.shape[1]:
            raise InputError("header length does not match column count")
        lines.append(",".join(header))
    lines.extend(",".join(map(repr, row)) for row in M.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path):
    """Read a CSV matrix, tolerating an optional single header row.

    Returns ``(matrix, header_or_None)``.  Cells are parsed by ``np.loadtxt``,
    which, unlike ``float()``, rejects digit separators (``1_0``) and
    non-ASCII digits.  Errors count rows from 1 after the header.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    text = path.read_text().strip()
    if not text:
        raise InputError(f"empty file: {path}")
    lines = text.splitlines()
    header = None
    first = lines[0].split(",")
    try:
        [float(v) for v in first]
    except ValueError:
        header = [h.strip() for h in first]
        lines = lines[1:]
        if not lines:
            raise InputError(f"{path}: header but no data rows")
    width = lines[0].count(",") + 1
    for i, line in enumerate(lines):
        n = line.count(",") + 1 if line else 0  # np.loadtxt would skip an empty row
        if n != width:
            raise InputError(f"{path}: row {i + 1} has {n} fields, expected {width}")
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2), header
    except ValueError as exc:
        # numpy counts rows from 0
        msg = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + 1}", str(exc))
        raise InputError(f"{path}: {msg}") from exc


def read_json_object(path) -> dict:
    """Read a JSON config or spec file that must hold one object; errors name the file."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: must hold a JSON object")
    return obj


def config_int(name: str, value, low: int) -> int:
    """A config value that must be an integer >= ``low``: a bool, float or string raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidSpecError(f"{name} must be >= {low}, got {value}")
    return int(value)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def sha256_file(path) -> str:
    import hashlib  # ~5 ms of OpenSSL; ``import ppca`` reaches this module for ``config_int``

    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(path, command: str, config: dict, seed, input_paths=()) -> dict:
    """Write the run manifest capturing everything needed to reproduce."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input_checksums": {
            str(p): sha256_file(p) for p in input_paths if Path(p).exists()
        },
    }
    write_json(path, manifest)
    return manifest


def write_fit_bundle(out_dir, fit, basis_spec: dict, m: int) -> None:
    """FitResult as a directory of CSVs plus a JSON summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    K = fit.k
    write_matrix(out / "factors.csv", fit.f_hat, header=[f"f{k + 1}" for k in range(K)])
    if fit.g_hat is not None:
        write_matrix(out / "loadings_g.csv", fit.g_hat)
    if fit.gamma_hat is not None:
        write_matrix(out / "loadings_gamma.csv", fit.gamma_hat)
    write_matrix(out / "loadings_lambda.csv", fit.lambda_hat)
    if fit.b_hat is not None:
        write_matrix(out / "coefficients.csv", fit.b_hat)
    summary = {
        "K": K,
        "m": m,
        "eigenvalues": [float(v) for v in fit.eigvals],
        "method": fit.method,
        "spec": basis_spec,
    }
    write_json(out / "fit.json", summary)


def write_aggregate_csv(path, rows) -> None:
    cols = ["design", "p", "T", "method", "metric", "mean", "sd", "n", "n_failed"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(
            ",".join(
                _fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                for c in cols
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_raw_errors_csv(path, raw_records) -> None:
    lines = ["p,T,rep,J,method,metric,value"]
    for rec in raw_records:
        for (method, metric), value in sorted(rec["metrics"].items()):
            lines.append(
                f"{rec['p']},{rec['T']},{rec['rep']},{rec['J']},"
                f"{method},{metric},{_fmt(value)}"
            )
    Path(path).write_text("\n".join(lines) + "\n")
