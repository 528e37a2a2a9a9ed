"""File formats: full-precision CSV matrices, JSON files, run manifests, result bundles.

Numbers are written with Python's shortest round-trip representation so
an export/import cycle reproduces every matrix bit for bit, which is
what makes the reproducibility guarantees of the CLI checkable.
"""

from __future__ import annotations

import datetime
import itertools
import json
import numbers
import re
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import InputError, InvalidSpecError


_BLOCK_CELLS = 1 << 13  # cells formatted per write: about 160 kB of float text


def write_csv(path, header, rows) -> None:
    """The one CSV writer: an optional header, then each row's cells joined by ``,``.

    Cells go through ``str``, which gives a Python float its shortest
    round-trip digits.  Rows are formatted and written in blocks of about
    ``_BLOCK_CELLS`` cells, so the file's text is never held whole.
    """
    with Path(path).open("w") as f:
        wrote = header is not None
        if wrote:
            f.write(",".join(header) + "\n")
        block, cells = [], 0
        for row in rows:
            block.append(",".join(map(str, row)) + "\n")
            cells += len(row)
            if cells >= _BLOCK_CELLS:
                f.write("".join(block))
                block, cells, wrote = [], 0, True
        if block or not wrote:  # a file of no lines is one newline
            f.write("".join(block) or "\n")


def write_matrix(path, M: np.ndarray, header=None) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if header is not None and len(header) != M.shape[1]:
        raise InputError("header length does not match column count")
    step = max(1, _BLOCK_CELLS // max(1, M.shape[1]))
    # only one block of rows is ever converted to Python floats
    write_csv(path, header, (row for lo in range(0, len(M), step) for row in M[lo:lo + step].tolist()))


def _read_text(path: Path, encoding: str) -> str:
    """The text of ``path``; a missing or undecodable file raises ``InputError`` naming it."""
    try:
        return path.read_text(encoding=encoding)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not {encoding} text: {exc}") from exc


def _stripped_lines(f):
    """The lines of ``f.read().strip().splitlines()``, read one at a time."""
    held, blank = None, []  # the last line with content; whitespace-only lines after it
    for segment in f:
        for line in segment.splitlines():
            if not line or line.isspace():
                if held is not None:
                    blank.append(line)
                continue
            if held is None:
                line = line.lstrip()
            else:
                yield held
                yield from blank
                blank.clear()
            held = line
    if held is not None:
        yield held.rstrip()


def _checked_rows(path: Path, lines, width: int):
    """``lines`` passed through, each checked to hold ``width`` fields."""
    for i, line in enumerate(lines):
        n = line.count(",") + 1 if line else 0  # np.loadtxt would skip an empty row
        if n != width:
            raise InputError(f"{path}: row {i + 1} has {n} fields, expected {width}")
        yield line


def _parse_lines(path: Path, lines):
    """``(matrix, header_or_None)`` from a file's stripped lines."""
    first = next(lines, None)
    if first is None:
        raise InputError(f"empty file: {path}")
    header = None
    cells = first.split(",")
    try:
        [float(v) for v in cells]
    except ValueError:
        header = [h.strip() for h in cells]
        first = next(lines, None)
        if first is None:
            raise InputError(f"{path}: header but no data rows")
    rows = _checked_rows(path, itertools.chain([first], lines), first.count(",") + 1)
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2), header
    except UnicodeDecodeError:  # a ValueError too, but read_matrix words it
        raise
    except ValueError as exc:
        for _ in rows:  # a row of the wrong width anywhere is reported first
            pass
        # numpy counts rows from 0
        msg = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + 1}", str(exc))
        raise InputError(f"{path}: {msg}") from exc


def read_matrix(path):
    """Read a CSV matrix, tolerating an optional single header row.

    Returns ``(matrix, header_or_None)``.  Cells are parsed by ``np.loadtxt``,
    which, unlike ``float()``, rejects digit separators (``1_0``) and
    non-ASCII digits.  Errors count rows from 1 after the header.  The file
    streams line by line into the parser, which reads it as the lines of its
    stripped text: only the parsed array is ever held whole.
    """
    path = Path(path)
    try:
        # utf-8-sig: a BOM would make row 1 a header; newline="\n" ends each read at a
        # "\n" only, so str.splitlines sees every "\r\n" whole
        with path.open(encoding="utf-8-sig", newline="\n") as f:
            try:
                return _parse_lines(path, _stripped_lines(f))
            except InputError:
                for _ in f:  # an undecodable byte anywhere is reported first
                    pass
                raise
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except UnicodeDecodeError:
        _read_text(path, "utf-8-sig")  # its error gives the byte's offset in the whole file
        raise


def read_json_object(path) -> dict:
    """Read a JSON config or spec file that must hold one object; errors name the file."""
    path = Path(path)
    try:
        obj = json.loads(_read_text(path, "utf-8"))
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
    with Path(path).open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
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
    """A projected-PCA FitResult as a directory of CSVs plus a JSON summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    K = fit.f_hat.shape[1]
    write_matrix(out / "factors.csv", fit.f_hat, header=[f"f{k + 1}" for k in range(K)])
    write_matrix(out / "loadings_g.csv", fit.g_hat)
    write_matrix(out / "loadings_gamma.csv", fit.gamma_hat)
    write_matrix(out / "loadings_lambda.csv", fit.lambda_hat)
    write_matrix(out / "coefficients.csv", fit.b_hat)
    summary = {
        "K": K,
        "m": m,
        "eigenvalues": [float(v) for v in fit.eigvals],
        "method": "projected_pca",
        "spec": basis_spec,
    }
    write_json(out / "fit.json", summary)


def write_aggregate_csv(path, rows) -> None:
    cols = ["design", "p", "T", "method", "metric", "mean", "sd", "n", "n_failed"]
    write_csv(path, cols, ([row[c] for c in cols] for row in rows))


def write_raw_errors_csv(path, raw_records) -> None:
    write_csv(
        path,
        ["p", "T", "rep", "J", "method", "metric", "value"],
        (
            [rec["p"], rec["T"], rec["rep"], rec["J"], method, metric, value]
            for rec in raw_records
            for (method, metric), value in sorted(rec["metrics"].items())
        ),
    )
