"""Spans around calls into the ppca layers, and per-layer metrics from them.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory and written out once, when the run ends.  A span is
named after the layer and the function it times (``inference.test_g_zero``).

Instrumentation replaces the public functions listed in ``INSTRUMENTED``
with timing wrappers, in every loaded ``ppca`` module that binds them, so
calls made inside the package (``test_g_zero`` calling
``fit_regular_pca``) become child spans.  Nothing under ``src/`` changes,
and untraced runs never install the wrappers.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans written by child processes share the parent's
time base and nest under the parent span that started the process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

INSTRUMENTED = {
    "basis": ("build_basis",),
    "projection": ("make_projector",),
    "estimator": ("fit_projected_pca", "fit_regular_pca"),
    "inference": ("select_k", "test_g_zero", "test_gamma_zero"),
    "simulate": ("gen_design2", "gen_calibrated", "make_sparse_error_cov"),
    "dataio": ("read_matrix", "write_matrix", "write_fit_bundle"),
    "montecarlo": ("run_monte_carlo", "run_replication"),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, workload: str = "", id_prefix: str = ""):
        self.workload = workload
        self.op_id = None
        self.root_parent = None
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self.enabled = True
        self._patched: list = []
        self._prefix = id_prefix or f"{os.getpid()}-"
        self._next = 0

    @contextmanager
    def muted(self):
        """Calls inside run untraced (checks whose spans would skew medians)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str, **attrs):
        sid = f"{self._prefix}{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else self.root_parent
        record = {"id": sid, "name": name, "parent": parent, "op": self.op_id,
                  "workload": self.workload, **attrs}
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def instrument(self) -> None:
        """Wrap every function in ``INSTRUMENTED`` wherever ppca binds it."""
        for module, names in INSTRUMENTED.items():
            mod = importlib.import_module(f"ppca.{module}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{module}.{fname}", orig)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").split(".")[0] != "ppca":
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is orig:
                            setattr(loaded, attr, wrapped)
                            self._patched.append((loaded, attr, orig))

    def restore(self) -> None:
        """Undo ``instrument``."""
        for loaded, attr, orig in reversed(self._patched):
            setattr(loaded, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, **_call_attrs(name, args, kwargs)) as record:
                out = fn(*args, **kwargs)
            if name.startswith("dataio.") and record.get("file"):
                record["bytes"] = Path(args[0]).stat().st_size
            return out

        return wrapper

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans) + "\n")


def _call_attrs(name: str, args, kwargs) -> dict:
    """Attributes the per-layer metrics filter on: file name and panel p."""
    if name in ("dataio.read_matrix", "dataio.write_matrix"):
        return {"file": Path(args[0]).name}
    if name.startswith("simulate."):
        return {"p": int(args[0] if args else kwargs["p"])}
    if name == "montecarlo.run_replication":
        return {"p": int(args[1])}
    if name == "montecarlo.run_monte_carlo":
        scen = args[0]
        return {"n_reps": scen.n_reps, "n_t": len(scen.t_grid),
                "p_grid": list(scen.p_grid),
                "workers": int(args[1] if len(args) > 1 else kwargs.get("n_jobs", 1))}
    return {}


def self_times(spans: list[dict]) -> dict:
    """Span id -> self time: duration minus the time its child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))

    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


# name, unit, span name, statistic, span filter.  Statistics: "self" is the
# median self time, "wall" the median duration, "mb_per_s" the median of
# file bytes over self time.
LAYER_METRICS = (
    ("cli.startup_s", "s", "cli.startup", "self", {}),
    ("cli.simulate_s", "s", "cli.simulate", "self", {}),
    ("cli.fit_s", "s", "cli.fit", "self", {}),
    ("cli.test_s", "s", "cli.test", "self", {}),
    ("dataio.read_s", "s", "dataio.read_matrix", "self", {"file": "Y.csv"}),
    ("dataio.read_mb_per_s", "MB/s", "dataio.read_matrix", "mb_per_s", {"file": "Y.csv"}),
    ("dataio.write_s", "s", "dataio.write_matrix", "self", {"file": "Y.csv"}),
    ("dataio.write_mb_per_s", "MB/s", "dataio.write_matrix", "mb_per_s", {"file": "Y.csv"}),
    ("dataio.bundle_write_s", "s", "dataio.write_fit_bundle", "self", {}),
    ("simulate.gen_design2_s", "s", "simulate.gen_design2", "self", {}),
    ("simulate.gen_calibrated_s", "s", "simulate.gen_calibrated", "self", {"p": 1000}),
    ("simulate.error_cov_s", "s", "simulate.make_sparse_error_cov", "self", {"p": 1000}),
    ("basis.build_s", "s", "basis.build_basis", "self", {}),
    ("projection.make_s", "s", "projection.make_projector", "self", {}),
    ("inference.select_k_s", "s", "inference.select_k", "self", {}),
    ("inference.test_g_s", "s", "inference.test_g_zero", "self", {}),
    ("inference.test_gamma_s", "s", "inference.test_gamma_zero", "self", {}),
    ("estimator.fit_projected_s", "s", "estimator.fit_projected_pca", "self", {}),
    ("estimator.fit_regular_s", "s", "estimator.fit_regular_pca", "self", {}),
    ("montecarlo.replication_p500_s", "s", "montecarlo.run_replication", "wall", {"p": 500}),
    ("montecarlo.replication_p1000_s", "s", "montecarlo.run_replication", "wall", {"p": 1000}),
    ("montecarlo.worker_utilisation", "ratio", "montecarlo.run_monte_carlo", "utilisation", {}),
    ("trace.op_s", "s", "op", "wall", {}),
)


def _matches(span, name, filt):
    return span["name"] == name and all(span.get(k) == v for k, v in filt.items())


def _utilisation(studies, spans):
    """Serial replication seconds / (workers x study wall), medians per p."""
    rep_wall: dict = {}
    for s in spans:
        if s["name"] == "montecarlo.run_replication":
            rep_wall.setdefault(s["p"], []).append(s["end"] - s["start"])
    study = studies[0]
    if not all(p in rep_wall for p in study["p_grid"]):
        return None
    serial = sum(study["n_reps"] * study["n_t"] * statistics.median(rep_wall[p])
                 for p in study["p_grid"])
    wall = statistics.median(s["end"] - s["start"] for s in studies)
    return serial / (study["workers"] * wall)


def _stat(kind, matched, spans, selfs):
    if not matched:
        return None
    if kind == "self":
        return statistics.median(selfs[s["id"]] for s in matched)
    if kind == "wall":
        return statistics.median(s["end"] - s["start"] for s in matched)
    if kind == "mb_per_s":
        return statistics.median(s["bytes"] / 1e6 / selfs[s["id"]] for s in matched)
    return _utilisation(matched, spans)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced run; a metric without spans is left out."""
    selfs = self_times(spans)
    metrics = {}
    for name, unit, span_name, kind, filt in LAYER_METRICS:
        value = _stat(kind, [s for s in spans if _matches(s, span_name, filt)], spans, selfs)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics
