"""ppca benchmark: one workload, one run, one JSON result on the last line.

    python3 ppcabench/run.py --workload wide_panel --seed 7 --seconds 15 --trace 0

Workloads: cli_csv, wide_panel, long_panel, mc_calibrated (see README.md).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` every per-layer metric: those the workload's own spans yield,
and for the layers it never reaches, those of one census operation of a
workload that does (see ``traced_metrics``).  Exits with code 2, printing no
result, when the checkout has no ``src/ppca`` to measure.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads; children inherit it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".ppcabench_out"
WORKLOAD_NAMES = ("cli_csv", "wide_panel", "long_panel", "mc_calibrated")
ROUNDS = 5  # set-up rounds per run; setup_s is their median
CENSUS = ("cli_csv", "mc_calibrated")  # between them they reach every layer


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ppca benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_workload(cls, seed, work, tracer, rounds, seconds) -> dict:
    """Set up ``rounds`` times, then run operations until ``seconds`` of them.

    Only operation time counts towards ``seconds``; checks run between
    operations with the clock stopped.  At least one operation runs.
    """
    import checks

    wl = cls(seed, work, tracer)
    if tracer:
        tracer.workload = cls.name
    setup = []
    for r in range(rounds):
        t0 = time.perf_counter()
        wl.setup(r)
        setup.append(time.perf_counter() - t0)
    op_s, attempted, failed, correct, phase = [], 0, 0, True, 0.0
    while attempted == 0 or phase < seconds:
        i = attempted
        attempted += 1
        if tracer:
            tracer.op_id = f"{cls.name}:{i}"
        t0 = time.perf_counter()
        try:
            with tracer.span("op") if tracer else contextlib.nullcontext():
                out = wl.op(i)
            ok = True
        except Exception:  # a failed operation is counted, and the run goes on
            ok = False
            traceback.print_exc()
        dt = time.perf_counter() - t0
        phase += dt
        if tracer:
            tracer.op_id = None
        if not ok:
            failed += 1
            continue
        op_s.append(dt)
        try:
            wl.check(i, out)
        except Exception as exc:  # a missing or unreadable output fails its check too
            if not isinstance(exc, checks.CheckFailed):
                traceback.print_exc()
            print(f"check failed: {cls.name} operation {i}: {exc}", file=sys.stderr)
            correct = False
    return {"setup": setup, "op_s": op_s, "phase": phase, "attempted": attempted,
            "failed": failed, "correct": correct}


def traced_metrics(name, seed, work, tracer, census) -> tuple[dict, set, bool]:
    """Every per-layer metric of a traced run, and which came from the census.

    A metric comes from the spans of workload ``name`` when they yield it.
    For the rest, one untimed-phase operation (one set-up round, one
    operation and its check) of each workload in ``census`` -- a mapping of
    name to class, in order -- runs until none is missing, and the metric
    is taken from that workload's spans alone.  Returns the metrics, the
    names taken from the census and whether the census operations passed.
    """
    import spans

    def of(workload):
        return spans.layer_metrics([s for s in tracer.spans if s["workload"] == workload])

    metrics, from_census, correct = of(name), set(), True
    for other, cls in census.items():
        missing = [m[0] for m in spans.LAYER_METRICS if m[0] not in metrics]
        if not missing:
            break
        if other == name:
            continue
        res = run_workload(cls, seed, work, tracer, rounds=1, seconds=0.0)
        correct = correct and res["correct"] and res["failed"] == 0
        found = of(other)
        for m in missing:
            if m in found:
                metrics[m] = found[m]
                from_census.add(m)
    order = [m[0] for m in spans.LAYER_METRICS]
    return dict(sorted(metrics.items(), key=lambda kv: order.index(kv[0]))), from_census, correct


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", **BLAS_THREADS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ppca" / "__init__.py").is_file():
        print(f"error: no ppca package at {ROOT / 'src' / 'ppca'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.instrument()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = run_workload(workloads.WORKLOADS[args.workload], args.seed, work, tracer,
                           ROUNDS, args.seconds)
        if tracer:
            metrics, from_census, census_ok = traced_metrics(
                args.workload, args.seed, work, tracer,
                {w: workloads.WORKLOADS[w] for w in CENSUS})
            res["correct"] = res["correct"] and census_ok
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    print(f"setup_s rounds: {[round(s, 4) for s in res['setup']]}; "
          f"{len(res['op_s'])} operations in {res['phase']:.2f} s")
    if tracer:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file)
        for name, metric in metrics.items():
            source = "census" if name in from_census else args.workload
            print(f"  {name:32s} {metric['value']:12.6g} {metric['unit']:6s} {source}")
        print(f"spans: {spans_file}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
            "op_s": {"value": statistics.median(res["op_s"]), "unit": "s"},
            "ops_per_s": {"value": len(res["op_s"]) / res["phase"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
