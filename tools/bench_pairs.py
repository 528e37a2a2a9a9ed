"""Alternate ``ppcabench/run.py`` runs of several commits and record them.

    python3 tools/bench_pairs.py --rev parent=HEAD~1 --rev change=HEAD \
        --workload mc_calibrated --seeds 101-110 --out bench.json

Each revision runs from a ``git archive`` in a temporary directory for its own ``BENCHMARK.json``
``run_seconds``; round i rotates the side order by i.  Each run's environment and result lines are
appended to ``--out`` as printed; a run that exits non-zero or ends without a result stops the runner.
At the end it prints, per side, the median of each metric over all runs of the workload in ``--out``,
earlier ones included.  For each side after the first one recorded (the parent, when it is the first
``--rev``), it prints per end-to-end metric of ``BENCHMARK.json`` its median over the first side's median,
how many seed-matched pairs it won against the first, and the first side's interquartile range.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def is_result(line):
    try:
        return {"correct", "attempted"} <= json.loads(line).keys()
    except (ValueError, AttributeError):
        return False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", action="append", required=True, help="SIDE=REVISION")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="FIRST-LAST")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    sides = [rev.split("=", 1) for rev in args.rev]
    runs = json.loads(args.out.read_text()) if args.out.exists() else []
    commits, git = {}, dict(check=True, capture_output=True)
    with tempfile.TemporaryDirectory() as tmp:
        for side, rev in sides:
            commits[side] = subprocess.run(["git", "rev-parse", f"{rev}^{{commit}}"], text=True, **git).stdout.strip()
            tar = subprocess.run(["git", "archive", f"--prefix={side}/", commits[side]], **git).stdout
            subprocess.run(["tar", "-x"], cwd=tmp, input=tar, check=True)
        for i, seed in enumerate(range(first, last + 1)):
            for side, _ in sides[i % len(sides):] + sides[:i % len(sides)]:
                seconds = json.loads(Path(tmp, side, "BENCHMARK.json").read_text())["run_seconds"]
                cmd = [sys.executable, "ppcabench/run.py", "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                run = subprocess.run(cmd, cwd=Path(tmp, side), capture_output=True, text=True)
                lines = run.stdout.strip().splitlines() or [""]
                if run.returncode or not is_result(lines[-1]):
                    sys.exit(f"{side} seed {seed}: exit {run.returncode}, last line {lines[-1]!r}\n{run.stderr}")
                env = next((ln for ln in lines if ln.startswith('{"workload"')), None)
                runs.append({"side": side, "commit": commits[side], "seed": seed, "workload": args.workload,
                             "trace": args.trace, "environment": env, "result": lines[-1]})
                print(side, seed, lines[-1], flush=True)
                args.out.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n")
    summarise(runs, args.workload)


def summarise(runs, workload):
    """Per side, each metric's median; per later side, its ratio to the first side's median, its wins, and that side's IQR."""
    spec = json.loads(Path(__file__).resolve().parents[1].joinpath("BENCHMARK.json").read_text())
    by_side = {}  # side -> metric -> seed -> values
    for run in runs:
        if run["workload"] == workload:
            for name, metric in json.loads(run["result"])["metrics"].items():
                seeds = by_side.setdefault(run["side"], {}).setdefault(name, {})
                seeds.setdefault(run["seed"], []).append(metric["value"])
    values = {side: {name: sum(seeds.values(), []) for name, seeds in metrics.items()}
              for side, metrics in by_side.items()}
    for side, metrics in values.items():
        n = len(next(iter(metrics.values())))
        print(f"median of {n} {workload} runs, {side}:",
              " ".join(f"{name}={statistics.median(v):.6g}" for name, v in metrics.items()))
    base, *others = by_side or [None]
    for side in others:
        parts = []
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            ref, new = by_side[base].get(name, {}), by_side[side].get(name, {})
            seeds = sorted(ref.keys() & new.keys())
            gains = [statistics.median(ref[s]) - statistics.median(new[s]) for s in seeds]
            won = sum(g > 0 if lower else g < 0 for g in gains)
            v, w = values[base].get(name, []), values[side].get(name, [])
            ratio = statistics.median(w) / statistics.median(v) if v and w else math.nan
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [math.nan] * 3
            parts.append(f"{name} ratio {ratio:.4g}, won {won}/{len(seeds)} ({base} IQR {q1:.6g}-{q3:.6g}, {q3 - q1:.3g})")
        print(f"{side} against {base} (median ratio {side}/{base}; wins over seed-matched pairs):", "; ".join(parts))


if __name__ == "__main__":
    main()
