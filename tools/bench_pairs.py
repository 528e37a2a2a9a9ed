"""Alternate ``ppcabench/run.py`` runs of several commits and record them.

    python3 tools/bench_pairs.py --rev parent=HEAD~1 --rev change=HEAD \
        --workload mc_calibrated --seeds 101-110 --out bench.json

Each revision runs from a ``git archive`` in a temporary directory for its own ``BENCHMARK.json``
``run_seconds``; round i rotates the side order by i.  Each run's environment and result lines are
appended to ``--out`` as printed; a run that exits non-zero or ends without a result stops the runner.
At the end it prints, per side, the median of each end-to-end metric over all runs of the workload
in ``--out``, earlier ones included.
"""

import argparse
import json
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
    by_side = {}
    for run in runs:
        if run["workload"] == args.workload:
            metrics = json.loads(run["result"])["metrics"]
            for name, metric in metrics.items():
                by_side.setdefault(run["side"], {}).setdefault(name, []).append(metric["value"])
    for side, metrics in by_side.items():
        n = len(next(iter(metrics.values())))
        print(f"median of {n} {args.workload} runs, {side}:",
              " ".join(f"{name}={statistics.median(v):.6g}" for name, v in metrics.items()))


if __name__ == "__main__":
    main()
