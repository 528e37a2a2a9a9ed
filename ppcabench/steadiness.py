"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 ppcabench/steadiness.py --workloads wide_panel long_panel --seeds 10 --seconds 15

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median.
With ``--trace 1`` it summarises the per-layer metrics instead.  The raw
results go to ``.ppcabench_out/steadiness-<workload>-trace<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".ppcabench_out"


def summarise(results: list[dict]) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        table[name] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else float("nan"),
                       "unit": results[0]["metrics"][name]["unit"]}
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=BENCH.parent)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            results.append(result)
        table = summarise(results)
        (OUT / f"steadiness-{workload}-trace{args.trace}.json").write_text(
            json.dumps({"results": results, "walls": walls, "summary": table}, indent=1))
        fails = {(r["failed"], r["attempted"]) for r in results}
        print(f"{workload}: {len(results)} runs, run wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"(failed, attempted) {sorted(fails)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        for name, row in table.items():
            print(f"  {name:32s} median {row['median']:11.5g} {row['unit']:6s} "
                  f"q1 {row['q1']:11.5g} q3 {row['q3']:11.5g} spread {row['spread']:7.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
