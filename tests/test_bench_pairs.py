import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, seed, op_s, ops_per_s, setup_s=0.5, workload="wide_panel"):
    metrics = {"setup_s": setup_s, "op_s": op_s, "ops_per_s": ops_per_s}
    result = {"correct": True, "attempted": 1,
              "metrics": {name: {"value": value} for name, value in metrics.items()}}
    return {"side": side, "seed": seed, "workload": workload, "result": json.dumps(result)}


def test_summarise_ratios_wins_and_parent_iqr(capsys):
    parent_op, change_op = [1.0, 1.2, 0.9, 1.1], [0.8, 0.9, 1.0, 0.7]
    parent_ops, change_ops = [10.0, 8.0, 11.0, 9.0], [12.0, 9.0, 10.0, 13.0]
    runs = [_run("parent", seed, op, ops) for seed, op, ops in zip(range(4), parent_op, parent_ops)]
    runs += [_run("change", seed, op, ops) for seed, op, ops in zip(range(4), change_op, change_ops)]
    runs.append(_run("parent", 0, 99.0, 99.0, 99.0, workload="cli_csv"))  # another workload: unread
    _tool().summarise(runs, "wide_panel")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "median of 4 wide_panel runs, parent: setup_s=0.5 op_s=1.05 ops_per_s=9.5"
    assert lines[1] == "median of 4 wide_panel runs, change: setup_s=0.5 op_s=0.85 ops_per_s=11"
    parts = dict(part.split(" ", 1) for part in lines[2].split(": ", 1)[1].split("; "))
    # op_s: median 0.85 / 1.05, lower wins on seeds 0, 1 and 3; parent quartiles 0.975 and 1.125
    assert parts["op_s"] == "ratio 0.8095, won 3/4 (parent IQR 0.975-1.125, 0.15)"
    # ops_per_s: higher wins on seeds 0, 1 and 3
    assert parts["ops_per_s"] == "ratio 1.158, won 3/4 (parent IQR 8.75-10.25, 1.5)"
    # setup_s ties on every seed, and a tie counts for neither side
    assert parts["setup_s"] == "ratio 1, won 0/4 (parent IQR 0.5-0.5, 0)"
    assert len(lines) == 3 and lines[2].startswith("change against parent")
