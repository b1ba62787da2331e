"""Summarize benchmark results into one table per workload.

    python3 perfbench/summarize.py [RESULT_DIR] > table.json

Reads every `result-seed*.json` that `run.py` left under RESULT_DIR
(default `.bench_work`) and prints, per workload and metric, the median,
the quartiles, the spread (quartile distance over median) and the number
of runs, in the format of `BENCH_baseline.json`.  Use it on the parent
commit and on a change, with the same seeds, for a before/after table.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(results_dir: Path) -> dict:
    values = {}
    failed = {}
    for path in sorted(results_dir.glob("*/result-seed*.json")):
        result = json.loads(path.read_text())
        name = result["workload"]
        failed.setdefault(name, [0, 0])
        failed[name][0] += result["failed"]
        failed[name][1] += result["attempted"]
        for key, metric in result["metrics"].items():
            values.setdefault(name, {}).setdefault(key, []).append(metric["value"])
    table = {}
    for name, metrics in sorted(values.items()):
        rows = {}
        for key, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            rows[key] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(vals),
            }
        table[name] = {"fail_ratio": f"{failed[name][0]}/{failed[name][1]}", "metrics": rows}
    return table


if __name__ == "__main__":
    print(json.dumps(summarize(Path(sys.argv[1] if len(sys.argv) > 1 else ".bench_work")), indent=1))
