"""Benchmark of `stfosls run` on fixed workloads; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics (wall time, set-up time,
peak RSS, dof throughput) measured with tracing off; with ``--trace 1`` it
prints the per-layer metrics of a traced run and a per-level table.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Outputs go under
``.bench_work/`` in the checkout.  Exit code 0 on success, 1 when the
benchmark itself fails (no result line is printed then), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402
from worker import read_steal_ticks  # noqa: E402

# Every thread pool the numeric stack may start is pinned to one thread.
PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "dofs_per_s": "1/s"}
PER_LAYER_UNITS = {
    ".s": "s", ".calls": "count", ".elements_out": "count", ".nnz": "count", ".iters": "count",
    ".iters_last": "count", ".false_converged": "count", ".initial_facets": "count",
    "_s": "s",
}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


def child_env():
    env = dict(os.environ)
    env.update(PIN)
    return env


def measure_setup(work: Path, config_text: str, env, deadline: float):
    """Median seconds from process start to a parsed config, mesh and problem."""
    config = work / "configs" / "setup.cfg"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(config_text)
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(ROOT / "src"), str(config)],
            env=env, capture_output=True, text=True, timeout=max(deadline - t0, 1.0), check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples), samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stfosls" / "cli.py").is_file():
        print(f"error: no stfosls sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-trace{args.trace}"
    env = child_env()
    steal0 = read_steal_ticks()

    setup = None
    if args.trace == 0:
        setup = measure_setup(work, workload.runs[0].config_text(), env, deadline)

    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(work), workload.name,
             str(args.seed), str(args.seconds), str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload.name} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    steal1 = read_steal_ticks()

    walls = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    n_runs = len(workload.runs)
    print(f"workload {workload.name}: seed {args.seed}, {len(res['passes'])} passes of "
          f"{n_runs} run(s), closed loop in one process, threads pinned to 1")
    if args.trace == 0:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "setup_s": setup[0],
            "peak_rss_mb": res["peak_rss_mb"],
            "dofs_per_s": res["dofs_per_pass"] / wall,
        }
        counts = {"wall_s": len(walls), "setup_s": len(setup[1]), "peak_rss_mb": 1, "dofs_per_s": len(walls)}
        units = END_TO_END
    else:
        values = res["layers"]
        traced = sum(p["traced"] for p in res["passes"])
        counts = {key: traced for key in values}
        units = {key: layer_unit(key) for key in values}
    for key, value in values.items():
        print(f"  {key:<42} {value:>14.6g} {units[key]:<6} (median of {counts[key]})")
    print(f"  {'fail_ratio':<42} {res['failed']:>6}/{res['attempted']:<7} runs failed")
    for failure in res["failures"]:
        print(f"  failed: {failure}")

    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **res["versions"],
        "pinning": PIN,
        "steal_ticks_run": steal1 - steal0 if steal0 is not None and steal1 is not None else None,
        "steal_ticks_per_pass": [p["steal_ticks"] for p in res["passes"]],
        "setup_samples_s": setup[1] if setup else None,
        "pass_walls_s": [p["wall_s"] for p in res["passes"]],
        "pass_cpu_s": [p["cpu_s"] for p in res["passes"]],
    }
    print("env: " + json.dumps(environment))
    summary = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    (work / f"result-seed{args.seed}.json").write_text(
        json.dumps({**summary, "workload": workload.name, "seed": args.seed, "env": environment}, indent=1)
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
