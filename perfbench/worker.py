"""Runs one workload in a closed loop inside this process and reports samples.

Started by `run.py` with BLAS/OpenMP threads pinned; not meant to be run by
hand.  Every `stfosls run` call goes through `stfosls.cli.main`, and each
call's runlog.csv is checked against the reference rows in
`perfbench/reference/<workload>/<run>.csv`.  The last line of standard
output is one JSON object with the samples; `run.py` turns it into metrics.

    python3 perfbench/worker.py ROOT WORK WORKLOAD SEED SECONDS TRACE
"""

from __future__ import annotations

import csv
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_COLUMNS = ("level", "dofs", "elements", "marked")
FLOAT_COLUMNS = ("estimator", "error")
REL_TOL = 1e-8


class BlindTrace(RuntimeError):
    """A wrapped layer recorded no call on a run that must call it."""


def read_steal_ticks():
    """Host steal ticks summed over CPUs, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gate(produced: Path, reference: Path):
    """None when the run log matches the reference, else the first mismatch."""
    try:
        got = _rows(produced)
    except OSError as exc:
        return f"no run log: {exc}"
    want = _rows(reference)
    if len(got) != len(want):
        return f"{len(got)} levels, reference has {len(want)}"
    for g, w in zip(got, want):
        for key in EXACT_COLUMNS:
            if g.get(key) != w[key]:
                return f"level {w['level']}: {key} {g.get(key)} != {w[key]}"
        for key in FLOAT_COLUMNS:
            if (g.get(key) == "") != (w[key] == ""):
                return f"level {w['level']}: {key} {g.get(key)!r} vs {w[key]!r}"
            if w[key] and abs(float(g[key]) - float(w[key])) > REL_TOL * abs(float(w[key])):
                return f"level {w['level']}: {key} {g[key]} differs from {w[key]} by more than {REL_TOL:g} relative"
    return None


def main(argv):
    root, work, name, seed, seconds, trace = (
        Path(argv[0]), Path(argv[1]), argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    )
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import stfosls
    from stfosls import cli

    if Path(stfosls.__file__).resolve().parent != (src / "stfosls").resolve():
        raise RuntimeError(f"imported stfosls from {stfosls.__file__}, not from {src}")

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runs = workload.ordered(seed)
    refs = {run.name: HERE / "reference" / name / f"{run.name}.csv" for run in runs}
    dofs_per_pass = sum(int(row["dofs"]) for path in refs.values() for row in _rows(path))

    configs = work / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for run in runs:
        (configs / f"{run.name}.cfg").write_text(run.config_text())
        warm = configs / f"{run.name}.warmup.cfg"
        warm.write_text(run.warmup_text())
        if cli.main(["run", str(warm), "--out", str(work / "warmup" / run.name)]) != 0:
            raise RuntimeError(f"warm-up of {run.name} failed")

    tracers = []
    failures = []

    def run_pass(tracer):
        wall = 0.0
        for run in runs:
            out = work / "out" / run.name
            log = out / "runlog.csv"
            if log.exists():
                log.unlink()
            if tracer is not None:
                tracer.start_run(run.name)
            t0 = time.perf_counter()
            code = cli.main(["run", str(configs / f"{run.name}.cfg"), "--out", str(out)])
            wall += time.perf_counter() - t0
            problem = f"exit code {code}" if code != 0 else gate(log, refs[run.name])
            if problem is not None:
                failures.append(f"{run.name}: {problem}")
                print(f"output gate: {name}/{run.name}: {problem}", file=sys.stderr)
        return wall

    if trace:
        from tracer import Tracer
    # Passes repeat while the next one, at the mean pass time so far, still
    # ends within SECONDS: a run lasts SECONDS, not SECONDS plus a pass.
    passes = []
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    while len(passes) < min_passes or (
        (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        gc.collect()  # every pass starts without garbage left by the one before
        tracer = None
        if traced:
            tracer = Tracer(name)
            tracer.install()
        steal0 = read_steal_ticks()
        cpu0 = time.process_time()
        try:
            wall = run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        steal1 = read_steal_ticks()
        steal = steal1 - steal0 if steal0 is not None and steal1 is not None else None
        passes.append({"wall_s": wall, "cpu_s": time.process_time() - cpu0, "traced": traced, "steal_ticks": steal})
        if len(passes) == 1:
            # Peak of one pass: later passes only add allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracers.append(tracer)
            for run in runs:
                missing = run.expect - tracer.called_layers(run.name)
                if missing:
                    raise BlindTrace(f"{name}/{run.name}: no calls recorded for {sorted(missing)}")

    result = {
        "passes": passes,
        "attempted": len(passes) * len(runs),
        "failed": len(failures),
        "failures": failures,
        "dofs_per_pass": dofs_per_pass,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        result.update(trace_report(name, seed, work, passes, tracers))
    print(json.dumps(result))


def trace_report(name, seed, work, passes, tracers):
    """Median per-layer metrics over traced passes, a per-level table, span dump."""
    from tracer import LEVEL_COLUMNS

    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    per_pass = [t.metrics(w) for t, w in zip(tracers, traced_walls)]
    layers = {}
    for key, first in per_pass[0].items():
        median = statistics.median if isinstance(first, float) else statistics.median_low  # counts stay ints
        layers[key] = median(m[key] for m in per_pass)
    layers["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0

    last, wall = tracers[-1], traced_walls[-1]
    top = last.top_level_s()
    print(f"accounting (last traced pass): top-level spans {top:.4f} s + driver.self_s "
          f"{wall - top - last.check_s:.4f} s + trace checks {last.check_s:.4f} s = traced wall {wall:.4f} s")
    seconds = last.level_seconds()
    short = [c.split(".")[-1] for c in LEVEL_COLUMNS]
    print("per-level rows (last traced pass, seconds per layer; eval is nested in assemble/indicators/error):")
    print(f"{'run':<34}{'level':>6}{'dofs':>8}{'elems':>8}{'iters':>7}{'true_rel':>10}"
          + "".join(f"{c[:10]:>11}" for c in short))
    for row in last.rows:
        cell = seconds.get((row.run, row.level), {})
        print(f"{row.run:<34}{row.level:>6}{row.dofs:>8}{row.elements:>8}{row.cg_iters:>7}"
              f"{row.true_rel_residual:>10.2e}" + "".join(f"{cell.get(c, 0.0):>11.5f}" for c in LEVEL_COLUMNS))

    spans_path = work / "trace" / f"spans-seed{seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        for index, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({"pass": index, **vars(s)}) + "\n")
    return {"layers": layers, "spans_file": str(spans_path)}


if __name__ == "__main__":
    main(sys.argv[1:])
