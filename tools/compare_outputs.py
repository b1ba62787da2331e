"""Compare the outputs of two source trees of stfosls, file by file and level by level.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [CONFIG ...]

OLD_SRC and NEW_SRC are directories holding the ``stfosls`` package (a
checkout's ``src``).  Each CONFIG, by default the runs of
``perfbench/workloads.py`` and the configs of ``demos/configs/``, is run
through ``stfosls.cli.main``, with ``write_mesh = true`` unless it sets
``write_mesh`` itself, each tree in its own Python subprocess with every
BLAS thread pool pinned to one thread.  The subprocess wraps
``stfosls.driver.assemble`` and ``stfosls.driver.solve_cg`` from outside the
program, as the benchmark's tracer does, and records the SHA-256 of every
level's matrix (``data``, ``indices``, ``indptr``), load, solution vector
and ``repr`` of its ``SolverReport``, and each run's stderr with the tree's
own output directory replaced by ``<out>``.  It then runs ``stfosls verify
--seed 0``, whose checks run the oracles, and records its exit code and
stdout.

Prints every output file, stderr, level and verify stream that differs and
the counts compared.
Exit code: 0 when everything is identical, 1 when something differs, 2 on
a usage error or when a subprocess fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def default_configs() -> dict:
    """Config text by run name: every run of the benchmark's workloads, then
    the demo configs."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    configs = {f"{w.name}.{run.name}": run.config_text() for w in workloads.values() for run in w.runs}
    for path in sorted((ROOT / "demos" / "configs").glob("*.cfg")):
        configs[f"demos.{path.stem}"] = path.read_text()
    return configs


def _sets_write_mesh(text: str) -> bool:
    """Whether a config sets ``write_mesh``, read line by line as
    ``stfosls.cli.parse_config`` reads its keys."""
    return any(line.split("#", 1)[0].partition("=")[0].strip() == "write_mesh"
               for line in text.splitlines())


def _sha(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def worker(src: str, out: str, configs) -> None:
    """Run every config with the stfosls package of ``src``, outputs under
    ``out/<config stem>/``, then ``verify``; write the exit codes, stderr and
    level hashes of the runs and the exit code and stdout of ``verify`` to
    ``out/levels.json``."""
    sys.path.insert(0, src)
    import stfosls.cli as cli
    import stfosls.driver as driver

    assemble, solve_cg, levels = driver.assemble, driver.solve_cg, []

    def hashed_assemble(*args, **kwargs):
        level = assemble(*args, **kwargs)
        matrix = level.matrix
        arrays = (matrix.data, matrix.indices, matrix.indptr)
        levels.append({"matrix": _sha(*(a.tobytes() for a in arrays)), "load": _sha(level.rhs.tobytes())})
        return level

    def hashed_solve(*args, **kwargs):
        x, report = solve_cg(*args, **kwargs)
        levels[-1].update(solution=_sha(x.tobytes()), report=_sha(repr(report).encode()))
        return x, report

    driver.assemble, driver.solve_cg = hashed_assemble, hashed_solve
    runs = {}
    for config in configs:
        levels.clear()
        name = Path(config).stem
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.main(["run", config, "--out", str(Path(out) / name)])
        runs[name] = {"exit": code, "stderr": stderr.getvalue().replace(out, "<out>"),
                      "levels": list(levels)}
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["verify", "--seed", "0"])
    verify = {"exit": code, "stdout": stdout.getvalue()}
    Path(out).mkdir(exist_ok=True)  # no run made it when every config is rejected
    (Path(out) / "levels.json").write_text(json.dumps({"runs": runs, "verify": verify}))


def _files(run_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*"))} if run_dir.is_dir() else {}


def _command_diffs(name: str, a: dict, b: dict) -> list:
    """Differences between two records of one command: its exit code and
    the streams it recorded."""
    diffs = [f"{name}: exit code {a['exit']} != {b['exit']}"] if a["exit"] != b["exit"] else []
    return diffs + [f"{name}: {stream} differs" for stream in ("stdout", "stderr")
                    if a.get(stream) != b.get(stream)]


def compare(old: Path, new: Path, names) -> tuple:
    """Differences between the outputs under ``old`` and ``new``, as lines,
    and the counts (runs, files, levels) compared."""
    old_out = json.loads((old / "levels.json").read_text())
    new_out = json.loads((new / "levels.json").read_text())
    diffs, n_files, n_levels = [], 0, 0
    for name in names:
        a, b = old_out["runs"][name], new_out["runs"][name]
        diffs += _command_diffs(name, a, b)
        old_files, new_files = _files(old / name), _files(new / name)
        for file in sorted(old_files.keys() | new_files.keys()):
            n_files += 1
            if old_files.get(file) != new_files.get(file):
                diffs.append(f"{name}/{file}: differs")
        if len(a["levels"]) != len(b["levels"]):
            diffs.append(f"{name}: {len(a['levels'])} assembled levels != {len(b['levels'])}")
        for k, (la, lb) in enumerate(zip(a["levels"], b["levels"])):
            n_levels += 1
            diffs += [f"{name} level {k}: {part} differs" for part in sorted(la.keys() | lb.keys())
                      if la.get(part) != lb.get(part)]
    diffs += _command_diffs("verify", old_out["verify"], new_out["verify"])
    return diffs, (len(names), n_files, n_levels)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    configs = {Path(path).stem: Path(path).read_text() for path in argv[2:]}
    if len(argv) < 2 or argv[0].startswith("-") or len(configs) < len(argv[2:]):
        print("usage: compare_outputs.py OLD_SRC NEW_SRC [CONFIG ...] (config names distinct)",
              file=sys.stderr)
        return 2
    trees = [str(Path(src).resolve()) for src in argv[:2]]
    configs = configs or default_configs()
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        paths = []
        for name, text in configs.items():
            path = work / "configs" / f"{name}.cfg"
            path.parent.mkdir(exist_ok=True)
            path.write_text(text if _sets_write_mesh(text) else text + "\nwrite_mesh = true\n")
            paths.append(str(path))
        outs = [work / "old", work / "new"]
        env = {**os.environ, **PIN}
        procs = [subprocess.Popen([sys.executable, "-B", __file__, "--worker", src, str(out), *paths],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for src, out in zip(trees, outs)]
        results = [proc.communicate() for proc in procs]
        for src, proc, (_, stderr) in zip(trees, procs, results):
            if proc.returncode != 0:
                print(f"error: the run of {src} failed (exit {proc.returncode}):\n{stderr}", file=sys.stderr)
                return 2
        diffs, (n_runs, n_files, n_levels) = compare(*outs, list(configs))
    for line in diffs:
        print(line)
    print(f"compared {n_runs} runs, {n_files} files, {n_levels} levels and verify: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3], sys.argv[4:])
    else:
        sys.exit(main())
