import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stfosls.cli import ConfigError, main, parse_config
from stfosls.driver import StopCriteria
from stfosls.system import InvalidDataError
from helpers import read_mesh_dump

DEMOS = Path(__file__).resolve().parents[1] / "demos"

HEAT_UNIFORM = """
case = heat-smooth
mode = uniform
degree = 1
levels = 3
write_mesh = true
"""

INCOMPATIBLE_ADAPTIVE = """
case = incompatible
mode = adaptive
marking = doerfler
theta = 0.5
max_iterations = 6
"""


NON_FINITE_OR_NEGATIVE = ("t_end = inf", "x_lo = -inf", "estimator_tolerance = nan",
                          "estimator_tolerance = -1")


def test_parse_defaults_and_overrides():
    config = parse_config(HEAT_UNIFORM)
    assert config.case == "heat-smooth"
    assert config.marking is None
    assert config.stop.max_iterations == 2
    assert config.write_mesh
    assert config.nt == 2 and config.nx == 2


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("not_a_key = 1")
    with pytest.raises(ConfigError):
        parse_config("degree 2")
    with pytest.raises(ConfigError, match="unknown key 'out'"):  # --out sets the output directory
        parse_config("out = results")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("degree = 3")
    with pytest.raises(ConfigError):
        parse_config("marking = doerfler\ntheta = 0.0")
    with pytest.raises(ConfigError):
        parse_config("mode = sideways")
    with pytest.raises(ConfigError):
        parse_config("t_end = -1")
    with pytest.raises(ConfigError):
        parse_config("system = poisson\ncase = bogus")
    for line in NON_FINITE_OR_NEGATIVE:
        with pytest.raises(ConfigError):
            parse_config(line)


@pytest.mark.parametrize("line,message", [
    ("system = Poisson", "system must be 'parabolic' or 'poisson', got 'Poisson'"),
    ("form = x", "form must be 'flux' or 'gradient', got 'x'"),
    ("mode = sideways", "mode must be 'adaptive' or 'uniform', got 'sideways'"),
    ("marking = ", "marking must be 'doerfler' or 'maximum', got ''"),
], ids=["system", "form", "mode", "marking"])
def test_parse_rejects_unknown_choice_by_name(line, message):
    """An enumerated key's rejection names the key, every option and the value given."""
    with pytest.raises(ConfigError) as exc:
        parse_config(line)
    assert str(exc.value) == message


def test_run_uniform_heat(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(HEAT_UNIFORM)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "runlog.csv").read_text().splitlines()
    assert lines[0] == "level,dofs,elements,estimator,error,marked,cg_iters"
    assert len(lines) == 1 + 3
    summary = (out / "summary.txt").read_text()
    assert "reason = levels" in summary
    mesh = read_mesh_dump(out / "mesh_final.txt")
    assert mesh.n_elements == 128


def test_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("marking = doerfler\ntheta = 0.0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    for line in NON_FINITE_OR_NEGATIVE:
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err


def _run_rows(tmp_path, text):
    tmp_path.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = (out / "runlog.csv").read_text().splitlines()[1:]
    reason = [l for l in (out / "summary.txt").read_text().splitlines() if l.startswith("reason")]
    return rows, reason[0].split(" = ")[1]


def test_uniform_mode_honours_max_dofs_and_tolerance(tmp_path):
    uniform = "case = heat-smooth\nmode = uniform\nlevels = 4\n"
    rows, reason = _run_rows(tmp_path / "dofs", uniform + "max_dofs = 20\n")
    assert [int(r.split(",")[1]) for r in rows] == [12, 40] and reason == "max_dofs"
    # estimators 1.867, 0.909, 0.464, 0.235: the third level meets 0.5
    rows, reason = _run_rows(tmp_path / "tol", uniform + "estimator_tolerance = 0.5\n")
    assert len(rows) == 3 and reason == "estimator_tolerance"
    rows, reason = _run_rows(tmp_path / "iters", uniform + "max_iterations = 1\n")
    assert len(rows) == 2 and reason == "levels"


def test_uniform_mode_max_iterations_caps_only_when_set():
    assert parse_config("mode = uniform\nlevels = 30\n").stop.max_iterations == 29
    assert parse_config("mode = uniform\nlevels = 3\nmax_iterations = 40\n").stop.max_iterations == 2
    assert parse_config("mode = uniform\nlevels = 5\nmax_iterations = 1\n").stop.max_iterations == 1
    # the benchmark's warm-up appends these two lines to every config
    warmup = parse_config(HEAT_UNIFORM + "levels = 2\nmax_iterations = 1\n")
    assert warmup.stop.max_iterations == 1 and warmup.marking is None
    assert parse_config(INCOMPATIBLE_ADAPTIVE).stop.max_iterations == 6


def test_adaptive_mode_levels_caps_only_when_set(tmp_path):
    adaptive = "case = incompatible\nmode = adaptive\n"
    assert parse_config(adaptive).stop.max_iterations == 25  # default levels: no cap
    assert parse_config(adaptive + "levels = 9\n").stop.max_iterations == 8
    assert parse_config(adaptive + "levels = 9\nmax_iterations = 3\n").stop.max_iterations == 3
    rows, reason = _run_rows(tmp_path / "cap", adaptive + "levels = 2\nmax_iterations = 3\n")
    assert len(rows) == 2 and reason == "max_iterations"
    # the benchmark's graded-p1 config, alone and with its warm-up lines appended
    graded = ("case = incompatible\nmode = adaptive\ndegree = 1\nmarking = doerfler\n"
              "theta = 0.5\nestimator_tolerance = 0.33\nmax_iterations = 40\nwrite_mesh = true\n")
    assert parse_config(graded).stop == StopCriteria(max_iterations=40, estimator_tolerance=0.33)
    warmup = parse_config(graded + "levels = 2\nmax_iterations = 1\n")
    assert warmup.stop == StopCriteria(max_iterations=1, estimator_tolerance=0.33)


@pytest.mark.parametrize("line", ["marking = maximum", "theta = 0.5"])
def test_uniform_mode_rejects_marking_keys(tmp_path, line):
    text = f"mode = uniform\nlevels = 2\n{line}\n"
    with pytest.raises(ConfigError, match="only apply to mode = adaptive"):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_incompatible_adaptive(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(INCOMPATIBLE_ADAPTIVE)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = (out / "runlog.csv").read_text().splitlines()[1:]
    first_eta = float(rows[0].split(",")[3])
    last_eta = float(rows[-1].split(",")[3])
    assert last_eta < first_eta
    assert rows[0].split(",")[4] == ""  # no reference error column


def test_identical_config_byte_identical_runlog(tmp_path):
    """Two runs of one config write the same bytes to every output file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(INCOMPATIBLE_ADAPTIVE + "write_mesh = true\n")
    files = ("runlog.csv", "summary.txt", "mesh_final.txt")
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(files)
        outs.append([(out / f).read_bytes() for f in files])
    assert outs[0] == outs[1]


def test_verify_command(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 6
    assert all(l.startswith("PASS") for l in lines)
    names = [l.split()[1].rstrip(":") for l in lines]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("argv,message", [
    (["--out", "{out}", "run", "{cfg}"], "--out is an option of 'run'"),
    (["run", "{cfg}", "--seed", "1"], "unrecognized arguments: --seed"),
    (["--seed", "7", "verify"], "--seed is an option of 'verify'"),
    (["--o", "{out}", "run", "{cfg}"], "--out is an option of 'run'"),
    (["--ou={out}", "run", "{cfg}"], "--out is an option of 'run'"),
    (["--s", "7", "verify"], "--seed is an option of 'verify'"),
    (["--se", "7", "verify"], "--seed is an option of 'verify'"),
    (["--out"], "--out is an option of 'run'"),
    (["--o", "--s", "run"], "--out is an option of 'run'"),
    (["--seed=3", "verify"], "--seed is an option of 'verify'"),
], ids=["out-before-run", "seed-on-run", "seed-before-verify", "o-before-run",
        "ou-before-run", "s-before-verify", "se-before-verify", "out-alone",
        "o-then-s-before-run", "seed-equals-before-verify"])
def test_misplaced_flag_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    """``--out`` belongs to ``run`` and ``--seed`` to ``verify``; anywhere else
    the flag is rejected by name instead of the command silently ignoring it."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(HEAT_UNIFORM)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(cfg=cfg, out=tmp_path / "out") for arg in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runlog.csv").exists()


def test_solver_failure_exit_3(tmp_path, monkeypatch):
    import stfosls.cli as cli
    from stfosls.driver import SolverFailure

    def boom(*args, **kwargs):
        raise SolverFailure("stalled")

    monkeypatch.setattr(cli, "run", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(INCOMPATIBLE_ADAPTIVE)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()  # a failed run leaves no output directory


def test_unusable_out_path_exit_2_before_level_0(tmp_path, capsys, monkeypatch):
    """An --out that is a plain file, or lies below one, exits 2 naming the
    path before level 0; a directory that cannot be made, or an output file
    that cannot be written, after the run exits 2 too, without a traceback."""
    import stfosls.cli as cli

    plain = tmp_path / "plain"
    plain.write_text("kept\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = heat-smooth\nmode = uniform\nlevels = 2\n")
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("the run started"))
    for out in (plain, plain / "sub" / "dir"):
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write output to {out}: {plain} is not a directory" in err
        assert "Traceback" not in err
    assert plain.read_text() == "kept\n"

    late = tmp_path / "late"

    def run_then_block(*args, **kwargs):  # the path turns into a file during the run
        log = real_run(*args, **kwargs)
        late.write_text("")
        return log

    monkeypatch.setattr(cli, "run", run_then_block)
    assert main(["run", str(cfg), "--out", str(late)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write output to {late}:" in err
    assert "Traceback" not in err

    monkeypatch.setattr(cli, "run", real_run)
    taken = tmp_path / "taken"
    (taken / "runlog.csv").mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write output to {taken}:" in err and "runlog.csv" in err
    assert "Traceback" not in err


def test_singular_factor_exit_3(tmp_path, capsys, monkeypatch):
    """SuperLU's singular factor is a solver failure that names the level's
    dofs, not a traceback."""
    import dataclasses

    import stfosls.driver as driver

    assemble = driver.assemble

    def singular(*args):  # the level's pattern with every entry zero
        level = assemble(*args)
        return dataclasses.replace(level, matrix=0.0 * level.matrix)

    monkeypatch.setattr(driver, "assemble", singular)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = heat-smooth\nmode = uniform\nlevels = 2\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "error: solver failure: level solve on 12 dofs failed" in err
    assert "Traceback" not in err


def test_thin_domain_uniform_run_exits_0(tmp_path):
    """t_end = 1e-6: from 40 dofs on the LU solve's relative residual misses
    1e-10 (about 4e-9 at 2,112 dofs) at a backward error near 7e-17, so
    each level converges on the backward error in one solve."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = heat-smooth\nmode = uniform\ndegree = 1\nt_end = 1e-6\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "runlog.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["12", "40", "144", "544", "2112"]
    assert all(row.split(",")[-1] == "1" for row in rows)


@pytest.mark.parametrize("t_end,code", [("1e-20", 3), ("1e-300", 3), ("1e-15", 0)])
def test_tiny_t_end_exit_code(tmp_path, capsys, t_end, code):
    """A tiny normal t_end passes the config checks.  At 1e-20 the
    Jacobi-scaled level-0 matrix has eigenvalues from about 4e-16 to 3.4,
    so SuperLU finds it singular at level 0 (exit 3), long before
    refinement could make J^-T overflow; 1e-15 still runs (exit 0)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_end = {t_end}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
    if code == 3:
        assert "error: solver failure: level solve on 12 dofs failed: Factor is exactly singular" \
            in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line,key", [("t_end = 1e-320", "t_end = 1e-320"),
                                      ("x_hi = 1e-310", "x_hi - x_lo = 1e-310")])
def test_degenerate_initial_mesh_exit_2(tmp_path, capsys, line, key):
    """A positive but denormal extent makes J^-T overflow on every initial
    element: invalid input, exit 2 naming the key, before any solve and
    without a numpy warning."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = heat-smooth\nmode = uniform\nlevels = 2\n{line}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: invalid config: {key} gives a degenerate initial mesh" in err
    assert "J^-T is not finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content,message", [
    (b"case = heat-smooth\xff\n", "error: cannot read config: 'utf-8' codec can't decode"),
    (b"# r\xe9sum\xe9 of the heat case\ncase = heat-smooth\n", "error: cannot read config: 'utf-8'"),
    (b"x_lo = -1e308\nx_hi = 1e308\n", "error: invalid config: x_hi - x_lo must be finite, got inf"),
], ids=["stray-byte", "latin-1-comment", "overflowing-width"])
def test_unreadable_or_overflowing_config_exit_2(tmp_path, capsys, content, message):
    """A config that is not UTF-8 (a stray byte, a Latin-1 comment) cannot be
    read, and finite bounds whose width overflows are rejected by that name,
    not as a degenerate mesh: exit 2, no traceback, no output directory."""
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_initial_mesh_too_large_exit_2(tmp_path, capsys, monkeypatch):
    """An initial grid that cannot be allocated is invalid input naming nt
    and nx: exit 2, no traceback, no output directory.  The allocation
    failure is stubbed, so no oversized grid is ever requested."""
    import stfosls.cli as cli

    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)")

    monkeypatch.setattr(cli, "uniform_initial_mesh", too_large)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nt = 100000000000\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: invalid config: nt = 100000000000, nx = 2 give an initial mesh too large" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_degenerate_refined_mesh_exit_2(tmp_path, capsys, monkeypatch):
    """An element that refinement makes degenerate is invalid input: exit 2
    naming the extent, without a traceback and without an output directory.
    With x_hi = 1e-305 the level solve fails at level 0 (see the next test),
    so the solve is stubbed to return x = 0: the data then drive refinement
    towards the corner until J^-T of an element overflows."""
    import stfosls.driver as driver
    from stfosls.assembly import SolverReport

    monkeypatch.setattr(driver, "solve_cg",
                        lambda matrix, rhs: (0.0 * rhs, SolverReport(0, 0.0, 0.0, 0.0, True)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = incompatible\nx_hi = 1e-305\nmax_iterations = 35\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: invalid config: x_hi - x_lo = 1e-305 gives a degenerate refined mesh" in err
    assert "J^-T is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("max_iterations", [30, 35])
def test_tiny_domain_solve_fails_at_level_0(tmp_path, capsys, max_iterations):
    """x_hi = 1e-305: the level-0 load has max|b| = 5e-306, whose unscaled
    2-norm underflows.  It is still solved, and the solve is judged: the
    solution underflows to 0, so the relative residual stays 1 and the run
    exits 3 at level 0, with no traceback and no output directory."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = incompatible\nx_hi = 1e-305\nmax_iterations = {max_iterations}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "error: solver failure: level solve on 12 dofs did not converge: " \
           "relative residual 1.000e+00" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_overflowing_iterate_fails_without_warning(tmp_path):
    """heat-smooth on x_hi = 1e-100: the level-0 LU solve returns a solution
    whose residual norm overflows.  The solve judges it as not converged
    without a numpy warning, so even under -W error::RuntimeWarning the run
    exits 3 with one error line."""
    import stfosls

    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = heat-smooth\ndegree = 1\nmode = uniform\nlevels = 3\nx_hi = 1e-100\n")
    env = dict(os.environ, PYTHONPATH=str(Path(stfosls.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stfosls.cli", "run", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 3
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: solver failure: level solve on 12 dofs")
    assert "Warning" not in out.stderr
    assert not (tmp_path / "o").exists()


def test_verify_negative_seed_exit_2(capsys):
    """numpy's generators take no negative seed: it is bad usage (exit 2),
    named by its flag, not a failed verification."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("a bug"), InvalidDataError("bad data")])
def test_other_value_errors_are_not_config_errors(tmp_path, monkeypatch, capsys, error):
    """A degenerate element and invalid problem data (named by the config's
    case) map to exit 2; any other ValueError raised during the run
    propagates."""
    import stfosls.cli as cli

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = heat-smooth\n")
    argv = ["run", str(cfg), "--out", str(tmp_path / "o")]
    if isinstance(error, InvalidDataError):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: invalid config: case = heat-smooth: bad data\n"
    else:
        with pytest.raises(ValueError, match="a bug"):
            main(argv)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,message", [
    ("case = variable-a\nt_end = 5\nx_lo = -1\n",
     "error: invalid config: case = variable-a: diffusion A is not positive at (t, x) = "),
    ("t_end = 1e200\nx_hi = 1e200\nmode = uniform\nlevels = 2\n",
     "error: invalid config: t_end = 1e+200 gives a degenerate initial mesh: element 0 is "
     "degenerate: det J or J^-T is not finite (det=inf)"),
], ids=["nonpositive-diffusion", "overflowing-det"])
def test_invalid_problem_data_exit_2(tmp_path, capsys, text, message):
    """Valid-looking keys can still give invalid data: variable-a's
    A = 1 + t x / 2 is negative for t_end = 5 and x_lo = -1, and det J of
    1e200-sized initial elements overflows.  Both exit 2 with one error
    line, without a numpy warning (the suite turns RuntimeWarning into an
    error) and without an output directory."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not (tmp_path / "o").exists()


def test_internal_invariant_exit_4(tmp_path, monkeypatch):
    import stfosls.cli as cli
    from stfosls.driver import MarkingPropertyError

    def boom(*args, **kwargs):
        raise MarkingPropertyError("violated")

    monkeypatch.setattr(cli, "run", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(INCOMPATIBLE_ADAPTIVE)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o").exists()  # a failed run leaves no output directory


def test_import_leaves_sparse_linalg_unloaded():
    """The factorization imports scipy.sparse.linalg on first use, so start-up
    does not pay for it."""
    import stfosls

    src = str(Path(stfosls.__file__).resolve().parents[1])
    code = "import sys, stfosls, stfosls.cli; print('scipy.sparse.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_poisson_config(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("system = poisson\nmode = uniform\nlevels = 2\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = (out / "runlog.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert float(rows[0].split(",")[4]) > 0  # manufactured reference available
    assert parse_config("system = poisson\n").case == "poisson-sine"
    assert parse_config("system = poisson\ncase = poisson-sine\n").case == "poisson-sine"


@pytest.mark.parametrize("line,key", [("case = incompatible", "case"), ("case = heat-smooth", "case"),
                                      ("form = gradient", "form"), ("form = flux", "form")])
def test_poisson_rejects_parabolic_keys_exit_2(tmp_path, capsys, line, key):
    """A Poisson config has the one case poisson-sine and no convection form:
    any other case, and any form, is rejected by name instead of ignored."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"system = poisson\nmode = uniform\nlevels = 2\n{line}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: invalid config: {key} " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repeated_key_keeps_last_value():
    """A key given twice keeps its last value; the benchmark's warm-up
    appends ``levels`` and ``max_iterations`` to configs that already set them."""
    config = parse_config("case = heat-smooth\ncase = incompatible\ndegree = 2\ndegree = 1\n"
                          "max_iterations = 40\nmax_iterations = 1\n")
    assert config.case == "incompatible" and config.degree == 1
    assert config.stop.max_iterations == 1
    assert parse_config("mode = uniform\nlevels = 5\nlevels = 2\n").stop.max_iterations == 1


@pytest.mark.parametrize("config", sorted((DEMOS / "configs").glob("*.cfg")),
                         ids=lambda path: path.stem)
def test_demo_config_runs(config, tmp_path):
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0


def _load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_scripts_import():
    """Each demo runs its main() only as a script; importing it resolves every
    name it takes from the package."""
    paths = sorted(DEMOS.glob("*.py"))
    assert paths
    for path in paths:
        assert callable(_load_demo(path).main)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_script_runs(path, tmp_path, capsys, monkeypatch):
    """Each demo's main() runs in process and prints its table; the adaptive
    demo writes only into the directory it is given, and nothing is written
    under demos/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = sorted(DEMOS.rglob("*"))
    module = _load_demo(path)
    if path.stem == "adaptive_incompatible":
        module.main(out_dir=tmp_path, max_dofs=300)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh_final.txt", "runlog.csv"]
    else:
        module.main()
    assert capsys.readouterr().out.strip()
    assert sorted(DEMOS.rglob("*")) == before
