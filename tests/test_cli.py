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
    assert config.mode == "uniform"
    assert config.stop.max_iterations == 2
    assert config.write_mesh
    assert config.nt == 2 and config.nx == 2


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("not_a_key = 1")
    with pytest.raises(ConfigError):
        parse_config("degree 2")


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
    cfg = tmp_path / "run.cfg"
    cfg.write_text(INCOMPATIBLE_ADAPTIVE)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "runlog.csv").read_bytes())
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
], ids=["out-before-run", "seed-on-run", "seed-before-verify", "o-before-run",
        "ou-before-run", "s-before-verify", "se-before-verify"])
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


def test_singular_factor_exit_3(tmp_path, capsys, monkeypatch):
    """SuperLU's singular factor is a solver failure that names the level's
    dofs, not a traceback."""
    import dataclasses

    import stfosls.driver as driver

    assemble = driver.assemble

    def singular(*args):  # the level's pattern with every entry zero
        sparse = assemble(*args)
        return dataclasses.replace(sparse, matrix=0.0 * sparse.matrix)

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


def test_degenerate_refined_mesh_exit_2(tmp_path, capsys):
    """x_hi = 1e-305 passes the initial-mesh check, but refinement makes an
    element's J^-T overflow at a later level: invalid input, exit 2 naming
    the extent, without a traceback and without a run log."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = incompatible\nx_hi = 1e-305\nmax_iterations = 35\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: invalid config: x_hi - x_lo = 1e-305 gives a degenerate refined mesh" in err
    assert "J^-T is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "runlog.csv").exists()


@pytest.mark.parametrize("error", [ValueError("a bug"), InvalidDataError("bad data")])
def test_other_value_errors_are_not_config_errors(tmp_path, monkeypatch, error):
    """Only a degenerate element maps to exit 2; any other ValueError raised
    during the run propagates."""
    import stfosls.cli as cli

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = heat-smooth\n")
    with pytest.raises(type(error)):
        main(["run", str(cfg), "--out", str(tmp_path / "o")])


def test_internal_invariant_exit_4(tmp_path, monkeypatch):
    import stfosls.cli as cli
    from stfosls.driver import MarkingPropertyError

    def boom(*args, **kwargs):
        raise MarkingPropertyError("violated")

    monkeypatch.setattr(cli, "run", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(INCOMPATIBLE_ADAPTIVE)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4


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


def test_demo_scripts_import():
    """Each demo runs its main() only as a script; importing it resolves every
    name it takes from the package."""
    paths = sorted(DEMOS.glob("*.py"))
    assert paths
    for path in paths:
        spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
