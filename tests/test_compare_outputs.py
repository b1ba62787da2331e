"""The output comparison of two source trees, ``tools/compare_outputs.py``:
a tree against itself reports nothing, and an edit is named whether it
changes an output file, only a level's solve, only what a run prints or
only what ``verify`` prints."""

import runpy
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPARE = runpy.run_path(str(ROOT / "tools" / "compare_outputs.py"))["main"]
CONFIGS = {
    "heat": "case = heat-smooth\nmode = uniform\nlevels = 2\n",
    "poisson": "system = poisson\nmode = uniform\ndegree = 2\nlevels = 2\n",
}


def _configs(tmp_path):
    paths = []
    for name, text in CONFIGS.items():
        paths.append(tmp_path / f"{name}.cfg")
        paths[-1].write_text(text)
    return [str(path) for path in paths]


def test_tree_against_itself_is_identical(tmp_path, capsys):
    assert COMPARE([str(ROOT / "src"), str(ROOT / "src"), *_configs(tmp_path)]) == 0
    assert capsys.readouterr().out == "compared 2 runs, 6 files, 4 levels and verify: 0 differences\n"


def _edited_copy(tmp_path, module, old, new):
    """A copy of ``src`` whose ``stfosls/<module>`` has its one ``old`` replaced by ``new``."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "stfosls" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return src


def test_output_changing_edit_is_named(tmp_path, capsys):
    """A copy whose rules are one degree more exact changes every estimator,
    matrix and load: the comparison exits 1 and names the run logs."""
    src = _edited_copy(tmp_path, "spaces.py", "build_quadrature(2 * p + 2)", "build_quadrature(2 * p + 3)")
    assert COMPARE([str(ROOT / "src"), str(src), *_configs(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "heat/runlog.csv: differs" in out and "poisson/runlog.csv: differs" in out
    assert "heat level 1: load differs" in out
    assert out[-1].startswith("compared 2 runs, 6 files, 4 levels and verify: ")


def test_solve_only_edit_is_named(tmp_path, capsys):
    """A copy whose level solve reports twice the Galerkin defect, which no
    output file holds: the comparison exits 1 and names each level's report,
    and nothing else."""
    src = _edited_copy(tmp_path, "assembly.py", "defect = math.ldexp(r_max, exponent) / b_norm",
                       "defect = 2 * math.ldexp(r_max, exponent) / b_norm")
    assert COMPARE([str(ROOT / "src"), str(src), *_configs(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{run} level {k}: report differs" for run in CONFIGS for k in range(2)] \
        + ["compared 2 runs, 6 files, 4 levels and verify: 4 differences"]


def test_message_only_edit_is_named(tmp_path, capsys):
    """A copy whose config error words one message differently, run on a
    config it rejects: no file or level differs, so the comparison exits 1
    naming the run's stderr alone."""
    src = _edited_copy(tmp_path, "cli.py", "need x_lo < x_hi, got", "need x_lo < x_hi; got")
    bad = tmp_path / "bad.cfg"
    bad.write_text("x_lo = 1\n")
    assert COMPARE([str(ROOT / "src"), str(src), str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == ["bad: stderr differs",
                                                    "compared 1 runs, 0 files, 0 levels and verify: 1 differences"]


def test_config_keeps_its_own_write_mesh(tmp_path, capsys):
    """``write_mesh = true`` is forced only on a config that does not set
    ``write_mesh``: a config whose one fault is its ``write_mesh`` value is
    rejected by both trees, so an edit of that message is named, and a
    config with ``write_mesh = false`` writes no mesh."""
    src = _edited_copy(tmp_path, "cli.py", "write_mesh must be boolean, got", "write_mesh must be boolean; got")
    bad, off = tmp_path / "bad.cfg", tmp_path / "off.cfg"
    bad.write_text("write_mesh = maybe\n")
    off.write_text("levels = 1\nwrite_mesh = false\n")
    assert COMPARE([str(ROOT / "src"), str(src), str(bad), str(off)]) == 1
    assert capsys.readouterr().out.splitlines() == ["bad: stderr differs",
                                                    "compared 2 runs, 2 files, 1 levels and verify: 1 differences"]


def test_oracle_edit_is_named(tmp_path, capsys):
    """A copy whose oracle reports the second-smallest eigenvalue as the
    smallest changes no run, since ``stfosls run`` never imports the
    oracles, but changes what ``verify`` prints: the comparison exits 1
    naming verify's stdout alone."""
    src = _edited_copy(tmp_path, "oracles.py", "eigvalsh(matrix)[0]", "eigvalsh(matrix)[1]")
    assert COMPARE([str(ROOT / "src"), str(src), _configs(tmp_path)[0]]) == 1
    assert capsys.readouterr().out.splitlines() == ["verify: stdout differs",
                                                    "compared 1 runs, 3 files, 2 levels and verify: 1 differences"]
