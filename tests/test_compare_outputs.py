"""The output comparison of two source trees, ``tools/compare_outputs.py``:
a tree against itself reports nothing, and an output-changing edit is named."""

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
    assert capsys.readouterr().out == "compared 2 runs, 6 files, 4 levels: 0 differences\n"


def test_output_changing_edit_is_named(tmp_path, capsys):
    """A copy whose rules are one degree more exact changes every estimator,
    matrix and load: the comparison exits 1 and names the run logs."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    spaces = src / "stfosls" / "spaces.py"
    text = spaces.read_text()
    assert text.count("build_quadrature(2 * p + 2)") == 1
    spaces.write_text(text.replace("build_quadrature(2 * p + 2)", "build_quadrature(2 * p + 3)"))
    assert COMPARE([str(ROOT / "src"), str(src), *_configs(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "heat/runlog.csv: differs" in out and "poisson/runlog.csv: differs" in out
    assert "heat level 1: load differs" in out
    assert out[-1].startswith("compared 2 runs, 6 files, 4 levels: ")
