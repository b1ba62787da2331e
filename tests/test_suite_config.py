"""The suite's own pytest configuration keeps running after a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Under the suite's warning filters a failing ``@given`` test is
    reported as a failure and the session goes on to the next test.

    Hypothesis' report hook imports libcst when a test fails, and libcst's
    use of ``mypy_extensions.TypedDict`` warns with a DeprecationWarning,
    which ``error::DeprecationWarning`` alone would turn into an
    INTERNALERROR (exit 3) that skips every later test."""
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st


        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 5


        def test_passes():
            pass
        """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
