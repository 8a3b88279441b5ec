"""The suite's pytest settings, checked by running pytest on a small test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""

OWN_DEPRECATION_WARNING = """
import warnings


def test_warns():
    warnings.warn("an old call", DeprecationWarning)
"""


def run_pytest(tmp_path, source):
    (tmp_path / "test_sample.py").write_text(source)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    return subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_failing_given_test_reported_and_later_tests_run(tmp_path):
    # Hypothesis's failure report must not end the session with INTERNALERROR.
    result = run_pytest(tmp_path, FAILING_GIVEN_THEN_PASSING)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_deprecation_warning_of_own_code_still_fails(tmp_path):
    result = run_pytest(tmp_path, OWN_DEPRECATION_WARNING)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed" in result.stdout
