"""The repository's pytest configuration, run on throwaway test files."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis imports libcst to print a failing example as a patch; under
    # filterwarnings = ["error"] the import's DeprecationWarning was an
    # INTERNALERROR that ended the session before the passing test ran
    (tmp_path / "test_throwaway.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
