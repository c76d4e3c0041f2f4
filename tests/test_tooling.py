"""The repository's pytest configuration, run on throwaway test files, and
the package's export lists."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import sidlab

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


def test_every_export_resolves_and_the_package_imports_only_exports():
    # a name deleted from a module but left in its __all__ imports cleanly
    # and fails only under `from module import *`
    for info in pkgutil.iter_modules(sidlab.__path__):
        module = importlib.import_module(f"sidlab.{info.name}")
        missing = [x for x in getattr(module, "__all__", ())
                   if not hasattr(module, x)]
        assert not missing, f"sidlab.{info.name}.__all__ names {missing}"
    tree = ast.parse(Path(sidlab.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            module = importlib.import_module(f"sidlab.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, \
                    f"sidlab imports {alias.name}, not in {node.module}.__all__"
