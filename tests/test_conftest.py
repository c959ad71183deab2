"""The suite's session setup: a failing property test is reported, and the tests after it run."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_plain():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    # under the suite's own settings (pyproject.toml's filterwarnings = ["error"]) and conftest
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    shutil.copy(TESTS / "conftest.py", tmp_path)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
