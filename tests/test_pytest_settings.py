"""The suite's pytest settings, checked by a fresh pytest run on a scratch file.

``pyproject.toml`` turns every warning into an error.  Reporting a failing
``@given`` example makes hypothesis import libcst, which warns on import;
raised inside a pytest hook, that warning ended the whole session at the
first failing property test, so the tests after it never ran.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRATCH_TESTS = """
    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_scratch.py").write_text(textwrap.dedent(SCRATCH_TESTS))
    # the outer run's PYTEST_ADDOPTS and the like must not reach the inner run
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_scratch.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
