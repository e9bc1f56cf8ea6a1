"""The suite's own pytest configuration, run in a child pytest."""

import os
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_THEN_PLAIN = '''
import hypothesis
from hypothesis import strategies as st


@hypothesis.given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_after_it():
    pass
'''


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    # under filterwarnings = error, reporting a falsified property must not
    # end the run in an INTERNALERROR: pytest exits 1 and runs the next test
    (tmp_path / "test_probe.py").write_text(PROPERTY_THEN_PLAIN)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
