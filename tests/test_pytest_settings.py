"""The suite's own pytest settings still let a failing property test report its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_on_some_integer(x):
    assert x < 10
"""


def test_a_failing_property_test_shows_its_falsifying_example(tmp_path):
    # pyproject.toml turns warnings into errors; one that hypothesis itself raises while it
    # reports a failure must not end the session in an INTERNALERROR instead
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
