import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(min_value=0))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Reporting a hypothesis failure imports libcst, which warns through
    # mypy_extensions; under this suite's filterwarnings that warning must not
    # abort the session before the failure and the tests after it are reported.
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example" in result.stdout
