"""The suite's pytest settings, run on small throwaway test files."""
import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run_pytest(tmp_path, source):
    """Run pytest with the repository's settings on one file holding
    ``source``, from ``tmp_path``, so hypothesis's report lands there."""
    test_file = tmp_path / "test_throwaway.py"
    test_file.write_text(textwrap.dedent(source))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return result.stdout + result.stderr


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which raises a
    # DeprecationWarning; under "error" alone that stopped the session
    out = _run_pytest(tmp_path, """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers(0, 10))
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_deprecation_warning_from_test_code_still_fails(tmp_path):
    out = _run_pytest(tmp_path, """
        import warnings

        def test_warns():
            warnings.warn("retired", DeprecationWarning)

        def test_passes():
            pass
    """)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "DeprecationWarning: retired" in out
