"""The benchmark harness's own self-test must pass against the package."""

import subprocess
import sys

from conftest import REPO_ROOT


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, str(REPO_ROOT / "benchmarks" / "selftest.py")],
                            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
