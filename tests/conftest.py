import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

REPO_ROOT = Path(__file__).resolve().parent.parent

# pyproject.toml puts src/ on sys.path for this process; the tests that
# run `python -m wisebe` in a subprocess need it on PYTHONPATH as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def demo_corpus() -> Path:
    return REPO_ROOT / "data" / "synthetic_corpus"
