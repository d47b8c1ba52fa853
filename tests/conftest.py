import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# `tests/mutants.py` runs with this one: a killed mutant needs only the
# failure, and shrinking it took most of the list's time.
settings.register_profile(
    "mutants",
    parent=settings.get_profile("ci"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
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
