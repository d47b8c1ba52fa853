"""The demo-corpus reports must stay byte-identical to the recorded goldens."""

import sys

from conftest import REPO_ROOT
from wisebe.cli import main

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
import goldens  # noqa: E402


def test_demo_corpus_reports_match_goldens(tmp_path):
    attempted, failures = goldens.check(main, REPO_ROOT, tmp_path)
    assert attempted == 15
    assert failures == []
