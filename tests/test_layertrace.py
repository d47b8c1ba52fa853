"""The benchmark tracer must find every function it times and read every
counter it reports, so a refactor cannot switch a per-layer metric or a
harness invariant off without failing here."""

import sys

import pytest

from conftest import REPO_ROOT
from wisebe import load_corpus, load_document
from wisebe.cli import main

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
import layertrace  # noqa: E402

EVAL_COUNTERS = {
    "model.parse_segmented_text.tokens", "corpus.load_document.bytes",
    "corpus.load_corpus.documents", "aggregation.build_window_reference.windows",
    "report.render_report.bytes", "report.evaluate_corpus.errors",
}
AGREEMENT_COUNTERS = {
    "model.parse_segmented_text.tokens", "corpus.load_document.bytes",
    "corpus.load_corpus.documents", "report.render_agreement.bytes",
    "report.evaluate_agreement.errors",
}


@pytest.mark.parametrize("argv, counters", [
    (["eval", "--baselines", "--threshold", "2"], EVAL_COUNTERS),
    (["agreement"], AGREEMENT_COUNTERS),
])
def test_traced_run_reads_every_target_and_counter(demo_corpus, tmp_path, argv, counters):
    tracer = layertrace.Tracer()
    with tracer:
        tracer.request()
        code = main([*argv, str(demo_corpus), "--output", str(tmp_path / "out")])
    assert code == 0
    assert tracer.absent == []
    counts = layertrace.summarize(tracer.take()).counts
    assert set(counts) == counters
    assert all(type(total) is int for total in counts.values()), counts


def test_traced_eval_parses_each_text_file_once(demo_corpus, tmp_path):
    """The harness reads `model.parse_calls` and `model.tokens_parsed` from
    one parse per text file, so a document of f files and n tokens shows
    f parse spans under its load, whose token counts sum to f x n."""
    tracer = layertrace.Tracer()
    with tracer:
        tracer.request()
        assert main(["eval", str(demo_corpus), "--output", str(tmp_path / "out")]) == 0
    spans = tracer.take()
    parses: dict[int, list[int]] = {}
    for span in spans:
        if span.name == "model.parse_segmented_text":
            parses.setdefault(span.parent, []).append(span.counts["tokens"])
    loads = [span.id for span in spans if span.name == "corpus.load_document"]
    expected = []
    for files in load_corpus(demo_corpus).documents:
        if files.structured_path is None:
            count = len(files.ref_paths) + len(files.sys_paths)
            expected.append((count, count * load_document(files).transcript.n))
    assert set(parses) <= set(loads)
    assert sorted((len(tokens), sum(tokens)) for tokens in parses.values()) == sorted(expected)
