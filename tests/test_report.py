import json
import re
import shutil
from operator import attrgetter
from statistics import fmean

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from wisebe import (AlignmentError, BadThreshold, Document, EvalConfig,
                    Transcript, UnknownFormat, evaluate_agreement,
                    evaluate_corpus, evaluate_document, load_corpus,
                    load_document, render_agreement, render_report)
from wisebe.report import EvaluationReport, _fmt
from oracles import cell_by_rounding
from strategies import reference_set, write_files

# The json and csv fields of a report with no baseline columns, as README lists them.
FIELDS = ("doc_id", "system", "precision", "recall", "f1", "f1_mean", "f1_rw",
          "agreement_ratio", "wisebe", "kappa")


@pytest.fixture(scope="module")
def demo_report(demo_corpus):
    return evaluate_corpus(load_corpus(demo_corpus))


def test_demo_corpus_document_stats(demo_report):
    stats = {d.doc_id: d for d in demo_report.documents}
    assert set(stats) == {"v1", "v2", "v3", "v4"}
    # agreement ratios verified by counting votes in the corpus files by hand
    assert stats["v1"].agreement_ratio == pytest.approx(13 / 18, abs=1e-15)
    assert stats["v2"].agreement_ratio == pytest.approx(21 / 24, abs=1e-15)
    assert stats["v3"].agreement_ratio == pytest.approx(15 / 24, abs=1e-15)
    assert stats["v4"].agreement_ratio == pytest.approx(19 / 33, abs=1e-15)
    assert stats["v1"].reference_boundaries == (("ref_1", 5), ("ref_2", 6), ("ref_3", 3))


def test_demo_corpus_rows_are_sorted_and_complete(demo_report):
    keys = [(r.doc_id, r.system) for r in demo_report.rows]
    assert keys == sorted(keys)
    assert len(keys) == 8
    assert demo_report.correlation is not None
    assert demo_report.correlation.sample_count == 4
    assert demo_report.errors == ()


def test_aggregates_use_full_precision_values(demo_report):
    s1 = next(a for a in demo_report.aggregates if a.system == "S1")
    rows = [r for r in demo_report.rows if r.system == "S1"]
    assert s1.score.wisebe == pytest.approx(fmean(r.score.wisebe for r in rows), abs=1e-15)
    assert s1.mean.f1 == pytest.approx(fmean(r.mean.f1 for r in rows), abs=1e-15)
    assert s1.kappa == pytest.approx(fmean(r.kappa for r in rows), abs=1e-15)


def test_mean_rows_average_the_baselines_of_every_document(demo_corpus):
    report = evaluate_corpus(load_corpus(demo_corpus),
                             EvalConfig(baselines=True, consensus_threshold=2))
    for mean in report.aggregates:
        rows = [r for r in report.rows if r.system == mean.system]
        assert len(rows) == 4
        for value in map(attrgetter, ("mean_ser", "lenient.f1", "consensus.f1")):
            assert value(mean) == pytest.approx(fmean(map(value, rows)), abs=1e-15)


def test_json_schema_and_rounding(demo_report):
    records = json.loads(render_report(demo_report, "json"))
    assert isinstance(records, list)
    # 8 system rows plus one mean row per system
    assert len(records) == 10
    for record in records:
        assert tuple(record) == FIELDS
        for key in FIELDS[2:]:
            assert record[key] == round(record[key], 3)
    assert records[-2]["doc_id"] == "mean"
    by_key = {(r["doc_id"], r["system"]): r for r in records}
    row = by_key[("v1", "S1")]
    assert row["f1"] == row["f1_mean"]
    assert row["agreement_ratio"] == 0.722


def test_csv_round_trips_the_same_fields(demo_report):
    lines = render_report(demo_report, "csv").decode().splitlines()
    assert lines[0] == ",".join(FIELDS)
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "v1"
    # three fixed decimals everywhere
    assert all("." in cell and len(cell.split(".")[1]) == 3 for cell in first[2:])


def test_table_sections(demo_report):
    text = render_report(demo_report, "table").decode()
    for section in ("boundary counts", "exact-position scores",
                    "windowed scores", "reference agreement"):
        assert f"== {section} ==" in text
    assert "pearson r = " in text
    assert "mean" in text


def test_baseline_columns_appear_only_when_requested(demo_corpus):
    layout = load_corpus(demo_corpus)
    plain = json.loads(render_report(evaluate_corpus(layout), "json"))
    assert "mean_ser" not in plain[0]
    config = EvalConfig(baselines=True, consensus_threshold=2)
    rich = json.loads(render_report(evaluate_corpus(layout, config), "json"))
    for key in ("mean_ser", "lenient_f1", "consensus_f1"):
        assert key in rich[0]


def test_render_rejects_unknown_format(demo_report):
    with pytest.raises(UnknownFormat):
        render_report(demo_report, "yaml")
    with pytest.raises(UnknownFormat):
        render_agreement(EvaluationReport((), (), (), None), "yaml")


def test_empty_corpus_renders_valid_empty_outputs(tmp_path):
    report = evaluate_corpus(load_corpus(tmp_path))
    assert json.loads(render_report(report, "json")) == []
    lines = render_report(report, "csv").decode().splitlines()
    assert lines == [",".join(FIELDS)]
    assert b"nothing evaluated" in render_report(report, "table")


def test_document_failures_are_collected_not_fatal(tmp_path):
    write_files(tmp_path, {"good/ref_1.txt": "go on. stop.", "good/ref_2.txt": "go on stop.",
                           "bad/ref_1.txt": "yes sir.", "bad/ref_2.txt": "no sir."})
    report = evaluate_corpus(load_corpus(tmp_path))
    assert [d.doc_id for d in report.documents] == ["good"]
    assert len(report.errors) == 1
    assert report.errors[0].doc_id == "bad"
    assert report.errors[0].kind == "AlignmentError"
    assert report.correlation is None
    text = render_report(report, "table").decode()
    assert "document errors" in text


@pytest.mark.parametrize("options, error, message", [
    ({"window_limit": -1}, ValueError, "window limit must be >= 0, got -1"),
    ({"consensus_threshold": 0}, BadThreshold, "threshold must be >= 1, got 0"),
    ({"window_limit": 2.5}, ValueError, "window limit must be an integer, got 2.5"),
    ({"window_limit": True}, ValueError, "window limit must be an integer, got True"),
    ({"window_limit": "2"}, ValueError, "window limit must be an integer, got '2'"),
    ({"consensus_threshold": 1.5}, BadThreshold, "threshold must be an integer, got 1.5"),
    ({"consensus_threshold": True}, BadThreshold, "threshold must be an integer, got True"),
    ({"baselines": "no"}, ValueError, "baselines must be a bool, got 'no'"),
    ({"baselines": None}, ValueError, "baselines must be a bool, got None"),
    ({"baselines": 1}, ValueError, "baselines must be a bool, got 1"),
], ids=["window-limit", "threshold", "window-limit-float", "window-limit-bool",
        "window-limit-str", "threshold-float", "threshold-bool", "baselines-str",
        "baselines-none", "baselines-int"])
def test_out_of_range_options_fail_before_any_document(demo_corpus, monkeypatch,
                                                       options, error, message):
    # No document can accept them, so a library run fails once, with the
    # command line's error, instead of once per document.
    layout = load_corpus(demo_corpus)
    monkeypatch.setattr("wisebe.report.load_document",
                        lambda files: pytest.fail(f"document {files.doc_id!r} was read"))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        evaluate_corpus(layout, EvalConfig(**options))
    assert type(info.value) is error


def test_evaluate_single_document(demo_corpus):
    layout = load_corpus(demo_corpus)
    one = layout._replace(documents=layout.documents[:1])
    report = evaluate_corpus(one, EvalConfig(window_limit=3))
    assert len(report.documents) == 1
    assert report.correlation is None
    assert {a.system for a in report.aggregates} == {"S1", "S2"}


def test_rows_keep_the_documents_order(demo_corpus):
    # a Document built directly, two of its systems sharing a label, is
    # scored in the order it holds them
    doc = load_document(load_corpus(demo_corpus).documents[0])
    (_, first), (_, second) = doc.candidates[:2]
    twins = Document(doc.transcript, doc.references, (("S", second), ("S", first), ("R", first)))
    _, rows = evaluate_document(twins)
    assert [row.system for row in rows] == ["S", "S", "R"]
    assert rows[0].score == evaluate_document(Document(
        doc.transcript, doc.references, (("S", second),)))[1][0].score


@pytest.mark.parametrize("tokens, mismatch", [
    (("a",), "3 vs 1 positions"), (("a", "b", "c"), "document 'd' vs 'x'"),
], ids=["length", "doc_id"])
def test_references_must_cover_the_transcript(tokens, mismatch):
    # a Document built directly is checked as a loaded one is
    with pytest.raises(AlignmentError,
                       match=f"^references of document 'x': {re.escape(mismatch)}$"):
        Document(Transcript("x", tokens), reference_set((1, 0, 1), (0, 0, 1)), ())


def test_agreement_report(demo_corpus):
    report = evaluate_agreement(load_corpus(demo_corpus))
    assert [s.doc_id for s in report.documents] == ["v1", "v2", "v3", "v4"]
    payload = json.loads(render_agreement(report, "json"))
    assert payload["sample_count"] == 4
    assert payload["pcc"] == pytest.approx(0.947, abs=0.001)
    csv_lines = render_agreement(report, "csv").decode().splitlines()
    assert csv_lines[0] == "doc_id,agreement_ratio,kappa"
    assert len(csv_lines) == 5
    table = render_agreement(report, "table").decode()
    assert "pearson r = 0.947 over 4 documents" in table


def test_rendering_is_deterministic(demo_corpus):
    layout = load_corpus(demo_corpus)
    first = render_report(evaluate_corpus(layout), "json")
    second = render_report(evaluate_corpus(load_corpus(demo_corpus)), "json")
    assert first == second


def test_undefined_kappa_is_left_out_of_means_and_correlation(demo_corpus, tmp_path):
    for doc in ("v1", "v3", "v4"):
        shutil.copytree(demo_corpus / doc, tmp_path / doc)
    write_files(tmp_path / "tiny", {"ref_1.txt": "hello.", "ref_2.txt": "hello!",
                                    "sys_S1.txt": "hello."})
    layout = load_corpus(tmp_path)
    agreement = evaluate_agreement(layout)
    assert [s.kappa is None for s in agreement.documents] == [True, False, False, False]
    assert agreement.correlation.sample_count == 3
    report = evaluate_corpus(layout)
    assert report.errors == ()
    assert report.correlation == agreement.correlation
    s1 = next(a for a in report.aggregates if a.system == "S1")
    assert s1.kappa is None
    assert s1.score.wisebe == pytest.approx(fmean(r.score.wisebe for r in report.rows
                                                  if r.system == "S1"), abs=1e-15)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(0.0625)     # an exact tie at three decimals: half-even gives 0.062
@example(2.5e-4)     # a decimal tie whose binary value lies just above it
def test_cells_print_as_once_rounded_and_printed(x):
    assert _fmt(x) == cell_by_rounding(x)
