"""Corpus evaluation and report rendering (table, json, csv)."""

from __future__ import annotations

import csv
import io
import json
from typing import Callable, NamedTuple

from .aggregation import (DEFAULT_WINDOW_LIMIT, GeneralReference,
                          build_general_reference, build_window_reference,
                          consensus_reference)
from .agreement import CorrelationResult, pearson
from .baselines import (PRF, lenient_prf, mask_prf, mean_prf, mean_ser,
                        strict_prf)
from .corpus import CorpusLayout, Document, load_document
from .errors import USER_ERRORS, BadThreshold, ConstantSequence, UnknownFormat
from .model import check_option
from .scoring import WisebeScore, arithmetic_mean, mean_defined, window_score

MEAN_ROW_ID = "mean"


class EvalConfig(NamedTuple("EvalConfig", [("window_limit", int), ("baselines", bool),
                                             ("consensus_threshold", int | None)])):
    __slots__ = ()

    def __new__(cls, window_limit: int = DEFAULT_WINDOW_LIMIT, baselines: bool = False,
                consensus_threshold: int | None = None):
        check_option(window_limit, "window limit")
        if type(baselines) is not bool:
            raise ValueError(f"baselines must be a bool, got {baselines!r}")
        if consensus_threshold is not None:
            check_option(consensus_threshold, "threshold", BadThreshold, low=1)
        return tuple.__new__(cls, (window_limit, baselines, consensus_threshold))

    _make = classmethod(lambda cls, fields: cls(*fields))    # as Transcript._make


class SystemRow(NamedTuple):
    """All scores of one system on one document, at full precision.

    A per-system mean row has doc_id "mean" and no per-reference scores;
    each of its values is the arithmetic mean over the system's document
    rows, or None when some document's value is None.
    """

    doc_id: str
    system: str
    per_reference: tuple[tuple[str, PRF], ...]
    mean: PRF
    score: WisebeScore
    kappa: float | None
    mean_ser: float | None = None
    lenient: PRF | None = None
    consensus: PRF | None = None


class DocumentSummary(NamedTuple):
    doc_id: str
    agreement_ratio: float
    kappa: float | None
    reference_boundaries: tuple[tuple[str, int], ...]
    system_boundaries: tuple[tuple[str, int], ...]


class DocumentError(NamedTuple):
    doc_id: str
    kind: str
    message: str


class EvaluationReport(NamedTuple):
    """A corpus report; a reference-only agreement report has no rows."""

    rows: tuple[SystemRow, ...]
    documents: tuple[DocumentSummary, ...]
    aggregates: tuple[SystemRow, ...]
    correlation: CorrelationResult | None
    errors: tuple[DocumentError, ...] = ()


def _summarize(doc: Document) -> tuple[GeneralReference, DocumentSummary]:
    """A document's vote profile and its summary."""
    general = build_general_reference(doc.references)
    return general, DocumentSummary(
        doc.doc_id, general.ar, general.kappa,
        tuple((ref.label, ref.boundary_count) for ref in doc.references.references),
        tuple((name, cand.boundary_count) for name, cand in doc.candidates),
    )


def evaluate_document(doc: Document,
                      config: EvalConfig = EvalConfig()) -> tuple[DocumentSummary, list[SystemRow]]:
    """Score every candidate of one document, in the document's order,
    against one vote profile and one window reference."""
    refs = doc.references.references
    if MEAN_ROW_ID in (doc.doc_id, *(ref.label for ref in refs)):
        raise ValueError(f"document {doc.doc_id!r}: {MEAN_ROW_ID!r} names the mean rows")
    general, summary = _summarize(doc)
    consensus = (consensus_reference(general, config.consensus_threshold)
                 if config.consensus_threshold is not None else None)
    windows = build_window_reference(general, config.window_limit)
    rows = []
    for name, cand in doc.candidates:
        scores = [strict_prf(cand, ref) for ref in refs]
        rows.append(SystemRow(
            doc_id=doc.doc_id,
            system=name,
            per_reference=tuple(zip((ref.label for ref in refs), scores)),
            mean=mean_prf(scores),
            score=window_score(cand, windows, summary.agreement_ratio),
            kappa=summary.kappa,
            mean_ser=mean_ser(scores) if config.baselines else None,
            lenient=lenient_prf(cand, general) if config.baselines else None,
            consensus=mask_prf(cand.mask, consensus) if consensus is not None else None,
        ))
    return summary, rows


def _mean_rows(rows) -> tuple[SystemRow, ...]:
    by_system: dict[str, list[SystemRow]] = {}
    for row in rows:
        by_system.setdefault(row.system, []).append(row)
    return tuple(
        SystemRow(MEAN_ROW_ID, system, (),
                  mean=mean_prf(r.mean for r in group),
                  score=WisebeScore(*map(arithmetic_mean, zip(*(r.score for r in group)))),
                  kappa=mean_defined(arithmetic_mean, [r.kappa for r in group]),
                  mean_ser=mean_defined(arithmetic_mean, [r.mean_ser for r in group]),
                  lenient=mean_defined(mean_prf, [r.lenient for r in group]),
                  consensus=mean_defined(mean_prf, [r.consensus for r in group]))
        for system, group in sorted(by_system.items())
    )


def _correlate(documents) -> CorrelationResult | None:
    """Pearson r of (agreement ratio, kappa) over documents with a defined kappa."""
    pairs = [(d.agreement_ratio, d.kappa) for d in documents if d.kappa is not None]
    try:
        return pearson([x for x, _ in pairs], [y for _, y in pairs])
    except (ValueError, ConstantSequence):    # fewer than two pairs, or no variance
        return None


def _each_document(layout: CorpusLayout, evaluate: Callable[[Document], tuple]) -> EvaluationReport:
    """The report of `evaluate`'s (summary, rows) on every loaded document,
    collecting per-document failures instead of aborting the run."""
    results = []
    errors: list[DocumentError] = []
    for files in layout.documents:
        try:
            results.append(evaluate(load_document(files)))
        except USER_ERRORS as exc:
            errors.append(DocumentError(files.doc_id, type(exc).__name__, str(exc)))
    summaries = tuple(summary for summary, _ in results)
    rows = tuple(row for _, doc_rows in results for row in doc_rows)
    return EvaluationReport(rows, summaries, _mean_rows(rows), _correlate(summaries),
                            tuple(errors))


def evaluate_corpus(layout: CorpusLayout,
                    config: EvalConfig = EvalConfig()) -> EvaluationReport:
    """Score a whole corpus, collecting per-document failures instead of
    aborting the run."""
    return _each_document(layout, lambda doc: evaluate_document(doc, config))


def evaluate_agreement(layout: CorpusLayout) -> EvaluationReport:
    """Reference-only pass: agreement ratio and kappa per document, no rows."""
    return _each_document(layout, lambda doc: (_summarize(doc)[1], ()))


# ---------------------------------------------------------------------------
# rendering

class Column(NamedTuple):
    """One report column: its json/csv key, its table header (None when
    the column has no table cell), the dotted attribute path of its value,
    and the optional group it is shown with."""

    name: str
    header: str | None
    path: str
    group: str | None = None

    def get(self, item):
        head, _, tail = self.path.partition(".")    # paths have one or two levels
        value = getattr(item, head)
        return getattr(value, tail) if tail and value is not None else value


# Row columns in report order.  json and csv carry every column of a
# group that some row has a value for; the table's windowed section
# shows the ungrouped columns with a header, its baseline section the
# key columns and the grouped ones.
COLUMNS = (
    Column("doc_id", "doc", "doc_id"),
    Column("system", "system", "system"),
    Column("precision", None, "mean.precision"),
    Column("recall", None, "mean.recall"),
    Column("f1", None, "mean.f1"),
    Column("f1_mean", "f1_mean", "mean.f1"),
    Column("f1_rw", "f1_rw", "score.f1_rw"),
    Column("agreement_ratio", "agreement_ratio", "score.agreement_ratio"),
    Column("wisebe", "wisebe", "score.wisebe"),
    Column("kappa", None, "kappa"),
    Column("mean_ser", "mean_ser", "mean_ser", "baselines"),
    Column("lenient_precision", "lenient_p", "lenient.precision", "baselines"),
    Column("lenient_recall", "lenient_r", "lenient.recall", "baselines"),
    Column("lenient_f1", "lenient_f1", "lenient.f1", "baselines"),
    Column("consensus_precision", "consensus_p", "consensus.precision", "consensus"),
    Column("consensus_recall", "consensus_r", "consensus.recall", "consensus"),
    Column("consensus_f1", "consensus_f1", "consensus.f1", "consensus"),
)

# Per-document reference agreement, from DocumentSummary.
AGREEMENT_COLUMNS = (
    Column("doc_id", "doc", "doc_id"),
    Column("agreement_ratio", "agreement_ratio", "agreement_ratio"),
    Column("kappa", "kappa", "kappa"),
)

REPORT_FORMATS = ("csv", "json", "table")


def _groups(rows: tuple[SystemRow, ...]) -> set[str]:
    return {c.group for c in COLUMNS if c.group for r in rows if c.get(r) is not None}


def _round3(x):
    """Display rounding: bankers' rounding at three decimals."""
    return round(x, 3) if isinstance(x, float) else x


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.3f}"    # rounds the exact value half-even, as _round3 does
    return str(x)


def _cells(columns, items) -> list[list[str]]:
    return [[_fmt(c.get(item)) for c in columns] for item in items]


def _record(columns, item) -> dict:
    return {c.name: _round3(c.get(item)) for c in columns}


def _utf8(text: str) -> bytes:
    """UTF-8 bytes of a rendered report; a document id read from a
    non-UTF-8 file name gets its original bytes back."""
    return text.encode("utf-8", "surrogateescape")


def _json(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _csv(columns, items) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([c.name for c in columns])
    writer.writerows(_cells(columns, items))
    return _utf8(out.getvalue())


def _section(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    """The title line, then the header and rows padded to column width."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return [f"== {title} ==", *("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                               for row in (header, *rows))]


def _column_section(title: str, columns, items) -> list[str]:
    return _section(title, [c.header for c in columns], _cells(columns, items))


def _agreement_section(documents, correlation: CorrelationResult | None) -> list[str]:
    lines = _column_section("reference agreement", AGREEMENT_COLUMNS, documents)
    if correlation is not None:
        lines.append(f"pearson r = {_fmt(correlation.pcc)} "
                     f"over {correlation.sample_count} documents")
    else:
        lines.append("pearson r: not computed (needs two varying documents)")
    return lines


def _text(sections: list[list[str]]) -> bytes:
    """Table sections separated by one blank line."""
    return _utf8("\n\n".join("\n".join(lines) for lines in sections) + "\n")


def _render_table(report: EvaluationReport, groups: set[str]) -> bytes:
    sections: list[list[str]] = []
    if report.documents:
        sections.append(_section("boundary counts", ["doc", "source", "boundaries"], [
            [d.doc_id, label, str(count)] for d in report.documents
            for label, count in (*d.reference_boundaries, *d.system_boundaries)]))
    if report.rows:
        sections.append(_section(
            "exact-position scores", ["doc", "system", "reference", "precision", "recall", "f1"],
            [[r.doc_id, r.system, label, _fmt(prf.precision), _fmt(prf.recall), _fmt(prf.f1)]
             for r in report.rows for label, prf in (*r.per_reference, (MEAN_ROW_ID, r.mean))]))
        sections.append(_column_section("windowed scores",
                                        [c for c in COLUMNS if c.header and not c.group],
                                        report.rows + report.aggregates))
    if groups:
        # Once the section is there it always shows the baseline columns.
        columns = [*COLUMNS[:2],
                   *(c for c in COLUMNS if c.group == "baselines" or c.group in groups)]
        sections.append(_column_section("baseline scores", columns, report.rows))
    if report.documents:
        sections.append(_agreement_section(report.documents, report.correlation))
    if report.errors:
        sections.append(_section("document errors", ["doc", "kind", "message"],
                                 [[e.doc_id, e.kind, e.message] for e in report.errors]))
    return _text(sections or [["(empty corpus: nothing evaluated)"]])


def _render(fmt: str, **renderers: Callable[[], bytes]) -> bytes:
    """Dispatch on `fmt`; each report passes one renderer per REPORT_FORMATS entry."""
    if fmt not in renderers:
        raise UnknownFormat(f"unknown report format {fmt!r}, "
                            f"expected one of {REPORT_FORMATS}")
    return renderers[fmt]()


def render_report(report: EvaluationReport, fmt: str = "table") -> bytes:
    """Render an evaluation report; byte output is deterministic per input."""
    groups = _groups(report.rows)
    columns = [c for c in COLUMNS if c.group is None or c.group in groups]
    rows = report.rows + report.aggregates
    return _render(fmt, table=lambda: _render_table(report, groups),
                   json=lambda: _json([_record(columns, r) for r in rows]),
                   csv=lambda: _csv(columns, rows))


def render_agreement(report: EvaluationReport, fmt: str = "table") -> bytes:
    """Render the reference agreement of a report's documents."""
    correlation = report.correlation
    return _render(fmt, table=lambda: _text([_agreement_section(report.documents, correlation)]),
                   json=lambda: _json({
                       "documents": [_record(AGREEMENT_COLUMNS, s) for s in report.documents],
                       "pcc": _round3(correlation.pcc) if correlation else None,
                       "sample_count": correlation.sample_count if correlation else 0,
                   }),
                   csv=lambda: _csv(AGREEMENT_COLUMNS, report.documents))
