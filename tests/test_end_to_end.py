"""End-to-end metamorphic properties of the CLI reports.

A drawn corpus is written as text directories and as `.json` documents,
and `eval` (plain, and with baselines and a consensus threshold) and
`agreement` are run on it in every format.  Some documents have one
reference or references that mark nothing, some files start with a byte
order mark, and reference labels
may sort differently as labels and as file names (`ref_1` and `ref_1-b`).
The exit code, report bytes and stderr must not depend on the layout or
on the order of a document's references.
Swapping which segmentation carries which reference label may only
permute the rows that name a reference.  Adding a system may change no
other system's rows.  `score` on one document's files must report what
`eval` reports on a root holding only that document.  In process, every
value of the report equals its exact-fraction recomputation by the
independent oracles, at full precision and as the json, csv and table
reports print it, the order in which documents are read changes no value,
and at window limit 0 the windows are the voted positions.
"""

import csv
import io
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from hypothesis import Phase, example, given, note, settings
import hypothesis.strategies as st

from wisebe.aggregation import build_general_reference, build_window_reference
from wisebe.corpus import load_corpus, load_document
from wisebe.report import EvalConfig, evaluate_agreement, evaluate_corpus, render_report
from oracles import (agreement_ratio_by_counting, consensus_by_counting,
                     fleiss_kappa_by_table, lenient_prf_by_sets, pearson_by_moments,
                     strict_prf_by_sets, windowed_prf_by_membership, windows_by_regex)
from strategies import TOKEN_ALPHABET, run_cli, sparse_bits, write_files

FORMATS = ("table", "json", "csv")
COMMANDS = {"eval": ["eval"], "baselines": ["eval", "--baselines", "--threshold", "2"],
            "agreement": ["agreement"]}
SYSTEM_LABELS = "ABC"
EXTRA_SYSTEM = "Z"
# Up to ten 30-bit int digits per mask.
MAX_N = 300
# Tokens over TOKEN_ALPHABET, sampled from a fixed list: drawing each
# token's characters would be most of the cost of a drawn corpus.  The
# scanner's own edge cases are covered in tests/test_model.py.
WORDS = ("a", "i", "o", "x", "'", "-", "--", "''", "it's", "'tis", "o'clock", "don't",
         "rock-'n'-roll", "well-known", "-ish", "re-", "the", "cat", "sat", "on", "mat",
         "yes", "no", "and", "then", "so", "we", "went", "home", "quick", "brown", "fox",
         "jumps", "over", "lazy", "dog", "zebra", "qvjx")
BOM = "\ufeff"
# Table sections whose rows name a reference.
REFERENCE_SECTIONS = ("== boundary counts ==", "== exact-position scores ==")


def test_words_cover_the_token_alphabet():
    assert set("".join(WORDS)) == set(TOKEN_ALPHABET)


class Doc(NamedTuple):
    doc_id: str
    words: list
    labels: list    # one per reference, unique
    refs: list      # bits of each reference
    systems: dict   # bits by label, for any of SYSTEM_LABELS in drawn order
    order: list     # a permutation of the references
    more: list      # bits of EXTRA_SYSTEM
    boms: list      # whether the .json file, then each text file, starts with BOM


@st.composite
def documents(draw, doc_id):
    """A document of n tokens whose words and bits come from drawn seeds,
    so a draw costs about the same at n = 300 as at n = 3; in about one
    document in eight no reference marks anything, and about one in eight
    has a single reference (both fail before any metric runs)."""
    n = draw(st.integers(1, MAX_N))
    words = random.Random(draw(st.integers(0, 2**32 - 1))).choices(WORDS, k=n)
    silent = draw(st.integers(0, 7)) == 0
    # One reference on 7, not on 0: Hypothesis draws the simplest value 0 in
    # about a quarter of documents, and a failure shrinks towards a scored one.
    m = 1 if draw(st.integers(0, 7)) == 7 else draw(st.integers(2, 5))
    refs = [[0] * n if silent else sparse_bits(draw, n) for _ in range(m)]
    # "-" sorts before the "." of ".txt", so `ref_1-b.txt` lists before `ref_1.txt`.
    labels = draw(st.lists(st.text(alphabet="1-b", min_size=1, max_size=3),
                           min_size=len(refs), max_size=len(refs), unique=True))
    systems = {label: sparse_bits(draw, n)
               for label in draw(st.lists(st.sampled_from(SYSTEM_LABELS), unique=True))}
    order = draw(st.permutations(range(len(refs))))
    files = 1 + len(refs) + len(systems)
    boms = draw(st.lists(st.booleans(), min_size=files, max_size=files))
    return Doc(doc_id, words, [f"ref_{label}" for label in labels], refs, systems, order,
               sparse_bits(draw, n), boms)


@st.composite
def corpora(draw):
    count = draw(st.integers(1, 3))
    docs = [draw(documents(f"doc{i}")) for i in range(count)]
    return docs, draw(st.integers(0, max(len(doc.words) for doc in docs) + 2))


def _positions(bits):
    return [j for j, bit in enumerate(bits) if bit]


def _write_text(root, docs):
    files = {}
    for doc in docs:
        stems = list(zip(doc.labels, doc.refs))
        stems += [(f"sys_{label}", bits) for label, bits in doc.systems.items()]
        for (stem, bits), bom in zip(stems, doc.boms[1:]):
            text = " ".join(w + "." if bit else w for w, bit in zip(doc.words, bits))
            files[f"{doc.doc_id}/{stem}.txt"] = BOM * bom + text
    write_files(root, files)


def _write_json(root, docs, ref_order=None, extra=False):
    """One `.json` document per drawn document; `ref_order(doc)` lists the
    reference indices in the order their keys are written."""
    files = {}
    for doc in docs:
        order = ref_order(doc) if ref_order else range(len(doc.refs))
        named = dict(doc.systems)
        if extra:
            named[EXTRA_SYSTEM] = doc.more
        payload = {"tokens": doc.words,
                   "references": {doc.labels[i]: _positions(doc.refs[i]) for i in order},
                   "systems": {label: _positions(bits) for label, bits in named.items()}}
        files[f"{doc.doc_id}.json"] = BOM * doc.boms[0] + json.dumps(payload)
    write_files(root, files)


def _reports(root, limit):
    """{(command, format): run_cli(...)} of every command on the root."""
    out = root.parent / f"{root.name}.out"
    reports = {}
    for name, argv in COMMANDS.items():
        options = ["--window-limit", str(limit)] if argv[0] == "eval" else []
        for fmt in FORMATS:
            reports[name, fmt] = run_cli([*argv, str(root), "--format", fmt, *options], out)
    return reports


def _relabelled_table(table, back=None):
    """The table split into sections, with the rows of the sections that
    name a reference as sorted token lists whose labels are renamed by
    `back[doc_id]`."""
    back = back or {}
    sections = table.decode().split("\n\n")
    for k, section in enumerate(sections):
        title, *lines = section.split("\n")
        if title in REFERENCE_SECTIONS:
            rows = [line.split() for line in lines[1:]]
            for row in rows:
                row[:] = [back.get(row[0], {}).get(token, token) for token in row]
            sections[k] = (title, lines[0], sorted(rows))
    return sections


def _other_rows(report, fmt):
    """The rows of every system but EXTRA_SYSTEM in a json or csv report."""
    if fmt == "json":
        return [row for row in json.loads(report) if row["system"] != EXTRA_SYSTEM]
    return [row for row in csv.DictReader(io.StringIO(report.decode()))
            if row["system"] != EXTRA_SYSTEM]


# Each example runs the CLI up to 45 times, so shrinking a failure took
# minutes; a failure is reported as drawn.  The exact-value test below
# draws the same corpora in process and still shrinks.
@settings(max_examples=20, phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(corpora())
def test_reports_are_invariant_under_layout_order_labels_and_other_systems(corpus):
    docs, limit = corpus
    note(f"docs={docs!r}, limit={limit}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_json(tmp / "json", docs)
        base = _reports(tmp / "json", limit)
        _write_text(tmp / "text", docs)
        assert _reports(tmp / "text", limit) == base

        # Reference keys written in another order, each with its own marks.
        _write_json(tmp / "reordered", docs, ref_order=lambda doc: doc.order)
        assert _reports(tmp / "reordered", limit) == base

        # Label i now carries the marks of reference order[i].
        permuted = [doc._replace(refs=[doc.refs[j] for j in doc.order]) for doc in docs]
        _write_json(tmp / "permuted", permuted)
        relabelled = _reports(tmp / "permuted", limit)
        back = {doc.doc_id: {doc.labels[i]: doc.labels[j] for i, j in enumerate(doc.order)}
                for doc in docs}
        for key, (code, report, err) in relabelled.items():
            assert (code, err) == (base[key][0], base[key][2])
            if key[1] == "table" and key[0] != "agreement":
                assert _relabelled_table(report, back) == _relabelled_table(base[key][1])
            else:
                assert report == base[key][1], key

        _write_json(tmp / "extra", docs, extra=True)
        extended = _reports(tmp / "extra", limit)
        for key, (code, report, err) in extended.items():
            if key[0] == "agreement":
                assert (code, report, err) == base[key]
            elif key[1] != "table":
                assert _other_rows(report, key[1]) == _other_rows(base[key][1], key[1])


# SystemRow values that are means, products or harmonic means of exact
# ratios, so they may differ from their exact value by rounding.
ROUNDED = ("mean.precision", "mean.recall", "mean.f1", "score.f1_rw", "score.wisebe",
           "kappa", "mean_ser", "lenient.precision", "lenient.recall", "lenient.f1",
           "consensus.precision", "consensus.recall", "consensus.f1")
# Values that are one ratio of two counts, so exactly their float.
RATIOS = ("score.precision_rw", "score.recall_rw", "score.agreement_ratio")
# The value each column of a json or csv report prints, when every column
# group is on.
PRINTED = {"precision": "mean.precision", "recall": "mean.recall", "f1": "mean.f1",
           "f1_mean": "mean.f1", "f1_rw": "score.f1_rw",
           "agreement_ratio": "score.agreement_ratio", "wisebe": "score.wisebe",
           "kappa": "kappa", "mean_ser": "mean_ser", "lenient_precision": "lenient.precision",
           "lenient_recall": "lenient.recall", "lenient_f1": "lenient.f1",
           "consensus_precision": "consensus.precision",
           "consensus_recall": "consensus.recall", "consensus_f1": "consensus.f1"}


# Table headers that differ from the json and csv column names.
TABLE_HEADERS = {"lenient_p": "lenient_precision", "lenient_r": "lenient_recall",
                 "consensus_p": "consensus_precision", "consensus_r": "consensus_recall"}
PRF_NAMES = ("precision", "recall", "f1")


def _get(row, path):
    for attr in path.split("."):
        row = getattr(row, attr)
    return row


def _f1(precision, recall):
    return 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)


def _mean(values):
    return None if None in values else sum(values) / len(values)


def _oracle_rows(doc, limit):
    """The oracles' values for a document's rows: {system: ({reference
    label: strict (tp, fp, fn, P, R, F1)}, {value path: Fraction or None})}."""
    refs = [_positions(bits) for bits in doc.refs]
    _, _, ar = agreement_ratio_by_counting(doc.refs)
    windows = windows_by_regex([sum(votes) for votes in zip(*doc.refs)], limit)
    consensus = consensus_by_counting(doc.refs, 2)
    rows = {}
    for system, bits in doc.systems.items():
        cand = _positions(bits)
        strict = {label: strict_prf_by_sets(cand, ref) for label, ref in zip(doc.labels, refs)}
        precision_rw, recall_rw = windowed_prf_by_membership(cand, windows)
        f1_rw = _f1(precision_rw, recall_rw)
        values = {"score.precision_rw": precision_rw, "score.recall_rw": recall_rw,
                  "score.f1_rw": f1_rw, "score.agreement_ratio": ar, "score.wisebe": f1_rw * ar,
                  "kappa": fleiss_kappa_by_table(doc.refs),
                  "mean_ser": _mean([Fraction(fp + fn, tp + fn) if tp + fn else None
                                     for tp, fp, fn, *_ in strict.values()])}
        lenient = lenient_prf_by_sets(cand, refs)
        voted = strict_prf_by_sets(cand, consensus)
        for k, name in enumerate(("precision", "recall", "f1"), 3):
            values[f"mean.{name}"] = _mean([prf[k] for prf in strict.values()])
            values[f"lenient.{name}"] = lenient[k]
            values[f"consensus.{name}"] = voted[k]
        rows[system] = strict, values
    return rows


def _printed(value):
    """What a report may print for an exact value: None, or the value moved
    by at most 1e-12 and rounded to three decimals, so either neighbour of
    a tie, and either sign of a zero, is accepted."""
    if value is None:
        return [None]
    return [round(float(value) + d, 3) for d in (-1e-12, 0.0, 1e-12)]


def _printed_cells(value):
    """The cells a csv or table report may print for an exact value."""
    return ["" if p is None else f"{p:.3f}" for p in _printed(value)]


def _section_lines(table, title):
    """The header and row lines of a table section."""
    section = next(s for s in table.split("\n\n") if s.startswith(f"== {title} ==\n"))
    return section.rstrip("\n").split("\n")[1:]


def _check_table_section(title, lines, keys, value):
    """Each row of a table section starts with its key's cells, in `keys`
    order, and every other cell prints what `value(key, header)` may print.
    Cells are read at their header's column offset, as a blank cell is
    only spaces."""
    header, *rows = lines
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    assert len(rows) == len(keys), title
    for key, line in zip(keys, rows):
        cells = [line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])]
        assert cells[:len(key)] == list(key), (title, key)
        for column, cell in zip(header.split()[len(key):], cells[len(key):]):
            assert cell in _printed_cells(value(key, column)), (title, key, column)


def _assert_close(actual, expected):
    if expected is None:
        assert actual is None
    else:
        assert abs(actual - float(expected)) <= 1e-12, (actual, expected)


# System A scored in three documents, where no figure's mean row equals
# its first or its last document's value, so that the mean rows are
# checked whatever corpora the draw gives.
THREE_SCORED = ([Doc(f"doc{i}", ["the", "cat", "sat", "on", "the", "mat"], ["ref_1", "ref_2"],
                     refs, {"A": system}, [0, 1], [0] * 6, [False] * 4)
                 for i, (refs, system) in enumerate([
                     ([[0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 1]], [0, 1, 0, 0, 0, 1]),
                     ([[0, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 1]], [1, 0, 0, 0, 0, 1]),
                     ([[0, 0, 0, 1, 0, 1], [1, 0, 1, 1, 0, 1]], [0, 0, 0, 0, 0, 1])])], 1)


@settings(max_examples=20)
@given(corpora())
@example(THREE_SCORED)
def test_report_values_equal_exact_fractions(corpus):
    docs, limit = corpus
    with tempfile.TemporaryDirectory() as tmp:
        _write_json(Path(tmp) / "json", docs)
        report = evaluate_corpus(load_corpus(Path(tmp) / "json"),
                                 EvalConfig(window_limit=limit, baselines=True,
                                            consensus_threshold=2))
    # Documents with one reference or no reference boundary fail on purpose.
    failing = {doc.doc_id: "MissingReferences" if len(doc.refs) < 2 else "NoBoundaries"
               for doc in docs if len(doc.refs) < 2 or not any(map(any, doc.refs))}
    assert {e.doc_id: e.kind for e in report.errors} == failing
    scored = [doc for doc in docs if doc.doc_id not in failing]
    assert [d.doc_id for d in report.documents] == [doc.doc_id for doc in scored]
    rows = {(row.doc_id, row.system): row for row in report.rows}
    expected = {}    # {(doc id, system): {value path: exact value}}, mean rows included
    exact_prfs = {}  # {(doc id, system, reference label or "mean"): {"precision": ..., ...}}
    by_system = {}
    for doc, summary in zip(scored, report.documents):
        assert summary.agreement_ratio == float(agreement_ratio_by_counting(doc.refs)[2])
        _assert_close(summary.kappa, fleiss_kappa_by_table(doc.refs))
        expected_rows = _oracle_rows(doc, limit)
        assert {system for d, system in rows if d == doc.doc_id} == set(expected_rows)
        for system, (strict, values) in expected_rows.items():
            row = rows[doc.doc_id, system]
            assert {label for label, _ in row.per_reference} == set(strict)
            for label, prf in row.per_reference:
                tp, fp, fn, precision, recall, f1 = strict[label]
                assert prf[3:] == (tp, fp, fn)
                assert prf[:2] == (float(precision), float(recall))
                _assert_close(prf.f1, f1)
            for path in RATIOS:
                assert _get(row, path) == float(values[path]), path
            for path in ROUNDED:
                _assert_close(_get(row, path), values[path])
            by_system.setdefault(system, []).append(values)
            expected[doc.doc_id, system] = values
            for label, prf in strict.items():
                exact_prfs[doc.doc_id, system, label] = dict(zip(PRF_NAMES, prf[3:]))
            exact_prfs[doc.doc_id, system, "mean"] = {n: values[f"mean.{n}"] for n in PRF_NAMES}
    assert [row.system for row in report.aggregates] == sorted(by_system)
    for row in report.aggregates:
        means = {path: _mean([v[path] for v in by_system[row.system]])
                 for path in (*RATIOS, *ROUNDED)}
        for path, value in means.items():
            _assert_close(_get(row, path), value)
        expected["mean", row.system] = means
    # The same values as the json and csv reports print them.
    records = json.loads(render_report(report, "json"))
    lines = list(csv.DictReader(io.StringIO(render_report(report, "csv").decode())))
    assert len(records) == len(lines) == len(expected)
    for record, line in zip(records, lines):
        key = record["doc_id"], record["system"]
        assert (line["doc_id"], line["system"]) == key
        assert set(record) == set(line) == {"doc_id", "system", *PRINTED}
        for column, path in PRINTED.items():
            assert record[column] in _printed(expected[key][path]), (key, column)
            assert line[column] in _printed_cells(expected[key][path]), (key, column)
    # ... and as the table prints them.
    table = render_report(report, "table").decode()
    if report.rows:    # else the table has no score sections
        title = "exact-position scores"
        _check_table_section(title, _section_lines(table, title),
                             [(r.doc_id, r.system, label) for r in report.rows
                              for label in (*(label for label, _ in r.per_reference), "mean")],
                             lambda key, column: exact_prfs[key][column])
        for title, items in (("windowed scores", report.rows + report.aggregates),
                             ("baseline scores", report.rows)):
            _check_table_section(title, _section_lines(table, title),
                                 [(r.doc_id, r.system) for r in items],
                                 lambda key, column: expected[key][
                                     PRINTED[TABLE_HEADERS.get(column, column)]])
    # Pearson's r of (agreement ratio, kappa) over the documents with a kappa.
    pairs = [(agreement_ratio_by_counting(doc.refs)[2], kappa) for doc in scored
             if (kappa := fleiss_kappa_by_table(doc.refs)) is not None]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        assert report.correlation is None
        pearson_lines = ["pearson r: not computed (needs two varying documents)"]
    else:
        assert report.correlation.sample_count == len(xs)
        _assert_close(report.correlation.pcc, pearson_by_moments(xs, ys))
        pearson_lines = [f"pearson r = {cell} over {len(xs)} documents"
                         for cell in _printed_cells(pearson_by_moments(xs, ys))]
    # The table's per-document sections, which a document has with no system too.
    if scored:    # else the table has neither
        title = "reference agreement"
        *lines, pearson_line = _section_lines(table, title)
        assert pearson_line in pearson_lines
        oracles = {doc.doc_id: {"agreement_ratio": agreement_ratio_by_counting(doc.refs)[2],
                                "kappa": fleiss_kappa_by_table(doc.refs)} for doc in scored}
        _check_table_section(title, lines, [(doc.doc_id,) for doc in scored],
                             lambda key, column: oracles[key[0]][column])
        assert [line.split() for line in _section_lines(table, "boundary counts")] == [
            ["doc", "source", "boundaries"],
            *([doc.doc_id, label, str(sum(bits))] for doc in scored
              for label, bits in (*sorted(zip(doc.labels, doc.refs)),
                                  *sorted(doc.systems.items())))]


def _renamed(report, back):
    """A report's rows, summaries and errors under the document renaming
    `back`, in document order."""
    def restore(items):
        return sorted((item._replace(doc_id=back[item.doc_id]) for item in items),
                      key=lambda item: item.doc_id)
    errors = [e._replace(message=e.message.replace(repr(e.doc_id), repr(back[e.doc_id])))
              for e in report.errors]
    return restore(report.rows), restore(report.documents), restore(errors)


@settings(max_examples=20)
@given(corpora())
def test_document_order_changes_no_value(corpus):
    docs, limit = corpus
    # doc{i} becomes doc{count - 1 - i}: the documents are read in reverse.
    renamed = [doc._replace(doc_id=f"doc{len(docs) - 1 - i}") for i, doc in enumerate(docs)]
    back = {new.doc_id: doc.doc_id for doc, new in zip(docs, renamed)}
    config = EvalConfig(window_limit=limit, baselines=True, consensus_threshold=2)
    with tempfile.TemporaryDirectory() as tmp:
        _write_json(Path(tmp) / "json", docs)
        _write_json(Path(tmp) / "renamed", renamed)
        for evaluate in (lambda layout: evaluate_corpus(layout, config), evaluate_agreement):
            base, other = (evaluate(load_corpus(Path(tmp) / name)) for name in ("json", "renamed"))
            assert _renamed(other, back) == (list(base.rows), list(base.documents),
                                             list(base.errors))
            # The means and Pearson's r sum with fsum, so the order is not seen.
            assert other.aggregates == base.aggregates
            assert other.correlation == base.correlation


@settings(max_examples=20)
@given(st.sampled_from(["doc", "mean"]).flatmap(documents), st.booleans())
def test_score_is_eval_over_the_one_document_of_its_files(doc, misaligned):
    """`score` on a document's files reports what `eval` reports on a root
    that holds only that document, failures included."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        _write_text(root, [doc])
        folder = root / doc.doc_id
        systems = [folder / f"sys_{label}.txt" for label in doc.systems]
        if misaligned:
            systems.append(folder / f"sys_{EXTRA_SYSTEM}.txt")
            systems[-1].write_text(" ".join(doc.words) + " extra.", encoding="utf-8")
        files = [word for i in doc.order for word in ("--ref", folder / f"{doc.labels[i]}.txt")]
        files += [word for path in systems for word in ("--sys", path)]
        out = Path(tmp) / "out"
        for argv in (COMMANDS["eval"], COMMANDS["baselines"]):
            for fmt in FORMATS:
                options = [*argv[1:], "--format", fmt]
                assert (run_cli(["score", *map(str, files), "--doc-id", doc.doc_id, *options], out)
                        == run_cli(["eval", str(root), *options], out))


@settings(max_examples=20)
@given(corpora())
def test_windows_at_limit_zero_are_the_voted_positions(corpus):
    """At window limit 0 no unvoted token joins a window, so the span mask
    is the union of the references, and windowed precision is the share
    of a system's boundaries that some reference marks."""
    docs = {doc.doc_id: doc for doc in corpus[0]}
    with tempfile.TemporaryDirectory() as tmp:
        _write_json(Path(tmp) / "json", docs.values())
        layout = load_corpus(Path(tmp) / "json")
        report = evaluate_corpus(layout, EvalConfig(window_limit=0))
        for files in layout.documents:
            if len(docs[files.doc_id].refs) > 1:
                general = build_general_reference(load_document(files).references)
                assert build_window_reference(general, 0).span_mask == general.at_least[1]
    scored = {doc_id for doc_id, doc in docs.items()
              if len(doc.refs) > 1 and any(map(any, doc.refs))}
    assert {(row.doc_id, row.system) for row in report.rows} == {
        (doc_id, label) for doc_id in scored for label in docs[doc_id].systems}
    for row in report.rows:
        doc = docs[row.doc_id]
        voted = [any(votes) for votes in zip(*doc.refs)]
        marks = _positions(doc.systems[row.system])
        share = Fraction(sum(voted[j] for j in marks), len(marks)) if marks else Fraction(0)
        assert row.score.precision_rw == float(share)
