"""The bitmask kernel: differential tests over masks that span several
int digits, and a guard that each document builds its vote profile once
and reads every metric from it."""

import importlib
import sys
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from wisebe import (BoundaryVector, Document, EvalConfig, build_general_reference,
                    build_window_reference, evaluate_corpus, evaluate_document,
                    fleiss_kappa, load_corpus, strict_prf, windowed_precision,
                    windowed_recall)
from wisebe.aggregation import consensus_reference
from wisebe.baselines import lenient_prf
from wisebe.errors import DegenerateAgreement
from wisebe.model import Transcript, mask_flags
from oracles import (agreement_ratio_by_counting, consensus_by_counting,
                     fleiss_kappa_by_table, lenient_prf_by_sets,
                     strict_prf_by_sets, windowed_prf_by_membership,
                     windows_by_regex)
from strategies import wide_reference_sets, wide_scoring_instances


def _rows(refs):
    return [ref.bits for ref in refs.references]


@given(wide_scoring_instances(), st.data())
def test_kernel_matches_oracles_across_digits(instance, data):
    refs, cand = instance
    limit = data.draw(st.one_of(st.integers(0, 12), st.integers(0, refs.n + 2)), label="limit")
    rows = _rows(refs)
    counts = tuple(map(sum, zip(*rows)))
    general = build_general_reference(refs)
    assert general.counts == counts

    pb, ha, ratio = agreement_ratio_by_counting(rows)
    assert (general.pb, general.ha, general.ar) == (pb, ha, float(ratio))

    windows = build_window_reference(general, limit)
    assert list(windows.windows) == windows_by_regex(counts, limit)
    assert windows.p == len(windows.windows)
    precision, recall = windowed_prf_by_membership(cand.positions, windows.windows)
    assert windowed_precision(cand, windows) == float(precision)
    assert windowed_recall(cand, windows) == float(recall)

    for ref in refs.references:
        prf = strict_prf(cand, ref)
        tp, fp, fn, precision, recall, f1 = strict_prf_by_sets(cand.positions, ref.positions)
        assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)
        assert (prf.precision, prf.recall) == (float(precision), float(recall))
        assert prf.f1 == pytest.approx(float(f1), abs=1e-12)

    expected = fleiss_kappa_by_table(rows)
    if expected is None:
        with pytest.raises(DegenerateAgreement):
            fleiss_kappa(refs)
    else:
        assert fleiss_kappa(refs) == pytest.approx(float(expected), abs=1e-12)


@given(wide_scoring_instances())
def test_lenient_prf_matches_set_oracle(instance):
    refs, cand = instance
    prf = lenient_prf(cand, build_general_reference(refs))
    tp, fp, fn, precision, recall, f1 = lenient_prf_by_sets(
        cand.positions, [ref.positions for ref in refs.references])
    assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)
    assert (prf.precision, prf.recall) == (float(precision), float(recall))
    assert prf.f1 == pytest.approx(float(f1), abs=1e-12)


@given(wide_scoring_instances())
def test_boundary_vector_bits_round_trip_through_the_mask(instance):
    refs, cand = instance
    for vector in (*refs.references, cand):
        bits = vector.bits
        assert len(bits) == vector.n
        assert vector.mask == sum(bit << j for j, bit in enumerate(bits))
        doc_id, origin, label = vector.doc_id, vector.origin, vector.label
        positions = [j for j, bit in enumerate(bits) if bit]
        for same in (BoundaryVector(doc_id, list(bits), origin, label),
                     BoundaryVector(doc_id, bytes(bits), origin, label),
                     BoundaryVector.from_positions(vector.n, positions, doc_id, origin, label)):
            assert same.bits == bits
            assert same == vector and hash(same) == hash(vector)
        longer = BoundaryVector(doc_id, bits + (0,), origin, label)
        relabeled = BoundaryVector(doc_id, bits, origin, label + "'")
        assert longer.mask == relabeled.mask == vector.mask
        assert longer != vector and relabeled != vector


@given(wide_reference_sets(), st.data())
def test_consensus_matches_counting_oracle(refs, data):
    threshold = data.draw(st.integers(1, refs.m))
    consensus = consensus_reference(build_general_reference(refs), threshold)
    flags = mask_flags(consensus, refs.n)
    assert tuple(j for j, flag in enumerate(flags) if flag) == consensus_by_counting(
        _rows(refs), threshold)
    assert len(flags) == refs.n


@given(wide_reference_sets())
def test_report_kappa_matches_textbook_oracle(refs):
    doc = Document(Transcript("doc", ("w",) * refs.n), refs, ())
    summary, _ = evaluate_document(doc)
    expected = fleiss_kappa_by_table(_rows(refs))
    if expected is None:
        assert summary.kappa is None
    else:
        assert summary.kappa == pytest.approx(float(expected), abs=1e-12)


# Functions that fuse the references of a document or read a built vote
# profile, by module.
VOTE_BUILDERS = {
    "aggregation": ("build_general_reference", "build_window_reference", "consensus_reference"),
    "agreement": ("fleiss_kappa",),
    "baselines": ("lenient_prf",),
    "scoring": ("wisebe_score",),
}


def test_evaluate_corpus_builds_one_vote_profile_per_document(demo_corpus, monkeypatch):
    calls = Counter()
    modules = [mod for name, mod in sys.modules.items()
               if name == "wisebe" or name.startswith("wisebe.")]
    for module_name, names in VOTE_BUILDERS.items():
        module = importlib.import_module(f"wisebe.{module_name}")
        for name in names:
            raw = getattr(module, name)

            def counted(*args, _raw=raw, _name=name, **kwargs):
                calls[_name] += 1
                return _raw(*args, **kwargs)

            # Every binding, so calls through names imported elsewhere count too.
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is raw:
                        monkeypatch.setattr(mod, binding, counted)

    layout = load_corpus(demo_corpus)
    report = evaluate_corpus(layout, EvalConfig(baselines=True, consensus_threshold=2))
    docs = len(layout.documents)
    assert report.errors == ()
    assert len(report.rows) > docs
    # One profile and one window reference per document; lenient and
    # consensus read that profile, fleiss_kappa and wisebe_score are unused.
    assert calls == Counter(build_general_reference=docs, build_window_reference=docs,
                            consensus_reference=docs, lenient_prf=len(report.rows))
