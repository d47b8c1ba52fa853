"""Every record type is an immutable, slot-free, hashable named tuple."""

import copy
import importlib
import pickle

import pytest

from wisebe import (CANDIDATE, AlignmentError, BadThreshold, BoundaryVector,
                    Document, EmptyTranscript, EvalConfig, MissingReferences,
                    ReferenceSet, Transcript,
                    build_general_reference, build_window_reference,
                    evaluate_agreement, evaluate_corpus, load_corpus,
                    load_document)
from wisebe.baselines import PRF
from wisebe.report import COLUMNS, DocumentError
from wisebe.scoring import WisebeScore

MODULES = ("aggregation", "agreement", "baselines", "cli", "corpus", "errors",
           "model", "report", "scoring")


def _records(root):
    layout = load_corpus(root)
    doc = load_document(layout.documents[0])
    general = build_general_reference(doc.references)
    _, cand = doc.candidates[0]
    config = EvalConfig(baselines=True, consensus_threshold=2)
    report = evaluate_corpus(layout, config)
    return (
        layout, layout.documents[0], doc, doc.transcript, doc.references, cand,
        general, build_window_reference(general),
        report.correlation, report.rows[0], report.rows[0].mean, report.rows[0].score,
        report.documents[0], report, evaluate_agreement(layout), config, COLUMNS[0],
        DocumentError("d", "ValueError", "bad"),
    )


@pytest.fixture(scope="module")
def records(demo_corpus):
    return _records(demo_corpus)


def test_every_record_type_is_covered(records):
    defined = {
        obj for module in MODULES
        for obj in vars(importlib.import_module(f"wisebe.{module}")).values()
        if isinstance(obj, type) and issubclass(obj, tuple)
        and obj.__module__ == f"wisebe.{module}"
    }
    assert defined == {type(record) for record in records}
    assert len(defined) == 17


def test_records_are_frozen_and_slot_free(records):
    for record in records:
        name = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_equal_records_hash_equal(records):
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record), type(record).__name__


def test_record_reprs_are_pinned():
    assert repr(PRF.from_counts(1, 1, 0)) == (
        "PRF(precision=0.5, recall=1.0, f1=0.6666666666666666, tp=1, fp=1, fn=0)")
    assert repr(PRF(0.25, 0.5, 1 / 3)) == (
        "PRF(precision=0.25, recall=0.5, f1=0.3333333333333333, tp=None, fp=None, fn=None)")
    assert repr(WisebeScore(0.5, 1.0, 2 / 3, 0.5, 1 / 3)) == (
        "WisebeScore(precision_rw=0.5, recall_rw=1.0, f1_rw=0.6666666666666666, "
        "agreement_ratio=0.5, wisebe=0.3333333333333333)")
    # the mask is left out, as the marks can be long
    assert repr(BoundaryVector.from_positions(4, [1, 3], "d", CANDIDATE, "S")) == (
        "BoundaryVector(doc_id='d', origin='candidate', label='S', n=4)")



_VECTOR = BoundaryVector("d", (0, 1, 1))
_CAND = BoundaryVector("d", (1, 0, 1), CANDIDATE, "S")
_DOC = Document(Transcript("d", ("a", "b", "c")), ReferenceSet("d", (_VECTOR, _VECTOR)), ())
# Candidates a Document refuses, each with the message it refuses it with.
_BAD_CANDIDATES = [
    (("T", 5), ValueError, "system 'T' of document 'd' is not a candidate segmentation"),
    (("R", _VECTOR), ValueError, "system 'R' of document 'd' is not a candidate segmentation"),
    (("S", BoundaryVector("d", (1,), CANDIDATE)), AlignmentError,
     "system 'S' of document 'd': 1 vs 3 positions"),
    (("S", BoundaryVector("e", (0, 0, 1), CANDIDATE)), AlignmentError,
     "system 'S' of document 'd': document 'e' vs 'd'"),
    (("S", BoundaryVector("", (0, 0, 1), CANDIDATE)), AlignmentError,
     "system 'S' of document 'd': document '' vs 'd'"),
    (5, ValueError, "candidate 0 of document 'd' is not a (name, vector) pair"),
    (("T",), ValueError, "candidate 0 of document 'd' is not a (name, vector) pair"),
    (("T", _CAND, 1), ValueError, "candidate 0 of document 'd' is not a (name, vector) pair"),
    (["T", _CAND], ValueError, "candidate 0 of document 'd' is not a (name, vector) pair"),
    ((1, _CAND), ValueError, "system name 1 of document 'd' is not a non-empty string"),
    ((b"T", _CAND), ValueError, "system name b'T' of document 'd' is not a non-empty string"),
    (("", _CAND), ValueError, "system name '' of document 'd' is not a non-empty string"),
]


@pytest.mark.parametrize("error, build", [
    (ValueError, lambda: _VECTOR._replace(n=1, origin="guess")),
    (ValueError, lambda: _VECTOR._replace(n=1)),
    (ValueError, lambda: _VECTOR._replace(origin="guess")),
    (ValueError, lambda: BoundaryVector._make(("d", "reference", "", 0, 0))),
    (MissingReferences, lambda: ReferenceSet("d", (_VECTOR, _VECTOR))._replace(
        references=(_VECTOR,))),
    (EmptyTranscript, lambda: Transcript._make(("d", ()))),
    (ValueError, lambda: Transcript("d", ("a",))._replace(tokens=("a.",))),
    (ValueError, lambda: EvalConfig()._replace(window_limit=-1)),
    (BadThreshold, lambda: EvalConfig._make((2, False, 0))),
    (AlignmentError, lambda: _DOC._replace(transcript=Transcript("x", ("a", "b", "c")))),
    (AlignmentError, lambda: Document._make((Transcript("d", ("a",)), _DOC.references, ()))),
    pytest.param(ValueError, lambda: _DOC._replace(candidates=[("T", 5)]),
                 id="document-replace-not-a-vector"),
    pytest.param(ValueError, lambda: Document._make((*_DOC[:2], [("R", _VECTOR)])),
                 id="document-make-reference-origin"),
    pytest.param(AlignmentError, lambda: _DOC._replace(
        candidates=[("S", BoundaryVector("e", (0, 0, 1), CANDIDATE))]),
                 id="document-replace-other-doc-id"),
    pytest.param(AlignmentError, lambda: Document._make(
        (*_DOC[:2], [("S", BoundaryVector("d", (1,), CANDIDATE))])),
                 id="document-make-other-length"),
    pytest.param(ValueError, lambda: EvalConfig()._replace(window_limit=2.5),
                 id="evalconfig-replace-float-limit"),
    pytest.param(ValueError, lambda: EvalConfig._make((True, False, None)),
                 id="evalconfig-make-bool-limit"),
    pytest.param(BadThreshold, lambda: EvalConfig()._replace(consensus_threshold=1.5),
                 id="evalconfig-replace-float-threshold"),
    pytest.param(ValueError, lambda: pickle.loads(pickle.dumps(
        tuple.__new__(EvalConfig, (2.5, False, None)))), id="evalconfig-pickle-float-limit"),
    pytest.param(BadThreshold, lambda: pickle.loads(pickle.dumps(
        tuple.__new__(EvalConfig, (2, False, True)))), id="evalconfig-pickle-bool-threshold"),
])
def test_replace_and_make_run_the_constructor_checks(error, build):
    with pytest.raises(error):
        build()


def test_replace_and_make_keep_valid_records():
    vector = BoundaryVector("d", (0, 1, 1))
    relabeled = vector._replace(label="x")
    assert relabeled == BoundaryVector("d", (0, 1, 1), label="x")
    assert vector._replace(n=5).bits == (0, 1, 1, 0, 0)
    assert BoundaryVector._make(vector) == vector
    refs = ReferenceSet("d", (vector, relabeled))
    assert ReferenceSet._make(refs) == refs and refs._replace(doc_id="d") == refs
    transcript = Transcript("d", ("a", "b", "c"))
    assert transcript._replace(doc_id="e") == Transcript("e", ("a", "b", "c"))
    cand = vector._replace(origin=CANDIDATE)
    doc = Document(transcript, refs, (("S", cand),))
    assert Document._make(doc) == doc and doc._replace(candidates=()) == (transcript, refs, ())
    assert doc._replace(candidates=[("T", cand)]).candidates == (("T", cand),)


@pytest.mark.parametrize("pair, error, message", _BAD_CANDIDATES,
                         ids=["not-a-vector", "reference-origin", "other-length",
                              "other-doc-id", "empty-doc-id", "not-a-tuple", "one-member",
                              "three-members", "list-pair", "int-name", "bytes-name",
                              "empty-name"])
def test_document_checks_each_candidate(pair, error, message):
    """A candidate must be a 2-tuple of a non-empty str name and a vector
    of candidate origin over the same positions of the same document;
    each way in runs that check."""
    transcript, refs = _DOC[:2]
    builds = [lambda: Document(transcript, refs, [pair]),
              lambda: Document._make((transcript, refs, [pair])),
              lambda: _DOC._replace(candidates=(pair,)),
              lambda: pickle.loads(pickle.dumps(tuple.__new__(Document, (*_DOC[:2], (pair,)))))]
    for build in builds:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


def test_document_keeps_its_candidates_as_a_tuple():
    """Candidates given as a list or a generator are stored as a tuple, so
    the document hashes and equals the one built from a tuple."""
    cand = BoundaryVector("d", (1, 0, 1), CANDIDATE, "S")
    doc = Document(_DOC.transcript, _DOC.references, (("S", cand),))
    for twin in (Document(_DOC.transcript, _DOC.references, [("S", cand)]),
                 Document(_DOC.transcript, _DOC.references, (pair for pair in [("S", cand)])),
                 Document._make([_DOC.transcript, _DOC.references, [("S", cand)]]),
                 _DOC._replace(candidates=[("S", cand)])):
        assert type(twin.candidates) is tuple
        assert twin == doc and hash(twin) == hash(doc)



@pytest.mark.parametrize("bad", [5, None, tuple(_VECTOR), [_VECTOR]],
                         ids=["int", "none", "plain-tuple", "list"])
def test_reference_set_rejects_a_member_that_is_not_a_vector(bad):
    """A reference that is not a BoundaryVector is a ValueError naming its
    index, each way in, before any of its attributes is read."""
    refs = (_VECTOR, bad)
    builds = [lambda: ReferenceSet("d", refs), lambda: ReferenceSet._make(("d", refs)),
              lambda: _DOC.references._replace(references=refs),
              lambda: pickle.loads(pickle.dumps(tuple.__new__(ReferenceSet, ("d", refs))))]
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError
        assert str(info.value) == "reference 1 of document 'd' is not a BoundaryVector"
