import json

import pytest

from wisebe import (AlignmentError, MissingReferences, load_corpus,
                    load_document)


def _write_doc(root, doc_id, files):
    doc_dir = root / doc_id
    doc_dir.mkdir()
    for name, text in files.items():
        (doc_dir / name).write_text(text, encoding="utf-8")


def test_load_corpus_discovers_both_layouts(tmp_path):
    _write_doc(tmp_path, "b", {"ref_1.txt": "go on.", "ref_2.txt": "go on."})
    (tmp_path / "a.json").write_text(json.dumps({
        "tokens": ["go", "on"],
        "references": {"r1": [1], "r2": [0, 1]},
    }), encoding="utf-8")
    layout = load_corpus(tmp_path)
    assert [f.doc_id for f in layout.documents] == ["a", "b"]
    assert layout.documents[0].structured_path is not None
    assert layout.warnings == ()


def test_load_corpus_warns_about_strays_instead_of_skipping_silently(tmp_path):
    _write_doc(tmp_path, "a", {
        "ref_1.txt": "go on.", "ref_2.txt": "go on.", "notes.txt": "scratch",
    })
    (tmp_path / "README.md").write_text("hello", encoding="utf-8")
    layout = load_corpus(tmp_path)
    assert len(layout.warnings) == 2
    assert any("notes.txt" in w for w in layout.warnings)
    assert any("README.md" in w for w in layout.warnings)


def test_load_corpus_requires_two_references_per_directory(tmp_path):
    _write_doc(tmp_path, "a", {"ref_1.txt": "go on.", "sys_x.txt": "go on."})
    with pytest.raises(MissingReferences) as err:
        load_corpus(tmp_path)
    assert "a" in str(err.value)


def test_load_corpus_rejects_duplicate_doc_ids(tmp_path):
    _write_doc(tmp_path, "a", {"ref_1.txt": "go.", "ref_2.txt": "go."})
    (tmp_path / "a.json").write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(tmp_path)


def test_load_corpus_rejects_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope")


def test_load_corpus_accepts_empty_root(tmp_path):
    assert load_corpus(tmp_path).documents == ()


def test_load_document_from_directory(tmp_path):
    _write_doc(tmp_path, "a", {
        "ref_1.txt": "Go on. Stop here.",
        "ref_2.txt": "Go on stop here.",
        "sys_S1.txt": "Go. On stop here.",
    })
    doc = load_document(load_corpus(tmp_path).documents[0])
    assert doc.doc_id == "a"
    assert doc.transcript.tokens == ("go", "on", "stop", "here")
    assert [r.label for r in doc.references.references] == ["ref_1", "ref_2"]
    assert doc.references.references[0].bits == (0, 1, 0, 1)
    assert doc.references.references[1].bits == (0, 0, 0, 1)
    assert doc.candidates[0][0] == "S1"
    assert doc.candidates[0][1].bits == (1, 0, 0, 1)


def test_load_document_ignores_a_utf8_byte_order_mark(tmp_path):
    _write_doc(tmp_path, "a", {"ref_1.txt": "\ufeffGo on. Stop.", "ref_2.txt": "go on stop."})
    doc = load_document(load_corpus(tmp_path).documents[0])
    assert doc.transcript.tokens == ("go", "on", "stop")
    assert doc.references.references[0].bits == (0, 1, 1)


def test_load_document_rejects_token_mismatch(tmp_path):
    _write_doc(tmp_path, "a", {
        "ref_1.txt": "go on.",
        "ref_2.txt": "go on.",
        "sys_S1.txt": "go away.",
    })
    with pytest.raises(AlignmentError) as err:
        load_document(load_corpus(tmp_path).documents[0])
    assert "S1" in str(err.value)
    assert err.value.position == 1


def test_load_structured_document(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({
        "tokens": ["one", "two", "three"],
        "references": {"r1": [0, 2], "r2": [2]},
        "systems": {"S1": [1, 2]},
    }), encoding="utf-8")
    doc = load_document(load_corpus(tmp_path).documents[0])
    assert doc.transcript.tokens == ("one", "two", "three")
    assert doc.references.references[0].bits == (1, 0, 1)
    assert doc.candidates[0][1].bits == (0, 1, 1)


@pytest.mark.parametrize("payload, error", [
    ({"tokens": ["a", "b"], "references": {"r1": [0]}}, MissingReferences),
    ({"tokens": ["a", "b"], "references": {"r1": [0], "r2": [2]}}, ValueError),
    ({"tokens": ["a", "b"], "references": {"r1": [1, 0], "r2": [0]}}, ValueError),
    ({"tokens": ["a", "b"], "references": {"r1": [True], "r2": [0]}}, ValueError),
    ({"tokens": ["a", "b."], "references": {"r1": [0], "r2": [1]}}, ValueError),
    ({"tokens": "ab", "references": {"r1": [0], "r2": [1]}}, ValueError),
    ([1, 2], ValueError),
    ({"tokens": ["a", "b"], "references": {"r1": [1.0], "r2": [0]}}, ValueError),
    ({"tokens": ["a", 1], "references": {"r1": [0], "r2": [1]}}, ValueError),
])
def test_load_structured_rejects_malformed_payloads(tmp_path, payload, error):
    (tmp_path / "a.json").write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(error):
        load_document(load_corpus(tmp_path).documents[0])
