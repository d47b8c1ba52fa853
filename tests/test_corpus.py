import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from wisebe import (CANDIDATE, AlignmentError, BoundaryVector, Document, DuplicateLabel,
                    MissingReferences, ReferenceSet, Transcript, load_corpus, load_document,
                    strict_prf)
from wisebe import corpus
from wisebe.corpus import READ_CHUNK, DocumentFiles, _read_text
from wisebe.model import _scan, parse_segmented_text
from oracles import corpus_by_iterdir, load_text_document_by_files
from pathparity import SPELLINGS, mismatches, write_corpus
from strategies import corpus_trees, upper_alike, write_files, write_tree


def test_load_corpus_discovers_both_layouts(tmp_path):
    write_files(tmp_path, {"b/ref_1.txt": "go on.", "b/ref_2.txt": "go on.", "a.json": json.dumps({
        "tokens": ["go", "on"],
        "references": {"r1": [1], "r2": [0, 1]},
    })})
    layout = load_corpus(tmp_path)
    assert [f.doc_id for f in layout.documents] == ["a", "b"]
    assert layout.documents[0].structured_path is not None
    assert layout.warnings == ()


def test_load_corpus_warns_about_strays_instead_of_skipping_silently(tmp_path):
    write_files(tmp_path, {
        "a/ref_1.txt": "go on.", "a/ref_2.txt": "go on.", "a/notes.txt": "scratch",
        "README.md": "hello",
    })
    layout = load_corpus(tmp_path)
    assert len(layout.warnings) == 2
    assert any("notes.txt" in w for w in layout.warnings)
    assert any("README.md" in w for w in layout.warnings)


def test_load_corpus_requires_two_references_per_directory(tmp_path):
    """One reference, systems alone, or no file at all: each directory
    fails alone, with a MissingReferences that counts its references."""
    cases = {"one": ({"ref_1.txt": "go on.", "sys_x.txt": "go on."}, 1),
             "systems-only": ({"sys_x.txt": "go on.", "sys_y.txt": "go. on."}, 0),
             "empty": ({}, 0)}
    for name, (texts, count) in cases.items():
        (tmp_path / name / "a").mkdir(parents=True)
        write_files(tmp_path / name / "a", texts)
        [files] = load_corpus(tmp_path / name).documents
        with pytest.raises(MissingReferences) as err:
            load_document(files)
        assert str(err.value) == f"document 'a' has {count} reference(s), need at least 2", name


def test_load_corpus_rejects_duplicate_doc_ids(tmp_path):
    write_files(tmp_path, {"a/ref_1.txt": "go.", "a/ref_2.txt": "go.", "a.json": "{}"})
    with pytest.raises(DuplicateLabel, match=f"^{re.escape(str(tmp_path))}: document id 'a' "
                                             "is given 2 times$"):
        load_corpus(tmp_path)


def _refs(doc_id, *lengths):
    """References of `doc_id` labelled r{}, r{0}, ..., one per length."""
    return tuple(BoundaryVector(doc_id, bytes(n - 1) + b"\x01", label=label)
                 for n, label in zip(lengths, ("r{}", "r{0}", "r{1}")))


# Each builds its message from names that hold braces: a message
# template given them already formatted would fail on those braces.
BRACED_FAILURES = {
    "reference-set": (
        lambda: ReferenceSet("d{0}", _refs("d{0}", 2, 3)),
        AlignmentError, "reference 'r{0}' of document 'd{0}': 3 vs 2 positions"),
    "reference-set-doc-id": (
        lambda: ReferenceSet("d{0}", (*_refs("d{0}", 2), *_refs("e{}", 2))),
        AlignmentError, "reference 'r{}' of document 'd{0}': document 'e{}' vs 'd{0}'"),
    "document": (
        lambda: Document(Transcript("d{}", ["a"]), ReferenceSet("d{}", _refs("d{}", 3, 3)), ()),
        AlignmentError, "references of document 'd{}': 3 vs 1 positions"),
    "reference-labels": (
        lambda: load_document(DocumentFiles("d{0}", (("r{}", Path("x")), ("r{}", Path("y"))), ())),
        DuplicateLabel, "document 'd{0}': reference label 'r{}' is given 2 times"),
    "system-labels": (
        lambda: load_document(DocumentFiles("d{}", (), (("s{0}", Path("x")), ("s{0}", Path("y"))))),
        DuplicateLabel, "document 'd{}': system label 's{0}' is given 2 times"),
    "strict-prf": (
        lambda: strict_prf(BoundaryVector("d", b"\x00\x01", CANDIDATE), _refs("d", 3)[0]),
        AlignmentError, "candidate vs reference 'r{}': 2 vs 3 positions"),
    "json-key": (
        lambda: load_document(load_corpus(write_files(Path("c{}"), {
            "a{0}.json": '{"tokens": ["a"], "tokens": ["b"]}'})).documents[0]),
        DuplicateLabel, "c{}/a{0}.json: key 'tokens' is given 2 times"),
    "document-id": (
        lambda: load_corpus(write_files(Path("c{0}"), {"d{}/ref_1.txt": "a.", "d{}.json": "{}"})),
        DuplicateLabel, "c{0}: document id 'd{}' is given 2 times"),
}


@pytest.mark.parametrize("case", BRACED_FAILURES)
def test_failure_messages_keep_braces_in_names(tmp_path, monkeypatch, case):
    build, error, message = BRACED_FAILURES[case]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_load_corpus_rejects_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope")


def test_load_corpus_accepts_empty_root(tmp_path):
    assert load_corpus(tmp_path).documents == ()


def test_load_document_from_directory(tmp_path):
    write_files(tmp_path / "a", {
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


@pytest.mark.parametrize("layout", ["text", "json"])
def test_load_document_ignores_a_utf8_byte_order_mark(tmp_path, layout):
    if layout == "text":
        write_files(tmp_path / "a", {"ref_1.txt": "\ufeffGo on. Stop.",
                                     "ref_2.txt": "go on stop."})
    else:
        payload = {"tokens": ["go", "on", "stop"], "references": {"r1": [1, 2], "r2": [2]}}
        write_files(tmp_path, {"a.json": "\ufeff" + json.dumps(payload)})
    doc = load_document(load_corpus(tmp_path).documents[0])
    assert doc.transcript.tokens == ("go", "on", "stop")
    assert doc.references.references[0].bits == (0, 1, 1)


def test_load_document_rejects_token_mismatch(tmp_path):
    write_files(tmp_path / "a", {
        "ref_1.txt": "go on.",
        "ref_2.txt": "go on.",
        "sys_S1.txt": "go away.",
    })
    with pytest.raises(AlignmentError) as err:
        load_document(load_corpus(tmp_path).documents[0])
    assert str(err.value) == ("document 'a': S1 does not align with ref_1: "
                              "token mismatch at position 1: 'on' != 'away'")
    assert err.value.position == 1


def _outcome(call):
    """What `call` returns, or the type, message and alignment fields
    (None on other errors) of what it raises."""
    try:
        return "ok", call()
    except Exception as exc:
        return ("error", type(exc), str(exc),
                *(getattr(exc, field, None) for field in ("position", "left", "right")))


def _recorded_parses(monkeypatch):
    """The list that `corpus.parse_segmented_text`, patched, appends the
    result of each call to."""
    parsed = []

    def recorded(*args, **kwargs):
        parsed.append(parse_segmented_text(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(corpus, "parse_segmented_text", recorded)
    return parsed


def test_every_file_of_a_text_document_shares_the_first_transcript(tmp_path, monkeypatch):
    """Each later file, whether read on the byte path or, holding a
    character above U+00FF, on the string path, gets the first file's
    Transcript object back."""
    write_files(tmp_path / "a", {
        "ref_1.txt": "Go on. Stop here.",
        "ref_2.txt": "go,  on stop\x85here",
        "ref_3.txt": "GO ON; STOP\xa0HERE!!",
        "sys_S1.txt": "go\u2028on. stop here.",
        "sys_S2.txt": ". go on\x1cstop: here?",
    })
    parsed = _recorded_parses(monkeypatch)
    doc = load_document(load_corpus(tmp_path).documents[0])
    assert len(parsed) == 5
    assert all(transcript is doc.transcript for transcript, _ in parsed)
    assert doc.transcript.tokens == ("go", "on", "stop", "here")
    assert [vector.bits for _, vector in parsed] == [
        (0, 1, 0, 1), (0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 0, 1), (0, 0, 0, 1)]


@pytest.mark.parametrize("name, text, message, position, left, right", [
    pytest.param("ref_2.txt", "go on. stop there.",
                 "ref_2 does not align with ref_1: token mismatch at position 3: "
                 "'here' != 'there'", 3, "here", "there", id="token"),
    pytest.param("ref_2.txt", "go on. stop here now.",
                 "ref_2 does not align with ref_1: length mismatch: 4 vs 5 tokens",
                 4, None, "now", id="length"),
    pytest.param("sys_S1.txt", "GO ON. ΣTOP HERE.",
                 "S1 does not align with ref_1: token mismatch at position 2: "
                 "'stop' != 'σtop'", 2, "stop", "σtop", id="sigma"),
    # The same count of tokens and of characters, split elsewhere.
    pytest.param("sys_S1.txt", "go on. sto phere.",
                 "S1 does not align with ref_1: token mismatch at position 2: "
                 "'stop' != 'sto'", 2, "stop", "sto", id="split"),
])
def test_a_later_file_that_does_not_align_fails_as_before(tmp_path, name, text, message,
                                                          position, left, right):
    texts = {"ref_1.txt": "Go on. Stop here.", "ref_2.txt": "go on stop here.",
             "sys_S1.txt": "go on. stop here.", name: text}
    write_files(tmp_path / "a", texts)
    with pytest.raises(AlignmentError) as err:
        load_document(load_corpus(tmp_path).documents[0])
    assert str(err.value) == f"document 'a': {message}"
    assert (err.value.position, err.value.left, err.value.right) == (position, left, right)


def test_a_later_file_sharing_the_transcript_is_not_aligned(tmp_path, monkeypatch):
    """A later file that gets the first file's transcript back, on the
    byte path or, holding U+2028, on the string path, holds its tokens,
    so `align` is not called for it."""
    write_files(tmp_path / "a", {"ref_1.txt": "Go on. Stop here.",
                                 "ref_2.txt": "go on stop here.",
                                 "sys_S1.txt": "go\u2028on. stop here."})
    aligned = []
    monkeypatch.setattr(corpus, "align", lambda *args: aligned.append(args))
    doc = load_document(load_corpus(tmp_path).documents[0])
    assert doc.transcript.tokens == ("go", "on", "stop", "here")
    assert aligned == []


def test_later_files_get_the_join_of_the_first_built_once(tmp_path, monkeypatch):
    """The first file is parsed with nothing shared; every later file gets
    its transcript and one space-joined text of its tokens, the same
    object for every file."""
    write_files(tmp_path / "a", {"ref_1.txt": "Go on. Stop here.", "ref_2.txt": "go on stop here.",
                                 "ref_3.txt": "go on. stop here",
                                 "sys_S1.txt": "go. on stop here."})
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs["_shared"])
        return parse_segmented_text(*args, **kwargs)

    monkeypatch.setattr(corpus, "parse_segmented_text", recorded)
    doc = load_document(load_corpus(tmp_path).documents[0])
    first, *later = calls
    assert (first, len(later)) == (None, 3)
    assert all(base is doc.transcript for base, _ in later)
    assert later[0][1] == "go on stop here"
    assert all(canon is later[0][1] for _, canon in later)


WORD_CHARACTERS = "abcéÞß'"
# Runs between words: each splits them, and some hold a comma or a colon,
# which the scanner drops; U+2028 sends a file to the string path.
RUNS = (" ", "\t", "\r\n", "\x85", "\xa0", "\x1c", ". ", ".", "?!", ";", ", ", " : ", "\u2028")
# One later file differs from the first in one of these ways.
CHANGES = ("changed", "added", "dropped", "sigma", "wide")


@st.composite
def text_documents(draw):
    """The files of one text document.  Every later file is the first's
    words in other case, with commas and colons inside them and other
    runs between them; in most documents one later file also differs by a
    changed, added or dropped word, a capital sigma or a character above
    U+00FF."""
    words = draw(st.lists(st.text(WORD_CHARACTERS, min_size=1, max_size=4),
                          min_size=1, max_size=8))
    names = ["ref_1", "ref_2", *draw(st.sampled_from([[], ["ref_3"]])),
             *draw(st.sampled_from([[], ["sys_A"], ["sys_A", "sys_B"]]))]
    change = draw(st.sampled_from(("same",) * 4 + CHANGES))
    changed = draw(st.integers(1, len(names) - 1))
    files = {}
    for i, name in enumerate(names):
        variant = list(words) if i == 0 else [
            "".join(upper_alike(ch) if draw(st.booleans()) else ch for ch in word)
            for word in words]
        at = draw(st.integers(0, len(words) - 1))
        if i == changed and change != "same":
            mark = {"changed": "z", "sigma": "Σ", "wide": draw(st.sampled_from("āȺ\u2019"))}
            if change in mark:
                variant[at] += mark[change]
            elif change == "added":
                variant.insert(at, "z")
            elif len(variant) > 1:
                del variant[at]
        elif i:
            cut = draw(st.integers(0, len(variant[at])))
            variant[at] = variant[at][:cut] + draw(st.sampled_from(",:")) + variant[at][cut:]
        runs = draw(st.lists(st.sampled_from(RUNS), min_size=len(variant),
                             max_size=len(variant)))
        files[f"{name}.txt"] = "".join(word + run for word, run in zip(variant, runs))
    return files


@given(text_documents())
@example({"ref_1.txt": "go on. stop here.", "ref_2.txt": "go on. stop there."})
@example({"ref_1.txt": "go on. stop here.", "ref_2.txt": "go on. sto phere."})
@example({"ref_1.txt": "go\u2028on.", "ref_2.txt": "go on.", "sys_A.txt": "go in."})
def test_load_document_matches_the_per_file_loader(files):
    """Loading against the first file's transcript gives the document of
    the per-file loader it replaced, every file sharing the first file's
    transcript, or fails with the same error, message and alignment
    fields."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        write_files(Path(tmp) / "d", files)
        [document_files] = load_corpus(tmp).documents
        expected = _outcome(lambda: load_text_document_by_files(document_files))
        parsed = _recorded_parses(mp)
        loaded = _outcome(lambda: load_document(document_files))
    assert loaded == expected
    if loaded[0] == "ok":
        assert len(parsed) == len(files)
        assert all(transcript is loaded[1].transcript for transcript, _ in parsed)


def test_load_structured_document(tmp_path):
    write_files(tmp_path, {"a.json": json.dumps({
        "tokens": ["one", "two", "three"],
        "references": {"r1": [0, 2], "r2": [2]},
        "systems": {"S1": [1, 2]},
    })})
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
    # (error, match) pairs also pin the message
    pytest.param({"tokens": ["a", "b"], "references": [[0], [1]]},
                 (ValueError, "'references' must be an object"), id="references-list"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [0], "r2": [1]}, "systems": [[0]]},
                 (ValueError, "'systems' must be an object"), id="systems-list"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [0], "r2": [1]}, "system": {}},
                 (ValueError, r"a\.json: unknown key 'system', "
                              r"expected \['references', 'systems', 'tokens'\]$"),
                 id="unknown-key"),
    # the members of 'tokens' are checked after the shape of the other keys
    pytest.param({"tokens": ["a", 1], "references": [[0], [1]]},
                 (ValueError, r"a\.json: 'references' must be an object$"),
                 id="non-string-token-and-references-list"),
    # every positions message, whole: the list shape, then type, order and range
    pytest.param({"tokens": ["a", "b"], "references": {"r1": 0, "r2": [0]}},
                 (ValueError, r"^a/r1: boundary positions must be a list of integers$"),
                 id="positions-not-a-list"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [1], "r2": [True]}},
                 (ValueError, r"^a/r2: boundary positions must be a list of integers$"),
                 id="bool-position"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [1], "r2": [0, "1"]}},
                 (ValueError, r"^a/r2: boundary positions must be a list of integers$"),
                 id="string-position"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [1, 1, 0.5], "r2": [0]}},
                 (ValueError, r"^a/r1: boundary positions must be a list of integers$"),
                 id="float-and-repeat"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [1, 1], "r2": [0]}},
                 (ValueError, r"^a/r1: boundary positions must be strictly increasing$"),
                 id="repeated-position"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [5, -1], "r2": [0]}},
                 (ValueError, r"^a/r1: boundary positions must be strictly increasing$"),
                 id="disorder-and-range"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [0, 2, 3], "r2": [0]}},
                 (ValueError, r"^a/r1: boundary position 2 outside 0\.\.1$"),
                 id="first-position-past-the-end"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [-1, 1], "r2": [0]}},
                 (ValueError, r"^a/r1: boundary position -1 outside 0\.\.1$"),
                 id="negative-position"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [-2, 5], "r2": [0]}},
                 (ValueError, r"^a/r1: boundary position -2 outside 0\.\.1$"),
                 id="both-ends-outside"),
    # references are read before systems, each section in key order
    pytest.param({"tokens": ["a", "b"], "references": {"r2": [2], "r1": [0]},
                  "systems": {"A": [-1]}},
                 (ValueError, r"^a/r2: boundary position 2 outside 0\.\.1$"),
                 id="reference-before-system"),
    pytest.param({"tokens": ["a", "b"], "references": {"r1": [0], "r2": [1]},
                  "systems": {"S2": [1, 0], "S1": [0.0]}},
                 (ValueError, r"^a/S1: boundary positions must be a list of integers$"),
                 id="systems-in-key-order"),
])
def test_load_structured_rejects_malformed_payloads(tmp_path, payload, error):
    write_files(tmp_path, {"a.json": json.dumps(payload)})
    error, match = error if isinstance(error, tuple) else (error, None)
    with pytest.raises(error, match=match):
        load_document(load_corpus(tmp_path).documents[0])


def _plain(layout):
    """A CorpusLayout in the shape of oracles.corpus_by_iterdir."""
    def labelled(pairs):
        return tuple((label, str(path)) for label, path in pairs)
    documents = [(f.doc_id, labelled(f.ref_paths), labelled(f.sys_paths),
                  None if f.structured_path is None else str(f.structured_path))
                 for f in layout.documents]
    return documents, list(layout.warnings)


@given(corpus_trees(), st.sampled_from(["abs", "abs/", ".", "corpus/"]))
def test_load_corpus_matches_the_pathlib_walk(tree, spelling):
    """Same documents, paths, warnings and errors as the iterdir walk,
    printed the same way however the root is spelled."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp) / "corpus"
        write_tree(root, tree)
        arg = {"abs": str(root), "abs/": f"{root}/"}.get(spelling, spelling)
        mp.chdir(root if spelling == "." else tmp)
        expected = _outcome(lambda: corpus_by_iterdir(arg))
        assert _outcome(lambda: _plain(load_corpus(arg))) == expected


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_read_time_messages_print_paths_as_pathlib_does(tmp_path, spelling):
    """A malformed `.json` document, a transcript that is not UTF-8 and
    the other failures of `tests/pathparity.py` are worded with the path
    the pathlib walk prints, however the root is spelled."""
    write_corpus(tmp_path)
    assert mismatches(tmp_path, spelling) == []


def test_loading_builds_paths_for_the_root_alone(tmp_path, monkeypatch):
    """`load_corpus` builds one Path, for its root, and `load_document`
    none, however many files the corpus holds; each Path view is the
    Path of the string stored for it."""
    built = []

    def counted(*args):
        built.append(args)
        return Path(*args)

    payload = json.dumps({"tokens": ["go", "on"], "references": {"r1": [1], "r2": [0, 1]}})
    counts, layouts = [], []
    for docs in (1, 5):
        root = write_files(tmp_path / f"c{docs}", {"z.json": payload, "notes.md": "", **{
            f"d{i}/{name}.txt": "go on." for i in range(docs)
            for name in ("ref_1", "ref_2", "sys_S")}})
        with monkeypatch.context() as mp:
            mp.setattr(corpus, "Path", counted)
            built.clear()
            layouts.append(load_corpus(root))
            for files in layouts[-1].documents:
                load_document(files)
            counts.append(len(built))
    assert counts == [1, 1]
    for files in layouts[-1].documents:
        stored = [path for _, path in (*files.refs, *files.systems)]
        assert all(type(path) is str for path in stored) and len(stored) in (0, 3)
        assert files.ref_paths == tuple((label, Path(path)) for label, path in files.refs)
        assert files.sys_paths == tuple((label, Path(path)) for label, path in files.systems)
        assert files.structured_path == (files.structured and Path(files.structured))
    assert layouts[-1].documents[-1].structured_path == tmp_path / "c5" / "z.json"


TEXT_BYTES = st.sampled_from([
    b"go", b"On", b" ", b".", b"\r", b"\r\n", b"\n", b"\xef\xbb\xbf", b"\xff",
    b"\xc3", b"\xe2\x82", b"\xc3\xa9", b"\xed\xa0\x80", b"\xe2\x80\xa8", b"a" * 9000,
])


@given(st.lists(TEXT_BYTES, max_size=12))
@example([b"\xef\xbb\xbf", b"go", b" ", b"\xff", b" ", b"On", b"."])
def test_binary_read_scans_like_read_text(pieces):
    """Dropping newline translation changes no token and no bit, and a
    decode error keeps the offset of the byte in the file, BOM included,
    and gains the file name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref_1.txt"
        path.write_bytes(b"".join(pieces))
        try:
            text = path.read_bytes().decode("utf-8")
            text = text[1:] if text.startswith("\ufeff") else text
            expected = _scan(text.replace("\r\n", "\n").replace("\r", "\n"))
        except UnicodeDecodeError as exc:
            with pytest.raises(ValueError) as err:
                _read_text(path)
            assert type(err.value) is ValueError
            assert str(err.value) == f"{path}: {exc}"
        else:
            assert _scan(_read_text(path)) == expected


@pytest.mark.parametrize("size", [0, 1, READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1,
                                  2 * READ_CHUNK + 1])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("last", [b"", b"\xff"])
def test_read_text_matches_read_bytes_across_chunk_sizes(tmp_path, size, bom, last):
    """Chunked reads give the text of one whole-file read and decode,
    minus a leading BOM, at sizes around the chunk (BOM included).  A
    file ending in 0xff fails with the offset of that byte in the file,
    past the first chunk in the larger files."""
    body = bom + "é ".encode("utf-8") + b"go on. then stop! " * (size // 18 + 1)
    path = tmp_path / "ref_1.txt"
    path.write_bytes(body[:size - len(last)] + last if size else b"")
    data = path.read_bytes()
    assert len(data) == size
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        with pytest.raises(ValueError) as err:
            _read_text(path)
        assert type(err.value) is ValueError
        assert str(err.value) == f"{path}: {exc}"
        if last and size > 1:
            assert f"in position {size - 1}:" in str(err.value)
    else:
        assert _read_text(path) == (text[1:] if text.startswith("\ufeff") else text)
