"""Corpus discovery and document loading.

Two on-disk shapes are supported under one corpus root:

  <root>/<doc_id>/ref_<name>.txt   punctuated reference transcripts
  <root>/<doc_id>/sys_<name>.txt   punctuated system outputs
  <root>/<doc_id>.json             pre-tokenized document, exactly:
      {"tokens": [...],
       "references": {"<name>": [boundary positions]},
       "systems": {"<name>": [boundary positions]}}    (optional)

Boundary positions are 0-based token indices, strictly increasing.  Both
shapes are read as UTF-8, minus a leading byte order mark, and checked by
the same rules when a document is read: fewer than two references fail
that document alone.
"""

from __future__ import annotations

import json
import os
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import DuplicateLabel
from .model import (CANDIDATE, REFERENCE, BoundaryVector, ReferenceSet,
                    Transcript, align, check_aligned, parse_segmented_text)

REF_PREFIX = "ref_"
SYS_PREFIX = "sys_"
TEXT_SUFFIX = ".txt"
STRUCTURED_SUFFIX = ".json"
READ_CHUNK = 1 << 16    # bytes per os.read call in _read_text


class DocumentFiles(NamedTuple):
    """The files making up one document, before anything is read: each
    labelled file and the `.json` document are the path strings the
    listing printed, which are opened and quoted as they are.  A `Path`
    works there too.  `ref_paths`, `sys_paths` and `structured_path`
    view them as `Path`s, built on each access."""

    doc_id: str
    refs: tuple[tuple[str, str], ...]
    systems: tuple[tuple[str, str], ...]
    structured: str | None = None

    @property
    def ref_paths(self) -> tuple[tuple[str, Path], ...]:
        return tuple((label, Path(path)) for label, path in self.refs)

    @property
    def sys_paths(self) -> tuple[tuple[str, Path], ...]:
        return tuple((label, Path(path)) for label, path in self.systems)

    @property
    def structured_path(self) -> Path | None:
        return None if self.structured is None else Path(self.structured)


class CorpusLayout(NamedTuple):
    documents: tuple[DocumentFiles, ...]
    warnings: tuple[str, ...] = ()


class Document(NamedTuple("Document", [("transcript", Transcript), ("references", ReferenceSet),
                                       ("candidates", tuple[tuple[str, BoundaryVector], ...])])):
    """One document, scored in the order it holds its segmentations.  Building
    one checks that each candidate is a `(name, BoundaryVector)` pair, named
    by a non-empty `str`, of candidate origin, and that its references and
    each candidate cover its transcript: see `check_aligned`."""

    __slots__ = ()

    def __new__(cls, transcript: Transcript, references: ReferenceSet, candidates):
        doc_id, candidates = transcript.doc_id, tuple(candidates)
        check_aligned(references, transcript, "references of document {!r}", doc_id)
        for j, pair in enumerate(candidates):
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(
                    f"candidate {j} of document {doc_id!r} is not a (name, vector) pair")
            name, cand = pair
            if not isinstance(name, str) or not name:
                raise ValueError(
                    f"system name {name!r} of document {doc_id!r} is not a non-empty string")
            if not isinstance(cand, BoundaryVector) or cand.origin != CANDIDATE:
                raise ValueError(
                    f"system {name!r} of document {doc_id!r} is not a candidate segmentation")
            check_aligned(cand, transcript, "system {!r} of document {!r}", name, doc_id)
        return tuple.__new__(cls, (transcript, references, candidates))

    _make = classmethod(lambda cls, fields: cls(*fields))    # as Transcript._make

    @property
    def doc_id(self) -> str:
        return self.transcript.doc_id


def _system_label(stem: str) -> str:
    """The label of a system file named `sys_<label>`; "" for any other stem."""
    return stem[len(SYS_PREFIX):] if stem.startswith(SYS_PREFIX) else ""


def named_files(doc_id: str, ref_paths, sys_paths) -> CorpusLayout:
    """The one-document layout of the given file Paths, stored as strings:
    a reference is labelled by its stem, a system by its stem minus any
    `sys_`."""
    refs = tuple((path.stem, str(path)) for path in ref_paths)
    systems = tuple((_system_label(path.stem) or path.stem, str(path)) for path in sys_paths)
    return CorpusLayout((DocumentFiles(doc_id, refs, systems),))


def _listing(directory: str):
    """Yield (name, path, is_dir, is_file) for every entry of `directory`,
    a path as `str(Path)` prints it, sorted by name, in one scandir pass.

    Each path is a `str` that prints as pathlib prints it: the listing's
    own `entry.path`, joined in C, or the bare name when `directory` is
    `"."`, as pathlib prints `a`, not `./a`.  Types come from the listing;
    only an entry it cannot follow is asked again through pathlib, which
    counts a loop as neither and words any other error with that path.
    """
    with os.scandir(directory) as scan:
        entries = sorted(scan, key=attrgetter("name"))
    here = directory == "."
    for entry in entries:
        name = entry.name
        path = name if here else entry.path
        try:
            is_dir, is_file = entry.is_dir(), entry.is_file()
        except OSError:
            fallback = Path(path)
            is_dir, is_file = fallback.is_dir(), fallback.is_file()
        yield name, path, is_dir, is_file


def _scan_directory(doc_id: str, directory: str, warnings: list[str]) -> DocumentFiles:
    """The files of document `doc_id`, classified by name: `stem` is a text
    file's stem as Path.stem reads it, and "" for any other entry."""
    refs: list[tuple[str, str]] = []
    systems: list[tuple[str, str]] = []
    for name, path, _, is_file in _listing(directory):
        stem = name[:-len(TEXT_SUFFIX)] if is_file and name.endswith(TEXT_SUFFIX) else ""
        if stem.startswith(REF_PREFIX) and len(stem) > len(REF_PREFIX):
            refs.append((stem, path))
        elif label := _system_label(stem):
            systems.append((label, path))
        else:
            warnings.append(f"{path}: not a reference or system file, ignored")
    return DocumentFiles(doc_id, tuple(refs), tuple(systems))


def load_corpus(root: str | Path) -> CorpusLayout:
    """Discover every document under a corpus root, sorted by id.

    Nothing is skipped silently: unrecognized entries become warnings,
    and a document id given twice (`a/` and `a.json`) is a DuplicateLabel.
    What a document holds is checked only when `load_document` reads it.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    documents: list[DocumentFiles] = []
    warnings: list[str] = []
    for name, path, is_dir, is_file in _listing(str(root)):
        if is_dir:
            documents.append(_scan_directory(name, path, warnings))
        elif is_file and name.endswith(STRUCTURED_SUFFIX) and name != STRUCTURED_SUFFIX:
            documents.append(DocumentFiles(name[:-len(STRUCTURED_SUFFIX)], (), (), path))
        else:
            warnings.append(f"{path}: not a document directory or structured document, ignored")
    _unique([(files.doc_id, files) for files in documents], "{}: document id", root)
    documents.sort(key=attrgetter("doc_id"))
    return CorpusLayout(tuple(documents), tuple(warnings))


def _unique(pairs, what: str, *args) -> dict:
    """`pairs` as a dict, where a repeated key is a DuplicateLabel rather
    than a silent overwrite; `what.format(*args)` names the kind of key in
    the message, built only then, as `check_aligned` builds its own."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for key in keys if keys.count(key) > 1)
        raise DuplicateLabel(f"{what.format(*args)} {key!r} is given {keys.count(key)} times")
    return data


def _load_structured(path: str | Path, doc_id: str) -> tuple[Transcript, dict]:
    """A `.json` document's transcript and its vectors by origin, in label order."""
    try:
        data = json.loads(_read_text(path),
                          object_pairs_hook=lambda pairs: _unique(pairs, "{}: key", path))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    expected = ["references", "systems", "tokens"]
    if unknown := sorted(data.keys() - expected):
        raise ValueError(f"{path}: unknown key {unknown[0]!r}, expected {expected}")
    tokens = data.get("tokens")
    if not isinstance(tokens, list):
        raise ValueError(f"{path}: 'tokens' must be a list of strings")
    references = data.get("references")
    if not isinstance(references, dict):
        raise ValueError(f"{path}: 'references' must be an object")
    systems = data.get("systems", {})
    if not isinstance(systems, dict):
        raise ValueError(f"{path}: 'systems' must be an object")
    for section, names in (("references", references), ("systems", systems)):
        if "" in names:
            raise ValueError(f"{path}: empty key in {section!r}")
    for name in (*references, *systems):
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: key {name!r} is not valid UTF-8") from None
    try:
        transcript = Transcript(doc_id, tokens)
    except TypeError:    # its join takes str members only
        raise ValueError(f"{path}: 'tokens' must be a list of strings") from None
    vectors: dict[str, list[BoundaryVector]] = {REFERENCE: [], CANDIDATE: []}
    for origin, section in ((REFERENCE, references), (CANDIDATE, systems)):
        for name in sorted(section):
            try:    # the list shape is checked here, its members by from_positions
                if not isinstance(positions := section[name], list):
                    raise ValueError("boundary positions must be a list of integers")
                vectors[origin].append(
                    BoundaryVector.from_positions(transcript.n, positions, doc_id, origin, name))
            except ValueError as exc:
                raise ValueError(f"{doc_id}/{name}: {exc}") from None
    return transcript, vectors


def _read_text(path: str | Path) -> str:
    """The text of a transcript or `.json` document, minus a leading UTF-8 BOM.

    Bare `os.read` calls until end of file, with no newline translation:
    a carriage return is whitespace to the tokenizer and to JSON, so
    translating it would change no token and only cost time.  A directory
    fails as `open` words it; a decode error names the file and the
    offset of the bad byte in it, BOM included.
    """
    fd = os.open(path, os.O_RDONLY)
    chunks = []
    try:
        while chunk := os.read(fd, READ_CHUNK):
            chunks.append(chunk)
    except IsADirectoryError as exc:
        raise IsADirectoryError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    data = b"".join(chunks)    # one chunk is returned as it is, uncopied
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return text[1:] if text[:1] == "\ufeff" else text


def load_document(files: DocumentFiles) -> Document:
    """Read and align one document: a text file is parsed against the first
    file's transcript and join, built once, and given to `align` only if it
    does not share that `Transcript`; a token disagreement and a label given
    twice are fatal.  Either layout gives a transcript and vectors by origin,
    and one tail builds the `ReferenceSet` first, so a directory with no
    file fails as one with too few references, then the `Document`."""
    if files.structured is not None:
        transcript, vectors = _load_structured(files.structured, files.doc_id)
    else:
        for kind, entries in (("reference", files.refs), ("system", files.systems)):
            _unique(entries, "document {!r}: {} label", files.doc_id, kind)
        shared: tuple[Transcript, str] | None = None
        first_label = ""
        vectors = {REFERENCE: [], CANDIDATE: []}
        for origin, entries in ((REFERENCE, files.refs), (CANDIDATE, files.systems)):
            # In label order, as a structured document is read; labels are unique.
            for label, path in sorted(entries):
                transcript, vector = parse_segmented_text(
                    _read_text(path), files.doc_id, label, origin, _shared=shared
                )
                if shared is None:
                    shared, first_label = (transcript, " ".join(transcript.tokens)), label
                elif transcript is not shared[0]:
                    align(shared[0], transcript,
                          f"document {files.doc_id!r}: {label} does not align with {first_label}: ")
                vectors[origin].append(vector)
        transcript = shared and shared[0]
    references = ReferenceSet(files.doc_id, tuple(vectors[REFERENCE]))
    return Document(transcript, references, ((v.label, v) for v in vectors[CANDIDATE]))
