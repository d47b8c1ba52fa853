"""Corpus discovery and document loading.

Two on-disk shapes are supported under one corpus root:

  <root>/<doc_id>/ref_<name>.txt   punctuated reference transcripts
  <root>/<doc_id>/sys_<name>.txt   punctuated system outputs
  <root>/<doc_id>.json             pre-tokenized document:
      {"tokens": [...],
       "references": {"<name>": [boundary positions]},
       "systems": {"<name>": [boundary positions]}}

Boundary positions are 0-based token indices, strictly increasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DuplicateLabel, MissingReferences
from .model import (CANDIDATE, REFERENCE, AlignmentError, BoundaryVector,
                    ReferenceSet, Transcript, align, parse_segmented_text)

REF_PREFIX = "ref_"
SYS_PREFIX = "sys_"
TEXT_SUFFIX = ".txt"
STRUCTURED_SUFFIX = ".json"


@dataclass(frozen=True)
class DocumentFiles:
    """Paths making up one document, before anything is read."""

    doc_id: str
    ref_paths: tuple[tuple[str, Path], ...]
    sys_paths: tuple[tuple[str, Path], ...]
    structured_path: Path | None = None


@dataclass(frozen=True)
class CorpusLayout:
    root: Path
    documents: tuple[DocumentFiles, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Document:
    """One fully loaded, alignment-checked document."""

    transcript: Transcript
    references: ReferenceSet
    candidates: tuple[tuple[str, BoundaryVector], ...]

    @property
    def doc_id(self) -> str:
        return self.transcript.doc_id


def _scan_directory(entry: Path, warnings: list[str]) -> DocumentFiles:
    refs: list[tuple[str, Path]] = []
    systems: list[tuple[str, Path]] = []
    for child in sorted(entry.iterdir(), key=lambda p: p.name):
        stem, suffix = child.stem, child.suffix
        if child.is_file() and suffix == TEXT_SUFFIX and stem.startswith(REF_PREFIX) \
                and len(stem) > len(REF_PREFIX):
            refs.append((stem, child))
        elif child.is_file() and suffix == TEXT_SUFFIX and stem.startswith(SYS_PREFIX) \
                and len(stem) > len(SYS_PREFIX):
            systems.append((stem[len(SYS_PREFIX):], child))
        else:
            warnings.append(f"{child}: not a reference or system file, ignored")
    return DocumentFiles(entry.name, tuple(refs), tuple(systems))


def load_corpus(root: str | Path) -> CorpusLayout:
    """Discover every document under a corpus root.

    Nothing is skipped silently: unrecognized entries become warnings,
    and a directory document with fewer than two references is an error
    (structured documents are checked when they are read).
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    documents: list[DocumentFiles] = []
    warnings: list[str] = []
    deficient: list[str] = []
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if entry.is_dir():
            files = _scan_directory(entry, warnings)
            if len(files.ref_paths) < 2:
                deficient.append(f"{files.doc_id} ({len(files.ref_paths)} reference file(s))")
            documents.append(files)
        elif entry.is_file() and entry.suffix == STRUCTURED_SUFFIX:
            documents.append(DocumentFiles(entry.stem, (), (), structured_path=entry))
        else:
            warnings.append(f"{entry}: not a document directory or structured document, ignored")
    seen: set[str] = set()
    for files in documents:
        if files.doc_id in seen:
            raise ValueError(f"duplicate document id {files.doc_id!r} under {root}")
        seen.add(files.doc_id)
    if deficient:
        raise MissingReferences(
            "documents with fewer than two references: " + ", ".join(deficient)
        )
    documents.sort(key=lambda f: f.doc_id)
    return CorpusLayout(root, tuple(documents), tuple(warnings))


def _positions_vector(raw, n: int, doc_id: str, name: str, origin: str) -> BoundaryVector:
    if not isinstance(raw, list) or not all(isinstance(p, int) and not isinstance(p, bool)
                                            for p in raw):
        raise ValueError(f"{doc_id}/{name}: boundary positions must be a list of integers")
    if any(b <= a for a, b in zip(raw, raw[1:])):
        raise ValueError(f"{doc_id}/{name}: boundary positions must be strictly increasing")
    try:
        return BoundaryVector.from_positions(n, raw, doc_id, origin, name)
    except ValueError as exc:
        raise ValueError(f"{doc_id}/{name}: {exc}") from None


def _load_structured(path: Path, doc_id: str) -> Document:
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    tokens = data.get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"{path}: 'tokens' must be a list of strings")
    references = data.get("references")
    if not isinstance(references, dict):
        raise ValueError(f"{path}: 'references' must be an object")
    systems = data.get("systems", {})
    if not isinstance(systems, dict):
        raise ValueError(f"{path}: 'systems' must be an object")
    transcript = Transcript(doc_id, tuple(tokens))
    if len(references) < 2:
        raise MissingReferences(
            f"document {doc_id!r} has {len(references)} reference(s), need at least 2"
        )
    refs = tuple(
        _positions_vector(references[name], transcript.n, doc_id, name, REFERENCE)
        for name in sorted(references)
    )
    cands = tuple(
        (name, _positions_vector(systems[name], transcript.n, doc_id, name, CANDIDATE))
        for name in sorted(systems)
    )
    return Document(transcript, ReferenceSet(doc_id, refs), cands)


def load_document(files: DocumentFiles) -> Document:
    """Read and align one document; any token disagreement is fatal, and
    so are two references or two systems with the same label."""
    if files.structured_path is not None:
        return _load_structured(files.structured_path, files.doc_id)
    for kind, entries in (("reference", files.ref_paths), ("system", files.sys_paths)):
        labels = [label for label, _ in entries]
        for label in labels:
            if labels.count(label) > 1:
                raise DuplicateLabel(f"document {files.doc_id!r}: {kind} label {label!r} "
                                     f"is given {labels.count(label)} times")
    base: Transcript | None = None
    base_label = ""
    refs: list[BoundaryVector] = []
    cands: list[tuple[str, BoundaryVector]] = []
    for origin, entries in ((REFERENCE, files.ref_paths), (CANDIDATE, files.sys_paths)):
        for label, path in entries:
            transcript, vector = parse_segmented_text(
                path.read_text(encoding="utf-8-sig"), files.doc_id, label, origin
            )
            if base is None:
                base, base_label = transcript, label
            else:
                try:
                    align([base, transcript])
                except AlignmentError as exc:
                    raise AlignmentError(
                        f"document {files.doc_id!r}: {label} does not align "
                        f"with {base_label}: {exc}",
                        position=exc.position, left=exc.left, right=exc.right,
                    ) from None
            if origin == REFERENCE:
                refs.append(vector)
            else:
                cands.append((label, vector))
    if base is None:
        raise MissingReferences(f"document {files.doc_id!r} has no files")
    return Document(base, ReferenceSet(files.doc_id, tuple(refs)), tuple(cands))
