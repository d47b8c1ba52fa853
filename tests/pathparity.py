"""Corpus paths print as pathlib prints them, under the running CPython.

    python3 tests/pathparity.py

`load_corpus` keeps each file as the path string its directory listing
gave, and `load_document` opens and quotes that string.  This script
writes one small corpus and checks, for each spelling of its root (`.`,
relative with a trailing `/`, absolute, absolute with a trailing `/`),
that the documents, paths and warnings are those of the plain pathlib
walk `tests/oracles.corpus_by_iterdir`, that each `Path` view is the
`Path` of its stored string, and that every read-time error starts with
the failing file's path as `str(Path(root) / ...)` prints it.  It needs
the standard library alone, so it runs where pytest is missing: pathlib
was rewritten in 3.12.  One line is printed per spelling, and the exit
code is 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from oracles import corpus_by_iterdir  # noqa: E402
from wisebe import load_corpus, load_document  # noqa: E402

SPELLINGS = (".", "corpus/", "abs", "abs/")
# Every document fails when read, at the file named in FAILING; the two
# strays give one warning each.
FILES = {
    "d.json": b"[1, 2]",
    "e/ref_1.txt": b"go \xff on.", "e/ref_2.txt": b"go on.", "e/notes.md": b"scratch",
    "f.json": b'{"tokens": ["a"], "tokens": ["b"]}',
    "g/ref_1.txt": b"go on.", "g/ref_2.txt": b"go on.", "g/sys_S.txt": b"\xc3 go on.",
    "README": b"hello",
}
FAILING = {"d": "d.json", "e": "e/ref_1.txt", "f": "f.json", "g": "g/sys_S.txt"}


def write_corpus(base: Path) -> Path:
    """Write FILES under `base/corpus` and return that root."""
    root = base / "corpus"
    for name, payload in FILES.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(payload)
    return root


def _plain(layout):
    """A CorpusLayout in the shape of `corpus_by_iterdir`."""
    documents = [(f.doc_id, f.refs, f.systems, f.structured) for f in layout.documents]
    return documents, list(layout.warnings)


def _error(files) -> str:
    try:
        load_document(files)
    except Exception as exc:    # each kind the loader raises names its file the same way
        return str(exc)
    return "(no error)"


def mismatches(base: Path, spelling: str) -> list[str]:
    """How loading the corpus under `base` (from `write_corpus`) parts
    from the pathlib walk when its root is spelled `spelling`; the
    working directory is restored on return."""
    root = base / "corpus"
    arg = {"abs": str(root), "abs/": f"{root}/"}.get(spelling, spelling)
    cwd = os.getcwd()
    os.chdir(root if spelling == "." else base)
    try:
        expected = corpus_by_iterdir(arg)
        layout = load_corpus(arg)
        found = [] if _plain(layout) == expected else [f"listing {_plain(layout)} != {expected}"]
        for files in layout.documents:
            views = (files.ref_paths, files.sys_paths, files.structured_path)
            stored = (tuple((label, Path(path)) for label, path in files.refs),
                      tuple((label, Path(path)) for label, path in files.systems),
                      files.structured and Path(files.structured))
            if views != stored:
                found.append(f"{files.doc_id}: Path views {views} != {stored}")
            path = str(Path(arg) / FAILING[files.doc_id])
            if not (message := _error(files)).startswith(f"{path}: "):
                found.append(f"{files.doc_id}: {message!r} does not start with {path!r}")
        return found
    finally:
        os.chdir(cwd)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
        for spelling in SPELLINGS:
            found = mismatches(Path(tmp), spelling)
            failed |= bool(found)
            print(f"root {spelling!r}: " + ("; ".join(found) if found else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
