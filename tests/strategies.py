"""Shared hypothesis strategies for randomized inputs, and the helpers
that write corpora to disk and run the CLI on them."""

import io
import random
from contextlib import redirect_stderr

import hypothesis.strategies as st

from wisebe import CANDIDATE, REFERENCE, BoundaryVector, ReferenceSet
from wisebe.cli import main

TOKEN_ALPHABET = "abcdefghijklmnopqrstuvwxyz'-"


def vector(*bits, origin=CANDIDATE, label="sys"):
    """A vector of document "d"; by default the candidate "sys"."""
    return BoundaryVector("d", bits, origin, label)


def reference_set(*rows):
    """The references ref_1, ref_2, ... of document "d", one per row of bits."""
    return ReferenceSet("d", tuple(
        vector(*row, origin=REFERENCE, label=f"ref_{i + 1}") for i, row in enumerate(rows)
    ))


def upper_alike(ch):
    """`ch` in upper case where that lowers back to what `ch` lowers to."""
    return ch.upper() if ch.upper().lower() == ch.lower() else ch


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


def tokens():
    return st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=8)


# Pieces of the runs between words: whitespace beyond ASCII, runs of
# unit-final marks, internal marks, and whitespace-only units.
SEPARATOR_PIECES = (" ", "\t", "\r\n", "\x85", "\xa0", "\u2028", "\u3000", ".", "?", "!",
                    ";", "...", "?!", ",", ":", ". .", " ; ", "\ufeff")


@st.composite
def segmented_texts(draw, max_words=12):
    """Words joined by drawn separator runs (some empty, which glues two
    words), so units of 0-3 tokens are common; `st.text()` seldom gives
    them."""
    words = draw(st.lists(st.text(alphabet="abΣσİßé'", min_size=1, max_size=4),
                          max_size=max_words))
    runs = draw(st.lists(st.lists(st.sampled_from(SEPARATOR_PIECES), max_size=4).map("".join),
                         min_size=len(words) + 1, max_size=len(words) + 1))
    return runs[0] + "".join(word + run for word, run in zip(words, runs[1:]))


@st.composite
def reference_sets(draw, min_m=2, max_m=4, min_n=1, max_n=30, force_boundary=True):
    """m aligned reference vectors; by default at least one boundary exists."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    rows = [draw(bit_lists(n)) for _ in range(m)]
    if force_boundary and not any(any(row) for row in rows):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = 1
    return ReferenceSet("doc", tuple(
        BoundaryVector("doc", tuple(row), REFERENCE, f"ref_{i + 1}")
        for i, row in enumerate(rows)
    ))


@st.composite
def scoring_instances(draw, **kwargs):
    """A reference set plus an aligned candidate vector."""
    refs = draw(reference_sets(**kwargs))
    bits = draw(bit_lists(refs.n))
    return refs, BoundaryVector("doc", tuple(bits), CANDIDATE, "sys")


# Sizes at and around the 30-bit digits of CPython ints and the 64-bit
# word, where a shift or popcount bug in the bitmask kernel would show.
EDGE_SIZES = (1, 29, 30, 31, 59, 60, 61, 64, 65)


def sparse_bits(draw, n):
    """n bits at density 1/2 to 1/16, from a drawn seed: integers drawn
    whole shrink towards few low bits and leave the high digits empty."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mask = rng.getrandbits(n)
    for _ in range(draw(st.integers(0, 3))):
        mask &= rng.getrandbits(n)
    return [mask >> j & 1 for j in range(n)]


@st.composite
def wide_reference_sets(draw, min_m=2, max_m=5, max_n=300):
    """Like reference_sets, over up to max_n positions and mostly the edge
    sizes; some reference often marks the first or the last position."""
    n = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, max_n)))
    m = draw(st.integers(min_m, max_m))
    rows = [sparse_bits(draw, n) for _ in range(m)]
    for end in (0, n - 1):
        if draw(st.booleans()):
            rows[draw(st.integers(0, m - 1))][end] = 1
    if not any(any(row) for row in rows):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = 1
    return ReferenceSet("doc", tuple(
        BoundaryVector("doc", tuple(row), REFERENCE, f"ref_{i + 1}")
        for i, row in enumerate(rows)
    ))


@st.composite
def wide_scoring_instances(draw, **kwargs):
    """A wide reference set plus an aligned candidate vector."""
    refs = draw(wide_reference_sets(**kwargs))
    bits = sparse_bits(draw, refs.n)
    return refs, BoundaryVector("doc", tuple(bits), CANDIDATE, "sys")


# Corpus trees on disk: names that sit on the edges of the stem/suffix
# rule, entries that are not what their names say, and file contents
# that every reader must turn into a typed error rather than a crash.
ROOT_NAMES = ("a", "b", "a.json", "d.json", ".json", "x.", "b.json.", "c.d.json",
              "notes.txt", "ref_x.txt", "junk.bin")
CHILD_NAMES = ("ref_1.txt", "ref_2.txt", "ref_3.txt", "ref_.txt", "sys_.txt",
               "ref_a.b.txt", "sys_S.txt", "sys_S.b.txt", "ref_x.", "ref_y.txt.",
               ".txt", "ref_1", "ref_4.TXT", "sys_T.json", "notes.txt")
TEXT_CONTENTS = (b"go on.", b"Go on. yes", b"go on yes.", b"", b"\x00\x01\xff\xfe",
                 b"go \xff on.", b"\xef\xbb\xbfgo on.", b"go\r\non.\r", b"go on\xef\xbb\xbf.",
                 b"go.on", b"...", b"\xef\xbb\xbfgo \xff on.")
JSON_CONTENTS = (
    b"{", b"[" * 5000, b"[1, 2]", b'"tokens"', b"\xff{}",
    b'{"tokens": ["go", "on"], "references": {"r": [0], "r": [1], "q": [1]}}',
    b'{"tokens": ["go", "on"], "references": {"r": [true], "q": [1]}}',
    b'{"tokens": ["go", "on"], "references": {"r": [1.0], "q": [1]}}',
    b'{"tokens": ["go", "on"], "references": {"r": [1], "q": [0, 1]}, "systems": {"s": [1]}}',
    b'{"tokens": ["go."], "references": {"r": [0], "q": [0]}}',
    b'{"tokens": [], "references": {"r": [], "q": []}}',
    b'{"tokens": ["go"], "references": {"r": [0], "q": [0]}, "systems": {"s": [0], "s": [0]}}',
)


def _tree_entries(names, contents, subtree):
    """Lists of (name, kind, payload) with distinct names: a file with its
    bytes, a directory with its entries, or a symlink (`dangling`, a
    `loop` to itself, or a `link` to the sibling `ref_1.txt`)."""
    entry = st.one_of(
        st.tuples(st.sampled_from(names), st.just("file"), st.sampled_from(contents)),
        st.tuples(st.sampled_from(names), st.just("dir"), subtree),
        st.tuples(st.sampled_from(names), st.sampled_from(("dangling", "loop", "link")),
                  st.none()),
    )
    return st.lists(entry, max_size=5, unique_by=lambda e: e[0])


@st.composite
def _document_entries(draw):
    """A document directory's entries; half the time ref_1.txt and
    ref_2.txt are added as files, so most documents have two references."""
    entries = draw(_tree_entries(CHILD_NAMES, TEXT_CONTENTS, st.just(())))
    if draw(st.booleans()):
        names = {name for name, _, _ in entries}
        entries += [(name, "file", draw(st.sampled_from(TEXT_CONTENTS)))
                    for name in ("ref_1.txt", "ref_2.txt") if name not in names]
    return entries


def corpus_trees():
    """The root entries of a random corpus (see write_tree)."""
    return _tree_entries(ROOT_NAMES, TEXT_CONTENTS + JSON_CONTENTS, _document_entries())


def write_tree(root, entries):
    """Create directory `root` holding `entries` (from corpus_trees)."""
    root.mkdir()
    for name, kind, payload in entries:
        path = root / name
        if kind == "file":
            path.write_bytes(payload)
        elif kind == "dir":
            write_tree(path, payload)
        else:
            path.symlink_to({"dangling": "missing", "loop": name, "link": "ref_1.txt"}[kind])


def write_files(root, files):
    """Write `files` ({relative path: str or bytes}) under `root`, creating
    parent directories; str is written as UTF-8.  Returns `root`."""
    for name, payload in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload.encode("utf-8") if isinstance(payload, str) else payload)
    return root


def run_cli(argv, out):
    """(exit code, report bytes, stderr text) of the CLI run on `argv` with
    its report written to `out`; a run that writes no report reads as empty
    bytes.  Every failure must be a JSON line, never a traceback."""
    out.unlink(missing_ok=True)
    with redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--output", str(out)])
    assert "Traceback" not in err.getvalue()
    return code, out.read_bytes() if out.exists() else b"", err.getvalue()
