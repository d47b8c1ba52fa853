"""Transcripts, boundary vectors, and parsing of segmented text.

A segmentation of an n-token transcript is a binary vector of length n:
bit j is 1 when a sentence-like unit ends immediately after token j.
The final token of a transcript always closes a unit, but that last
bit is kept explicit rather than implied so vectors stay comparable.
Every metric reads a vector as an int bitmask with bit j for position j.
"""

from __future__ import annotations

from itertools import compress, count
from operator import lt
from typing import Iterable, NamedTuple

from .errors import AlignmentError, EmptyTranscript, MissingReferences

# Punctuation that closes a sentence-like unit when it follows a token.
SU_DELIMITERS = frozenset(".?!;")
# Punctuation stripped during normalization; never closes a unit.
INTERNAL_MARKS = frozenset(":,")
# The Latin-1 characters that str.split() splits on and bytes.split() does not.
_WIDE_SPACE = "\x1c\x1d\x1e\x1f\x85\xa0"
# _scan normalizes text below U+0100 with one bytes.translate by these two.
_TABLE = bytes(range(256)).decode("latin-1").lower().translate(str.maketrans(
    {**dict.fromkeys(SU_DELIMITERS, "."), **dict.fromkeys(_WIDE_SPACE, " ")})).encode("latin-1")
_DELETE = "".join(INTERNAL_MARKS).encode("latin-1")
_TO_DIGITS = b"01".ljust(256, b"2")    # any other byte gives "2", which int(_, 2) rejects
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")

REFERENCE = "reference"
CANDIDATE = "candidate"
_ORIGINS = (REFERENCE, CANDIDATE)


class Transcript(NamedTuple("Transcript", [("doc_id", str), ("tokens", tuple[str, ...])])):
    """Normalized token sequence shared by every segmentation of a document."""

    __slots__ = ()

    def __new__(cls, doc_id: str, tokens: Iterable[str]):
        tokens = tuple(tokens)
        if not tokens:
            raise EmptyTranscript(f"transcript {doc_id!r} has no tokens")
        # A truth test per token and four C-level substring tests accept
        # clean tokens; the loop only finds the first offender for the
        # message.  The join raises TypeError on any member that is not a str.
        joined = "\x00".join(tokens)
        if not all(tokens) or any(map(joined.__contains__, SU_DELIMITERS)):
            for j, token in enumerate(tokens):
                if not token:
                    raise ValueError(f"transcript {doc_id!r}: empty token at position {j}")
                if SU_DELIMITERS.intersection(token):
                    raise ValueError(
                        f"transcript {doc_id!r}: token {token!r} at position {j} "
                        "contains unit-final punctuation"
                    )
        return tuple.__new__(cls, (doc_id, tokens))

    # _replace builds through _make, so both run __new__'s checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n(self) -> int:
        return len(self.tokens)


def mask_flags(mask: int, n: int) -> bytes:
    """Byte j is bit j of `mask`, for j < n (n at least the bit length)."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_TO_FLAGS)


class BoundaryVector(NamedTuple("BoundaryVector", [("doc_id", str), ("origin", str),
                                                   ("label", str), ("n", int), ("mask", int)])):
    """Binary boundary marks over the token positions of one transcript.

    `bits` is given as bytes or as values that int() maps to 0 or 1; the
    vector keeps only their count `n` and `mask`, an int with bit j for
    position j, which is what metrics read.  `bits` reads them back.
    """

    __slots__ = ()

    def __new__(cls, doc_id: str, bits: bytes | Iterable[int],
                origin: str = REFERENCE, label: str = ""):
        flags = bits                # bytes skip int() coercion, as the parser gives
        if not isinstance(flags, (bytes, bytearray)):
            flags = bytes(b if b in (0, 1) else 2 for b in map(int, flags))
        if not flags:
            raise EmptyTranscript(f"boundary vector {label or doc_id!r} has no positions")
        try:
            mask = int(flags[::-1].translate(_TO_DIGITS), 2)
        except ValueError:
            raise ValueError("boundary bits must be 0 or 1") from None
        if origin not in _ORIGINS:
            raise ValueError(f"origin must be one of {_ORIGINS}, got {origin!r}")
        return tuple.__new__(cls, (doc_id, origin, label, len(flags), mask))

    @classmethod
    def _make(cls, fields):
        # Rebuilt from bits, so _replace, _make, copy and pickle run __new__'s checks.
        doc_id, origin, label, n, mask = fields
        flags = mask_flags(mask, n)
        if len(flags) != n:
            raise ValueError(f"mask {mask!r} does not fit {n!r} positions")
        return cls(doc_id, flags, origin, label)

    __reduce__ = lambda self: (type(self)._make, (tuple(self),))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(doc_id={self.doc_id!r}, origin={self.origin!r}, "
                f"label={self.label!r}, n={self.n!r})")

    @property
    def bits(self) -> tuple[int, ...]:
        """The marks as a tuple of n ints, 0 or 1."""
        return tuple(mask_flags(self.mask, self.n))

    @property
    def boundary_count(self) -> int:
        return self.mask.bit_count()

    @property
    def positions(self) -> tuple[int, ...]:
        """0-based positions of the marked boundaries, in increasing order."""
        return tuple(compress(count(), mask_flags(self.mask, 1)))

    @classmethod
    def from_positions(cls, n: int, positions: Iterable[int], doc_id: str = "",
                       origin: str = REFERENCE, label: str = "") -> "BoundaryVector":
        """Marks `positions`, any iterable of exact ints, strictly increasing, in 0..n-1."""
        check_option(n, "vector length")
        positions = tuple(positions)
        if not set(map(type, positions)) <= {int}:    # type() is exact, so bools fail
            raise ValueError("boundary positions must be a list of integers")
        if not all(map(lt, positions, positions[1:])):
            raise ValueError("boundary positions must be strictly increasing")
        if positions and not 0 <= positions[0] <= positions[-1] < n:    # ordered: test the ends
            p = next(p for p in positions if not 0 <= p < n)
            raise ValueError(f"boundary position {p} outside 0..{n - 1}")
        flags = bytearray(n)
        for p in positions:
            flags[p] = 1
        return cls(doc_id, flags, origin, label)


def check_aligned(left, right, what: str, *args) -> None:
    """Raise AlignmentError unless `left` and `right` (anything with `n`
    and `doc_id`) cover the same positions of the same document: the same
    `n`, checked first, then the same `doc_id`, an empty one included.

    The message is led by `what.format(*args)`, built only on failure, so
    `what` is always a template: a label or id holding braces goes in `args`.
    """
    if left.n != right.n:
        raise AlignmentError(f"{what.format(*args)}: {left.n} vs {right.n} positions",
                             position=min(left.n, right.n))
    if left.doc_id != right.doc_id:
        raise AlignmentError(
            f"{what.format(*args)}: document {left.doc_id!r} vs {right.doc_id!r}")


def check_option(value, name: str, error=ValueError, low=0, high=None) -> None:
    """Raise `error` unless `value` is an exact int, so no bool, in low..high (no cap if None)."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} {value} outside {low}..{high}")


class ReferenceSet(NamedTuple("ReferenceSet", [("doc_id", str),
                                               ("references", tuple[BoundaryVector, ...])])):
    """Two or more aligned reference segmentations of one document, each a
    `BoundaryVector` of reference origin."""

    __slots__ = ()

    def __new__(cls, doc_id: str, references: Iterable[BoundaryVector]):
        refs = tuple(references)
        self = tuple.__new__(cls, (doc_id, refs))
        if len(refs) < 2:
            raise MissingReferences(
                f"document {doc_id!r} has {len(refs)} reference(s), need at least 2"
            )
        for j, ref in enumerate(refs):
            if not isinstance(ref, BoundaryVector):
                raise ValueError(f"reference {j} of document {doc_id!r} is not a BoundaryVector")
            if ref.origin != REFERENCE:
                raise ValueError(f"{ref.label!r} is not a reference segmentation")
            check_aligned(ref, self, "reference {!r} of document {!r}", ref.label, doc_id)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))    # as Transcript._make

    @property
    def m(self) -> int:
        return len(self.references)

    @property
    def n(self) -> int:
        return self.references[0].n


def _units(text: str | bytes, dot: str | bytes) -> tuple[list, bytearray]:
    """Tokens and boundary flags of normalized `str` or `bytes` text, whose
    unit-final marks are all `dot`, a few C calls per unit.

    The text is read one `dot`-terminated unit at a time: the unit's
    `split()` is appended to the tokens, and the token count so far is the
    position, shifted by one, of the boundary the mark closes.  A unit
    with no tokens adds none, so runs of marks collapse, and a run before
    the first token sets only the extra flag 0, which is dropped.  Empty
    units are skipped before they are split, so long runs of marks stay
    cheap, and each unit's token list is dropped once appended, so no
    per-unit object lives on.
    """
    *units, last = text.split(dot)
    tokens = []
    flags = bytearray(len(text) + 1)    # a text of c characters has at most c tokens
    for unit in filter(None, units):
        tokens += unit.split()
        flags[len(tokens)] = 1
    tokens += last.split()
    del flags[len(tokens) + 1:], flags[0]
    return tokens, flags


def _scan(raw_text: str, shared: tuple[str, ...] = (), canon: str = ""
          ) -> tuple[list[str] | tuple[str, ...], bytearray]:
    """Lowercase tokens plus boundary flags, by `_units` on the text
    normalized so that every unit-final mark is a `.`.  `str.split()`
    splits on `str.isspace`, as the reference scanner
    `tests/oracles.scan_by_characters` does.

    Normalization takes one of two paths.  Text whose every character is
    below U+0100 (ASCII and Latin-1) goes through one `bytes.translate`
    with `_TABLE` and `_DELETE`.  That is exact: each of those characters
    lowers to one character below U+0100 and none is a sigma, so the
    per-character lowering of the table is what `lower()` gives.  The
    table also maps the six characters of `_WIDE_SPACE`, which
    `str.split()` splits on and `bytes.split()` does not, to a space, so
    the normalized bytes split where their text does.  Any other text
    fails to encode and takes the general path, with two traps:
    `str.translate` with a dict is about 40x slower than `replace` on
    non-ASCII text, and whole-string `lower()` applies Final_Sigma
    (`"ΟΔΟΣ".lower()` is `"οδος"`), so capital sigma is mapped first to
    keep the lowering per character, as in that scanner.

    `shared` is the token tuple of another file of the same transcript,
    and `canon` its space-joined text, which the caller builds once for
    all the files it scans against `shared`.  When `shared` is given and
    the text is below U+0100, the units are first read from the
    normalized bytes, which makes no `str` per token.  If there are as
    many tokens as in `shared` and their space-joined text is `canon`,
    they are its tokens, as no scanned token holds a space, and `shared`
    itself is returned with the flags.
    Otherwise the text is read as `str`, as without `shared`.
    """
    try:
        data = raw_text.encode("latin-1").translate(_TABLE, _DELETE)
    except UnicodeEncodeError:
        text = raw_text
        for mark in INTERNAL_MARKS:
            text = text.replace(mark, "")
        text = text.replace("Σ", "σ").lower()
        for mark in SU_DELIMITERS:
            text = text.replace(mark, ".")
    else:
        if shared:
            tokens, flags = _units(data, b".")
            if len(tokens) == len(shared) and b" ".join(tokens).decode("latin-1") == canon:
                return shared, flags
        text = data.decode("latin-1")
    return _units(text, ".")


def parse_segmented_text(raw_text: str, doc_id: str = "", label: str = "",
                         origin: str = REFERENCE, *,
                         _shared: tuple[Transcript, str] | None = None
                         ) -> tuple[Transcript, BoundaryVector]:
    """Split punctuated text into its transcript and boundary vector.

    A unit-final mark (. ? ! ;) closes the unit after the preceding token;
    runs of marks collapse into one boundary; commas and colons are dropped.
    The private `_shared` is a document's first transcript and the
    space-joined text of its tokens, which `load_document` builds once
    and passes with each later file: a text that holds those tokens gets
    that transcript back, and any other text is parsed as without it.
    """
    base, canon = _shared or (None, "")
    tokens, flags = _scan(raw_text, base.tokens if base else (), canon)
    # Text beyond Latin-1 is read as str only, and may hold the shared tokens too.
    if base is None or tokens is not base.tokens and tuple(tokens) != base.tokens:
        base = Transcript(doc_id, tokens)
    return base, BoundaryVector(doc_id, flags, origin, label)


def to_segmented_text(transcript: Transcript, vector: BoundaryVector) -> str:
    """Inverse of parse_segmented_text up to whitespace and case."""
    check_aligned(vector, transcript, "vector vs transcript")
    parts = [tok + "." if b else tok for tok, b in zip(transcript.tokens, vector.bits)]
    return " ".join(parts)


def align(first: Transcript, other: Transcript, what: str = "") -> None:
    """Raise AlignmentError, its message led by `what`, unless both
    transcripts carry the same tokens.

    Segmentations are only comparable position by position, so any
    token mismatch is a hard error, never repaired silently.
    `load_document` calls it only for a later file that did not get the
    first file's transcript back, to word its mismatch.
    """
    if other.tokens == first.tokens:
        return
    limit = min(first.n, other.n)
    j = next((j for j in range(limit) if first.tokens[j] != other.tokens[j]), limit)
    left, right = (t.tokens[j] if j < t.n else None for t in (first, other))
    raise AlignmentError(
        f"{what}token mismatch at position {j}: {left!r} != {right!r}" if j < limit
        else f"{what}length mismatch: {first.n} vs {other.n} tokens",
        position=j, left=left, right=right,
    )
