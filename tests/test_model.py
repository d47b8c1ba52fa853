import time

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from wisebe import (CANDIDATE, REFERENCE, AlignmentError, BoundaryVector,
                    EmptyTranscript, MissingReferences, ReferenceSet,
                    Transcript, parse_segmented_text, strict_prf,
                    to_segmented_text, windowed_precision,
                    build_general_reference, build_window_reference,
                    wisebe_score)
from wisebe.baselines import lenient_prf
from wisebe.model import _DELETE, _TABLE, INTERNAL_MARKS, SU_DELIMITERS, _scan, align
from oracles import (positions_by_three_walks, scan_by_characters, scan_by_regex,
                     transcript_error_by_tokens, transcript_rejected_by_substrings)
from strategies import bit_lists, segmented_texts, tokens, upper_alike

# Characters where the unit-length scanner could part ways with the
# per-character and regex ones: delimiters and internal marks, the
# whitespace that `str.split()` and `\s` split on beyond ASCII, a BOM
# (not whitespace), and letters whose lowercase changes length or
# depends on context.
SCAN_ALPHABET = ".?!;,:ab \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\ufeffΣσİßé"


def assert_scan_matches_oracles(raw):
    """_scan gives the tokens and flags of the character scanner and of
    the regex scanner it replaced."""
    tokens, flags = _scan(raw)
    for oracle in (scan_by_characters, scan_by_regex):
        oracle_tokens, oracle_bits = oracle(raw)
        assert (tokens, bytes(flags)) == (oracle_tokens, bytes(oracle_bits)), oracle.__name__


def test_parse_basic():
    transcript, vector = parse_segmented_text("hello world. how are you?")
    assert transcript.tokens == ("hello", "world", "how", "are", "you")
    assert vector.bits == (0, 1, 0, 0, 1)


def test_parse_lowercases_and_strips_internal_marks():
    transcript, vector = parse_segmented_text("Hello, World: again.")
    assert transcript.tokens == ("hello", "world", "again")
    assert vector.bits == (0, 0, 1)


def test_parse_collapses_delimiter_runs():
    transcript, vector = parse_segmented_text("stop!! now...")
    assert transcript.tokens == ("stop", "now")
    assert vector.bits == (1, 1)


def test_parse_ignores_leading_delimiter():
    transcript, vector = parse_segmented_text(". start here.")
    assert transcript.tokens == ("start", "here")
    assert vector.bits == (0, 1)


def test_parse_delimiter_glued_between_words():
    transcript, vector = parse_segmented_text("end.start")
    assert transcript.tokens == ("end", "start")
    assert vector.bits == (1, 0)


def test_parse_semicolon_and_question_mark_close_units():
    _, vector = parse_segmented_text("a; b? c")
    assert vector.bits == (1, 1, 0)


def test_parse_keeps_other_punctuation_inside_tokens():
    transcript, _ = parse_segmented_text("that's all")
    assert transcript.tokens == ("that's", "all")


@pytest.mark.parametrize("raw", ["", "   \n\t", "...", ",,::", ". ?\x85! ;"])
def test_parse_rejects_effectively_empty_input(raw):
    with pytest.raises(EmptyTranscript, match="^transcript 'd' has no tokens$"):
        parse_segmented_text(raw, "d")


def test_normalize_drops_all_segmentation_punctuation():
    transcript, _ = parse_segmented_text("One. Two! Three?")
    assert transcript.tokens == ("one", "two", "three")


@given(st.text())
def test_scan_matches_character_oracle_on_any_text(raw):
    assert_scan_matches_oracles(raw)


@given(st.text(alphabet=SCAN_ALPHABET, max_size=40))
def test_scan_matches_character_oracle_on_tricky_characters(raw):
    assert_scan_matches_oracles(raw)


@given(segmented_texts())
def test_scan_matches_oracles_on_short_units(raw):
    assert_scan_matches_oracles(raw)


# Text below U+0100 normalizes through _TABLE; one character above it
# sends the whole text down the general path.  Any Latin-1 character is
# drawn, and half of them from the Latin-1 part of SCAN_ALPHABET plus
# capitals, so every mark turns up in most examples.
LATIN1_TEXT = st.text(st.one_of(
    st.characters(max_codepoint=0xFF),
    st.sampled_from([ch for ch in SCAN_ALPHABET + "AÉÞ" if ch < "\u0100"])))


@given(LATIN1_TEXT)
def test_scan_matches_oracles_on_latin1_text(raw):
    assert_scan_matches_oracles(raw)


@given(st.data())
def test_scan_matches_oracles_on_text_beyond_latin1(data):
    text = data.draw(st.one_of(LATIN1_TEXT, st.text(alphabet=SCAN_ALPHABET, max_size=40)))
    at = data.draw(st.integers(0, len(text)))
    wide = data.draw(st.sampled_from("Σ\u2028\ufeff\u2019"))
    assert_scan_matches_oracles(text[:at] + wide + text[at:])


def test_latin1_table_is_the_per_character_lowering():
    """The premise of the one-pass path: every character below U+0100
    lowers to one character below U+0100 that is no sigma, so no
    Final_Sigma context arises and a byte table gives what lower() gives.
    The six characters that are whitespace to `str` but not to `bytes`
    become a space, so the normalized bytes split where their text does."""
    lowered = [chr(c).lower() for c in range(256)]
    for c, low in enumerate(lowered):
        assert len(low) == 1 and ord(low) < 0x100 and low not in "σς", hex(c)
    wide_space = [c for c in range(256) if chr(c).isspace() and not bytes([c]).isspace()]
    assert wide_space == [0x1C, 0x1D, 0x1E, 0x1F, 0x85, 0xA0]
    assert _TABLE == bytes(ord("." if chr(c) in SU_DELIMITERS else " " if c in wide_space
                               else low) for c, low in enumerate(lowered))
    assert sorted(_DELETE) == sorted(map(ord, INTERNAL_MARKS))
    for c in range(256):
        data = f"a{chr(c)}b{chr(c)}".encode("latin-1").translate(_TABLE, _DELETE)
        assert [t.decode("latin-1") for t in data.split()] == data.decode("latin-1").split(), c


def _built(call):
    """What `call` returns, with the exact type of each part, or the type
    and message of what it raises."""
    try:
        return "ok", [(type(part), part) for part in call()]
    except Exception as exc:
        return "error", type(exc), str(exc)


@given(st.one_of(st.text(alphabet=SCAN_ALPHABET, max_size=40), st.text()),
       st.sampled_from((REFERENCE, CANDIDATE, "system")))
def test_parse_builds_its_transcript_through_the_constructor(raw, origin):
    """parse_segmented_text builds its transcript once, through
    Transcript's constructor, on _scan's tokens, so it gives what the
    checked constructors give on _scan's output and raises what they
    raise: token-free text fails before a bad origin."""
    def checked():
        tokens, flags = _scan(raw)
        return Transcript("d", tokens), BoundaryVector("d", flags, origin, "ref_1")
    constructor, built = Transcript.__new__, []

    def spy(cls, doc_id, tokens):
        built.append((doc_id, tuple(tokens)))
        return constructor(cls, doc_id, tokens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Transcript, "__new__", spy)
        parsed = _built(lambda: parse_segmented_text(raw, "d", "ref_1", origin))
    assert parsed == _built(checked)
    assert built == [("d", tuple(_scan(raw)[0]))]


# Texts with a character above U+00FF, which take the general path.
WIDE_TEXT = st.builds(lambda text, at, wide: text[:at] + wide + text[at:],
                      LATIN1_TEXT, st.integers(0, 40), st.sampled_from("Σ\u2028\ufeff\u2019"))
WHITESPACE = " \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"


@st.composite
def texts_and_bases(draw):
    """A text, and a transcript to parse it against: mostly that of a
    variant of the text in case, unit-final marks and whitespace, so the
    two hold the same tokens; otherwise that of the variant with one token
    swapped or added, or of another text.  The base's document is the
    text's own, "d", as `load_document` always passes it."""
    raw = draw(draw(st.sampled_from((LATIN1_TEXT, LATIN1_TEXT, LATIN1_TEXT, WIDE_TEXT))))
    swaps = {**dict.fromkeys(SU_DELIMITERS, st.sampled_from(sorted(SU_DELIMITERS))),
             **dict.fromkeys(WHITESPACE, st.sampled_from(WHITESPACE))}
    variant = "".join(draw(swaps[ch]) if ch in swaps else upper_alike(ch) if draw(st.booleans())
                      else ch for ch in raw)
    kind = draw(st.sampled_from(["same"] * 5 + ["swapped", "added", "other"]))
    if kind == "swapped":
        variant = variant.replace(draw(st.sampled_from(variant or "a")), "z", 1)
    elif kind == "added":
        variant += draw(st.sampled_from([" z", ". z", "\xa0z"]))
    elif kind == "other":
        variant = draw(st.one_of(LATIN1_TEXT, WIDE_TEXT))
    try:
        base, _ = parse_segmented_text(variant, "d")
    except EmptyTranscript:
        base = Transcript("d", ("a b",))
    return raw, base


@given(texts_and_bases())
@example(("a\x85b. c", Transcript("d", ("a", "b", "c"))))
@example(("a\xa0b. c", Transcript("d", ("a", "b", "c"))))
@example(("a\x1cb. c", Transcript("d", ("a", "b", "c"))))
@example(("A b. C", Transcript("d", ("a", "b", "d"))))
@example(("a b", Transcript("d", ("a b",))))
def test_parse_against_a_base_matches_the_plain_parse(raw_and_base):
    """A base transcript and its join, given as `_shared`, change no
    vector and no error, and the transcript is the base itself exactly
    when the plain parse holds its tokens."""
    raw, base = raw_and_base
    plain = _built(lambda: parse_segmented_text(raw, "d", "sys", CANDIDATE))
    shared = _built(lambda: parse_segmented_text(raw, "d", "sys", CANDIDATE,
                                                 _shared=(base, " ".join(base.tokens))))
    if plain[0] == "error":
        assert shared == plain
        return
    (_, plain_transcript), plain_vector = plain[1]
    (_, transcript), vector = shared[1]
    assert vector == plain_vector
    if plain_transcript.tokens == base.tokens:
        assert transcript is base
    else:
        assert (type(transcript), transcript) == (Transcript, plain_transcript)


@pytest.mark.parametrize("raw, words, bits", [
    ("a . . b", ("a", "b"), (1, 0)),        # a whitespace-only unit marks nothing new
    ("a b.", ("a", "b"), (0, 1)),           # the last token can be marked
    ("a b?! ;", ("a", "b"), (0, 1)),
    (".?! ;a b", ("a", "b"), (0, 0)),       # a leading run marks nothing
    (" . ; a. b", ("a", "b"), (1, 0)),
])
def test_parse_unit_edge_cases(raw, words, bits):
    transcript, vector = parse_segmented_text(raw, "d")
    assert transcript.tokens == words
    assert vector.bits == bits


@pytest.mark.parametrize("tail, words", [
    pytest.param(" word", ("word",), id="latin1"),      # normalized by the byte table
    pytest.param(" wordΣ", ("wordσ",), id="general"),   # the general path
])
def test_scan_is_linear_in_delimiter_runs(tail, words):
    raw = "." * 10**6 + tail
    start = time.perf_counter()
    transcript, vector = parse_segmented_text(raw, "d")
    assert time.perf_counter() - start < 1.0
    assert transcript.tokens == words
    assert vector.bits == (0,)


def test_parse_lowers_capital_sigma_without_final_form():
    transcript, vector = parse_segmented_text("ΟΔΟΣ.")
    assert transcript.tokens == ("οδοσ",)
    assert vector.bits == (1,)


def test_transcript_rejects_delimiter_inside_token():
    with pytest.raises(ValueError, match=r"token 'bad\.token' at position 1 "):
        Transcript("d", ("ok", "bad.token"))
    # the first offender is reported, not the first token
    with pytest.raises(ValueError, match=r"token 'x\?' at position 2 "):
        Transcript("d", ("ok", "fine", "x?", "y!"))


def test_transcript_rejects_empty_token():
    with pytest.raises(ValueError, match="empty token at position 1$"):
        Transcript("d", ("ok", ""))
    with pytest.raises(ValueError, match="empty token at position 2$"):
        Transcript("d", ("ok", "fine", "", "y!"))
    with pytest.raises(ValueError, match=r"token 'y!' at position 2 "):
        Transcript("d", ("ok", "fine", "y!", ""))


def test_boundary_vector_validates_bits():
    with pytest.raises(ValueError, match="^boundary bits must be 0 or 1$"):
        BoundaryVector("d", (0, 2, 0))
    with pytest.raises(ValueError, match="^boundary bits must be 0 or 1$"):
        BoundaryVector("d", (0, 1, -1))
    assert BoundaryVector("d", (True, False, 1.0)).bits == (1, 0, 1)
    assert type(BoundaryVector("d", (True,)).bits[0]) is int
    with pytest.raises(EmptyTranscript):
        BoundaryVector("d", ())
    with pytest.raises(ValueError):
        BoundaryVector("d", (1,), origin="guess")


def test_boundary_vector_positions_and_count():
    vector = BoundaryVector("d", (0, 1, 0, 1, 1))
    assert vector.positions == (1, 3, 4)
    assert vector.boundary_count == 3
    assert vector.n == 5
    # the mask is the only stored form of the marks
    assert list(BoundaryVector._fields) == ["doc_id", "origin", "label", "n", "mask"]
    assert repr(vector) == "BoundaryVector(doc_id='d', origin='reference', label='', n=5)"


def test_from_positions_round_trips():
    vector = BoundaryVector.from_positions(6, [1, 4], "d", CANDIDATE, "sys")
    assert vector.bits == (0, 1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        BoundaryVector.from_positions(6, [6])
    with pytest.raises(ValueError):
        BoundaryVector.from_positions(6, [-1])


@pytest.mark.parametrize("positions, message", [
    ([True, 2], "boundary positions must be a list of integers"),
    ([2, 0, 2], "boundary positions must be strictly increasing"),
    ([1, 1], "boundary positions must be strictly increasing"),
])
def test_from_positions_rejects_what_the_loader_rejected(positions, message):
    """Bools, repeats and disorder fail the public constructor too, with
    the message the `.json` loader gave before its prefix."""
    with pytest.raises(ValueError) as raised:
        BoundaryVector.from_positions(3, positions)
    assert str(raised.value) == message


def test_from_positions_takes_any_iterable():
    expected = BoundaryVector.from_positions(6, [1, 4], "d", CANDIDATE, "sys")
    for positions in ((1, 4), iter([1, 4]), (p for p in (1, 4)), range(1, 5, 3)):
        assert BoundaryVector.from_positions(6, positions, "d", CANDIDATE, "sys") == expected
    assert BoundaryVector.from_positions(2, ()).bits == (0, 0)


POSITION_LISTS = st.one_of(
    st.lists(st.integers(-3, 12), unique=True).map(sorted),
    st.lists(st.integers(-3, 12)),
    st.lists(st.one_of(st.integers(-3, 12), st.booleans(), st.floats(), st.none(),
                       st.text(max_size=2))),
)


@given(st.integers(1, 10), POSITION_LISTS)
@example(3, [True, 2])
@example(3, [1, 1.0])
@example(3, [1, 1, 0.5])
@example(3, [5, 0])
@example(3, [-1, 5])
@example(3, [0, 3, 4])
def test_from_positions_matches_the_three_walk_loader_rule(n, raw):
    """The same positions, or the same ValueError text, as the loader's
    old type, order and range walks on every list of JSON values."""
    try:
        outcome = BoundaryVector.from_positions(n, raw).positions
    except ValueError as exc:
        outcome = str(exc)
    assert outcome == positions_by_three_walks(raw, n)


def test_reference_set_needs_two_references():
    ref = BoundaryVector("d", (1, 0))
    with pytest.raises(MissingReferences):
        ReferenceSet("d", (ref,))


def test_reference_set_rejects_misaligned_lengths():
    with pytest.raises(AlignmentError):
        ReferenceSet("d", (BoundaryVector("d", (1, 0)), BoundaryVector("d", (1, 0, 0))))


def test_reference_set_rejects_candidates_and_foreign_docs():
    ref = BoundaryVector("d", (1, 0))
    with pytest.raises(ValueError):
        ReferenceSet("d", (ref, BoundaryVector("d", (1, 0), CANDIDATE)))
    with pytest.raises(AlignmentError):
        ReferenceSet("d", (ref, BoundaryVector("other", (1, 0))))


def test_alignment_check_compares_lengths_then_doc_ids():
    refs = ReferenceSet("d", (BoundaryVector("d", (1, 0)), BoundaryVector("d", (0, 1))))
    windows = build_window_reference(build_general_reference(refs))
    anonymous = BoundaryVector("", (1, 0), CANDIDATE)
    # an empty doc id is a doc id like any other: it matches only itself
    for score, against, what in [
            (strict_prf, refs.references[0], "candidate vs reference ''"),
            (lenient_prf, build_general_reference(refs), "candidate vs references"),
            (windowed_precision, windows, "candidate vs window reference"),
            (wisebe_score, refs, "candidate vs references")]:
        with pytest.raises(AlignmentError, match=f"^{what}: document '' vs 'd'$"):
            score(anonymous, against)
    assert strict_prf(anonymous, BoundaryVector("", (1, 1))).tp == 1
    # a reference set takes only references of its own document
    with pytest.raises(AlignmentError):
        ReferenceSet("d", (refs.references[0], BoundaryVector("", (1, 0))))
    # lengths are compared before doc ids
    with pytest.raises(AlignmentError) as err:
        wisebe_score(BoundaryVector("other", (1, 0, 1), CANDIDATE), refs)
    assert err.value.position == 2


def test_align_reports_first_difference():
    a = Transcript("d", ("the", "cat", "sat"))
    b = Transcript("d", ("the", "dog", "sat"))
    with pytest.raises(AlignmentError) as err:
        align(a, b)
    assert str(err.value) == "token mismatch at position 1: 'cat' != 'dog'"
    assert err.value.position == 1
    assert err.value.left == "cat"
    assert err.value.right == "dog"


def test_align_reports_length_mismatch():
    a = Transcript("d", ("the", "cat"))
    b = Transcript("d", ("the", "cat", "sat"))
    with pytest.raises(AlignmentError) as err:
        align(a, b, "second transcript: ")
    assert str(err.value) == "second transcript: length mismatch: 2 vs 3 tokens"
    assert err.value.position == 2
    assert err.value.left is None
    assert err.value.right == "sat"


def test_align_accepts_identical():
    a = Transcript("d", ("one", "two"))
    assert align(a, Transcript("d", ("one", "two")), "never shown: ") is None


def test_to_segmented_text_requires_alignment_and_real_delimiter():
    transcript = Transcript("d", ("a", "b"))
    with pytest.raises(AlignmentError):
        to_segmented_text(transcript, BoundaryVector("d", (1,)))
    with pytest.raises(AlignmentError):
        to_segmented_text(transcript, BoundaryVector("e", (1, 0)))
    with pytest.raises(AlignmentError, match="^vector vs transcript: document '' vs 'd'$"):
        to_segmented_text(transcript, BoundaryVector("", (1, 0)))
    assert to_segmented_text(transcript, BoundaryVector("d", (1, 0))) == "a. b"


@given(st.data())
def test_parse_serialize_round_trip(data):
    words = data.draw(st.lists(tokens(), min_size=1, max_size=15))
    bits = data.draw(bit_lists(len(words)))
    transcript = Transcript("d", tuple(words))
    vector = BoundaryVector("d", tuple(bits))
    text = to_segmented_text(transcript, vector)
    parsed_t, parsed_v = parse_segmented_text(text, "d")
    assert parsed_t.tokens == transcript.tokens
    assert parsed_v.bits == vector.bits


@given(st.lists(st.text(alphabet="ab.?!;\x00é", max_size=3), min_size=1, max_size=8))
def test_transcript_validation_matches_the_token_loop(token_list):
    """The substring fast path accepts exactly the tokens the per-token
    loop accepts, and a rejection names the same first offender."""
    expected = transcript_error_by_tokens("d", token_list)
    if expected is None:
        assert Transcript("d", token_list).tokens == tuple(token_list)
    else:
        with pytest.raises(ValueError) as err:
            Transcript("d", token_list)
        assert str(err.value) == expected


@given(st.lists(st.text(alphabet="ab.?!;\x00é", max_size=3), min_size=1, max_size=8))
@example([""])
@example(["", "a"])
@example(["a", "b;"])
def test_transcript_rejects_what_the_substring_check_rejected(token_list):
    """The truth test and the `__contains__` tests reject exactly the token
    lists that the substring check they replaced sent to the per-token loop."""
    try:
        Transcript("d", token_list)
    except ValueError:
        rejected = True
    else:
        rejected = False
    assert rejected == transcript_rejected_by_substrings(token_list)
