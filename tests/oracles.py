"""Brute-force reference implementations used to cross-check the package.

Everything here favors literal definitions over speed and shares no code
with the implementations under test: windows come from a regex over a
0/1 mask, ratios are exact fractions, kappa follows the classic
items-by-categories table.  The one exception is the text-document
loader, which is the simple per-file composition of the package's plain
parse and `align` that the shared-transcript load path replaced; that
parse is itself checked against the scanner oracles here.
"""

import re
from fractions import Fraction
from pathlib import Path

from wisebe.corpus import Document
from wisebe.errors import DuplicateLabel
from wisebe.model import CANDIDATE, REFERENCE, ReferenceSet, align, parse_segmented_text


def windows_by_regex(counts, separation_limit):
    """Windows as maximal regex matches over the voted-position mask."""
    mask = "".join("1" if c else "0" for c in counts)
    pattern = re.compile(r"1(?:0{0,%d}1)*" % separation_limit)
    return [
        tuple(j for j in range(m.start(), m.end()) if counts[j])
        for m in pattern.finditer(mask)
    ]


def agreement_ratio_by_counting(bit_rows):
    """(pb, ha, ar) from first principles, ar as an exact fraction."""
    m = len(bit_rows)
    votes = [sum(row[j] for row in bit_rows) for j in range(len(bit_rows[0]))]
    pb = sum(v for v in votes if v >= 2)
    ha = m * sum(1 for v in votes if v > 0)
    return pb, ha, Fraction(pb, ha)


def windowed_prf_by_membership(cand_positions, windows):
    """Literal reading: precision by span membership, recall by window hits."""
    spans = [(min(w), max(w)) for w in windows]
    cand = list(cand_positions)
    if cand:
        inside = sum(1 for p in cand if any(lo <= p <= hi for lo, hi in spans))
        precision = Fraction(inside, len(cand))
    else:
        precision = Fraction(0)
    hit = sum(1 for lo, hi in spans if any(lo <= p <= hi for p in cand))
    return precision, Fraction(hit, len(spans))


def _prf_by_counts(tp, fp, fn):
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = Fraction(0)
    return tp, fp, fn, precision, recall, f1


def strict_prf_by_sets(cand_positions, ref_positions):
    cand, ref = set(cand_positions), set(ref_positions)
    return _prf_by_counts(len(cand & ref), len(cand - ref), len(ref - cand))


def lenient_prf_by_sets(cand_positions, ref_position_lists):
    """A candidate boundary is right when it is in the union of the
    references; only boundaries in their intersection can be missed."""
    cand = set(cand_positions)
    union = set().union(*ref_position_lists)
    shared = set(ref_position_lists[0]).intersection(*ref_position_lists[1:])
    return _prf_by_counts(len(cand & union), len(cand - union), len(shared - cand))


def consensus_by_counting(bit_rows, threshold):
    """Positions that at least `threshold` rows mark."""
    return tuple(j for j in range(len(bit_rows[0]))
                 if sum(row[j] for row in bit_rows) >= threshold)


def fleiss_kappa_by_table(bit_rows):
    """Classic multi-rater kappa over an items x {yes, no} count table.

    Returns None where the statistic is undefined (expected agreement 1).
    """
    m = len(bit_rows)
    n = len(bit_rows[0])
    yes_counts = [sum(row[j] for row in bit_rows) for j in range(n)]
    p_bar = Fraction(0)
    for yes in yes_counts:
        no = m - yes
        p_bar += Fraction(yes * (yes - 1) + no * (no - 1), m * (m - 1))
    p_bar /= n
    p_yes = Fraction(sum(yes_counts), n * m)
    p_e = p_yes ** 2 + (1 - p_yes) ** 2
    if p_e == 1:
        return None
    return (p_bar - p_e) / (1 - p_e)


def fleiss_kappa_by_histogram(counts, m):
    """Fleiss' kappa in floats from the histogram of votes per position,
    as `GeneralReference.kappa` computed it before it read the popcounts:
    the ordered agreeing pairs of each vote level, weighted by how many
    positions have it.  None where the statistic is undefined."""
    n = len(counts)
    hist = [counts.count(d) for d in range(m + 1)]
    observed = sum(h * (d * (d - 1) + (m - d) * (m - d - 1))
                   for d, h in enumerate(hist)) / (m * (m - 1) * n)
    share = sum(d * h for d, h in enumerate(hist)) / (n * m)
    expected = share * share + (1.0 - share) * (1.0 - share)
    return None if expected >= 1.0 else (observed - expected) / (1.0 - expected)


def pearson_by_moments(xs, ys):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    return cov / (var_x * var_y) ** 0.5


def cell_by_rounding(x):
    """A float's report cell as the renderer once built it: rounded to
    three decimals, then printed with three."""
    return f"{round(x, 3):.3f}"


def scan_by_characters(raw_text):
    """(tokens, bits) of punctuated text, one character at a time.

    Whitespace ends a token; `.?!;` ends a token and marks the token
    before it, if any; `,` and `:` vanish; everything else is lowered
    character by character and kept.
    """
    tokens, bits, buf = [], [], []

    def flush():
        if buf:
            tokens.append("".join(buf))
            bits.append(0)
            buf.clear()

    for ch in raw_text:
        if ch.isspace():
            flush()
        elif ch in ".?!;":
            flush()
            if bits:
                bits[-1] = 1
        elif ch in ",:":
            continue
        else:
            buf.append(ch.lower())
    flush()
    return tokens, bits


_SPLIT_RE = re.compile(r"([\s.?!;]+)")


def scan_by_regex(raw_text):
    """(tokens, bits) of punctuated text by one regex split.

    The text splits on runs of whitespace and `.?!;`; a run that is not
    pure whitespace marks the token before it, so a leading run marks
    nothing.  `,` and `:` are removed first, and capital sigma is mapped
    before the whole-string `lower()` so no final sigma appears.
    """
    text = raw_text.replace(",", "").replace(":", "")
    pieces = _SPLIT_RE.split(text.replace("Σ", "σ").lower())
    tokens = pieces[0::2]
    bits = [0 if sep.isspace() else 1 for sep in pieces[1::2]]
    bits.append(0)
    if not tokens[-1]:
        del tokens[-1], bits[-1]
    if tokens and not tokens[0]:
        del tokens[0], bits[0]
    return tokens, bits


def corpus_by_iterdir(root):
    """(documents, warnings) of a corpus root by the pathlib walk that
    `load_corpus` replaced: `Path.iterdir` plus one `is_dir`/`is_file`
    stat per entry, with `Path.stem`/`Path.suffix` for the name rules.

    A document is (doc_id, ((label, path), ...) for references, the same
    for systems, structured path or None), every path as a str.  Raises
    what `load_corpus` raises, with the same messages.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    documents, warnings = [], []
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if entry.is_dir():
            refs, systems = [], []
            for child in sorted(entry.iterdir(), key=lambda p: p.name):
                stem = child.stem
                is_text = child.is_file() and child.suffix == ".txt"
                if is_text and stem.startswith("ref_") and len(stem) > 4:
                    refs.append((stem, str(child)))
                elif is_text and stem.startswith("sys_") and len(stem) > 4:
                    systems.append((stem[4:], str(child)))
                else:
                    warnings.append(f"{child}: not a reference or system file, ignored")
            documents.append((entry.name, tuple(refs), tuple(systems), None))
        elif entry.is_file() and entry.suffix == ".json":
            documents.append((entry.stem, (), (), str(entry)))
        else:
            warnings.append(f"{entry}: not a document directory or structured document, ignored")
    ids = [doc[0] for doc in documents]
    for doc_id in ids:
        if (count := ids.count(doc_id)) > 1:
            raise DuplicateLabel(f"{root}: document id {doc_id!r} is given {count} times")
    return sorted(documents, key=lambda doc: doc[0]), warnings


def transcript_error_by_tokens(doc_id, tokens):
    """The message `Transcript` rejects these tokens with, or None: the
    first empty token or token holding `.?!;`, checked one at a time."""
    for j, token in enumerate(tokens):
        if not token:
            return f"transcript {doc_id!r}: empty token at position {j}"
        if any(mark in token for mark in ".?!;"):
            return (f"transcript {doc_id!r}: token {token!r} at position {j} "
                    "contains unit-final punctuation")
    return None


def transcript_rejected_by_substrings(tokens):
    """Whether `Transcript` looked for an offending token, by the check it
    made before its truth-test form: `"" in tokens`, then a generator of
    `in` tests of each unit-final mark on the NUL-joined tokens."""
    joined = "\x00".join(tokens)
    return "" in tokens or any(mark in joined for mark in ".?!;")


def load_text_document_by_files(files):
    """The `Document` of a text-directory document (a `DocumentFiles`
    with unique labels), as `load_document` built it before a document's
    files shared one transcript: each file is read as UTF-8 minus a
    leading BOM and parsed on its own, in label order, references first,
    and `align` checks every later file against the first.  Raises what
    the first failing step raises."""
    first, first_label = None, ""
    refs, cands = [], []
    for origin, entries in ((REFERENCE, files.ref_paths), (CANDIDATE, files.sys_paths)):
        for label, path in sorted(entries):
            text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
            transcript, vector = parse_segmented_text(text, files.doc_id, label, origin)
            if first is None:
                first, first_label = transcript, label
            else:
                align(first, transcript,
                      f"document {files.doc_id!r}: {label} does not align with {first_label}: ")
            if origin == REFERENCE:
                refs.append(vector)
            else:
                cands.append((label, vector))
    return Document(first, ReferenceSet(files.doc_id, tuple(refs)), tuple(cands))


def positions_by_three_walks(raw, n):
    """The positions a `.json` positions list `raw` marks over n tokens, or
    the message it is rejected with, as the loader checked it before
    `BoundaryVector.from_positions` held the whole rule: one walk for
    exact int types (so no bools), one for strict increase, then one that
    stops at the first position outside 0..n-1."""
    if not isinstance(raw, list) or not all(type(p) is int for p in raw):
        return "boundary positions must be a list of integers"
    if not all(a < b for a, b in zip(raw, raw[1:])):
        return "boundary positions must be strictly increasing"
    for p in raw:
        if not 0 <= p < n:
            return f"boundary position {p} outside 0..{n - 1}"
    return tuple(raw)
