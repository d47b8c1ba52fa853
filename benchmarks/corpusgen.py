"""Seeded synthetic corpora for the benchmark.

Every document starts from a latent "true" segmentation.  References are
noisy copies of it (dropped, shifted by one token, and inserted
boundaries) and systems are noisier copies, so windows, agreement ratio
and kappa all vary between documents.  The exact boundary positions are
kept beside the files, so the output check never has to parse text.

Text files carry the surface noise real transcripts have: mixed case,
delimiter runs (`?!`, `...`), a delimiter glued to the next token,
commas and colons present in some files and stripped in others, a
leading delimiter that marks nothing, tabs, and CRLF line ends in some
files.  None of it changes the normalized tokens or the boundaries.

Everything is drawn from `random.Random` seeded with strings, which is
deterministic across processes and Python builds, so one seed always
gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SENTENCE_MEAN = 12.5          # tokens per unit: ~8% boundary density
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "br", "ch", "sh", "st", "tr", "pl", "gr", "th")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "é", "ï", "ö", "ü")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "ck", "nd", "st")
_DELIMITERS = (".", ".", ".", ".", "?", "!", ";", "...", "?!", "!!", "?.")


@dataclass(frozen=True)
class DocSpec:
    """One generated document and its exact boundary positions."""

    doc_id: str
    tokens: tuple[str, ...]
    references: tuple[tuple[str, tuple[int, ...]], ...]   # (label, positions)
    systems: tuple[tuple[str, tuple[int, ...]], ...]      # (name, positions)

    @property
    def n(self) -> int:
        return len(self.tokens)


def _vocabulary(rng: random.Random, size: int = 3000) -> tuple[str, ...]:
    words: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                       for _ in range(rng.choice((1, 1, 2, 2, 3))))
        if rng.random() < 0.03:
            word += "'s"
        words.add(word)
    return tuple(sorted(words))


def _truth(rng: random.Random, n: int) -> set[int]:
    """Unit ends with geometric unit lengths; the last token always ends one."""
    marks = {n - 1}
    j = -1
    while True:
        j += 1 + min(int(rng.expovariate(1 / SENTENCE_MEAN)), 60)
        if j >= n - 1:
            return marks
        marks.add(j)


def _perturb(rng: random.Random, truth: set[int], n: int, noise: float,
             keep_last: bool) -> tuple[int, ...]:
    """Drop, shift by one token, or keep each true boundary; add insertions."""
    out: set[int] = set()
    for b in truth:
        u = rng.random()
        if u < noise * 0.5:
            continue
        if u < noise * 0.8:
            b = min(max(b + rng.choice((-1, 1)), 0), n - 1)
        out.add(b)
    for _ in range(int(n * noise * 0.03 + rng.random())):
        out.add(rng.randrange(n))
    if keep_last:
        out.add(n - 1)
    return tuple(sorted(out))


def make_documents(seed: int, tag: str, docs: int, tokens: int, m: int, k: int,
                   token_jitter: int = 0) -> tuple[DocSpec, ...]:
    """Documents of about `tokens` tokens with m references and k systems."""
    vocab = _vocabulary(random.Random(f"{seed}:{tag}:vocab"))
    specs = []
    for d in range(docs):
        rng = random.Random(f"{seed}:{tag}:doc{d}")
        n = tokens + (rng.randint(-token_jitter, token_jitter) if token_jitter else 0)
        words = tuple(rng.choice(vocab) for _ in range(n))
        truth = _truth(rng, n)
        ref_noise = rng.uniform(0.05, 0.45)
        refs = tuple((f"ref_{i + 1}", _perturb(rng, truth, n, ref_noise, True))
                     for i in range(m))
        systems = tuple((f"S{i + 1}", _perturb(rng, truth, n, rng.uniform(0.3, 0.8),
                                               rng.random() < 0.7))
                        for i in range(k))
        specs.append(DocSpec(f"d{d:04d}", words, refs, systems))
    return tuple(specs)


def render_text(rng: random.Random, tokens: tuple[str, ...], positions: tuple[int, ...]) -> str:
    """Punctuated transcript whose normalization gives back tokens and positions."""
    marks = set(positions)
    case = rng.choice(("sentence", "sentence", "lower", "shouty"))
    commas = rng.random() < 0.6
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    line_len = rng.randint(10, 25)
    parts: list[str] = []
    if rng.random() < 0.1:
        parts.append(rng.choice(("... ", "; ", "?! ")))   # leading delimiter marks nothing
    on_line = 0
    for j, word in enumerate(tokens):
        if case == "sentence" and (j == 0 or j - 1 in marks):
            word = word[0].upper() + word[1:]
        elif case == "shouty" and rng.random() < 0.05:
            word = word.upper()
        if j in marks:
            word += (" " if rng.random() < 0.03 else "") + rng.choice(_DELIMITERS)
            if j < len(tokens) - 1 and rng.random() < 0.02:
                parts.append(word)           # glued: "end.Next" splits into two tokens
                continue
        elif commas and rng.random() < 0.06:
            word += rng.choice((",", ",", ",", ":"))
        elif commas and rng.random() < 0.005:
            word += " ,"                     # a free-standing comma is dropped
        parts.append(word)
        on_line += 1
        if on_line >= line_len and (j in marks or on_line >= 2 * line_len):
            parts.append(newline)
            on_line = 0
        else:
            parts.append("\t" if rng.random() < 0.01 else
                         "  " if rng.random() < 0.02 else " ")
    return "".join(parts).rstrip(" \t") + newline


def write_text_corpus(root: Path, specs: tuple[DocSpec, ...], seed: int) -> int:
    """One directory per document with ref_*.txt and sys_*.txt; returns bytes written."""
    total = 0
    for spec in specs:
        doc_dir = root / spec.doc_id
        doc_dir.mkdir(parents=True)
        rng = random.Random(f"{seed}:{spec.doc_id}:text")
        files = [(f"{label}.txt", pos) for label, pos in spec.references]
        files += [(f"sys_{name}.txt", pos) for name, pos in spec.systems]
        for filename, positions in files:
            data = render_text(rng, spec.tokens, positions).encode("utf-8")
            (doc_dir / filename).write_bytes(data)
            total += len(data)
    return total


def write_json_corpus(root: Path, specs: tuple[DocSpec, ...]) -> int:
    """One pre-tokenized <doc_id>.json per document; returns bytes written."""
    root.mkdir(parents=True, exist_ok=True)
    total = 0
    for spec in specs:
        payload = {
            "tokens": list(spec.tokens),
            "references": {label: list(pos) for label, pos in spec.references},
            "systems": {name: list(pos) for name, pos in spec.systems},
        }
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        (root / f"{spec.doc_id}.json").write_bytes(data)
        total += len(data)
    return total
