"""Reproduce the ROADMAP re-anchor figures with the benchmark's generator.

    python3 benchmarks/reanchor.py [--seed N] [--repeat R]

Times `parse_segmented_text` on one 100k-token transcript and
`evaluate_document` on 100k tokens x 3 references x 4 systems, without
and with baselines, and counts the `strict_prf` calls of the latter.
Prints wall seconds (median of R) and the same figures in normalized
seconds (see yardstick.py).
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

import corpusgen
import yardstick
from layertrace import Tracer, summarize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wisebe import (CANDIDATE, BoundaryVector, Document, EvalConfig,  # noqa: E402
                    ReferenceSet, Transcript, evaluate_document,
                    parse_segmented_text)


def timed(fn, repeat: int) -> tuple[float, float]:
    """(median wall seconds, median normalized seconds) of `repeat` calls."""
    wall, norm = [], []
    for _ in range(repeat):
        before = yardstick.timed()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        scale = 2 * yardstick.REFERENCE_S / (before + yardstick.timed())
        wall.append(elapsed)
        norm.append(elapsed * scale)
    return statistics.median(wall), statistics.median(norm)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    spec = corpusgen.make_documents(args.seed, "reanchor", 1, 100_000, 3, 4)[0]
    text = corpusgen.render_text(random.Random(args.seed), spec.tokens, spec.references[0][1])
    doc = Document(
        Transcript(spec.doc_id, spec.tokens),
        ReferenceSet(spec.doc_id, tuple(BoundaryVector.from_positions(
            spec.n, pos, spec.doc_id, label=label) for label, pos in spec.references)),
        tuple((name, BoundaryVector.from_positions(spec.n, pos, spec.doc_id, CANDIDATE, name))
              for name, pos in spec.systems),
    )
    rows = [
        ("parse_segmented_text, 100k tokens", lambda: parse_segmented_text(text)),
        ("evaluate_document 100k x 3 refs x 4 systems",
         lambda: evaluate_document(doc, EvalConfig())),
        ("  ... with --baselines", lambda: evaluate_document(doc, EvalConfig(baselines=True))),
    ]
    for label, fn in rows:
        wall, norm = timed(fn, args.repeat)
        print(f"{label:46s} {wall * 1000:8.1f} ms wall  {norm * 1000:8.1f} ms normalized")
    tracer = Tracer()
    with tracer:
        evaluate_document(doc, EvalConfig(baselines=True))
    calls = summarize(tracer.take()).calls.get("baselines.strict_prf", 0)
    print(f"strict_prf calls with --baselines: {calls} for {len(spec.references) * len(spec.systems)} "
          "(system, reference) pairs")


if __name__ == "__main__":
    main()
