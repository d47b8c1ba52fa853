"""A fixed pure-Python reference task that measures the host, not wisebe.

On a shared host the same CPU-bound code runs up to ~70% slower for
minutes at a time (neighbours contend for cores and caches; no steal
time shows, and CPU time rises with wall time).  The benchmark runs
this task next to every measured call and scales the call's time by
REFERENCE_S / (time this task took), giving seconds at a fixed host
speed.  The task mixes the operations the evaluator spends its time on:
a character scan that builds tokens, zip loops over 0/1 tuples, vote
sums, dictionary counting and small frozen dataclasses.

Changing this file changes every normalized figure: a change that
claims a gain must not edit it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REFERENCE_S = 0.05          # nominal duration of one task; the unit of normalized seconds

_TEXT = ("The launch was delayed, again. Engineers found a fault: in the cooling loop? "
         "They worked through the night; a fix was ready by morning... The countdown "
         "resumed and the rocket lifted off! ") * 450
_A = tuple(1 if (i * 7919) % 13 == 0 else 0 for i in range(140_000))
_B = tuple(1 if (i * 104729) % 11 == 0 else 0 for i in range(140_000))
_C = tuple(1 if (i * 15485863) % 12 == 0 else 0 for i in range(140_000))


@dataclass(frozen=True)
class _Item:
    name: str
    count: int


def task() -> int:
    tokens: list[str] = []
    bits: list[int] = []
    buf: list[str] = []
    for ch in _TEXT:
        if ch.isspace() or ch in ".?!;":
            if buf:
                tokens.append("".join(buf))
                bits.append(0)
                buf.clear()
            if ch in ".?!;" and bits:
                bits[-1] = 1
        elif ch not in ",:":
            buf.append(ch.lower())
    tp = fp = fn = 0
    for c, r in zip(_A, _B):
        if c and r:
            tp += 1
        elif c:
            fp += 1
        elif r:
            fn += 1
    votes = tuple(sum(v) for v in zip(_A, _B, _C))
    agreed = sum(d for d in votes if d >= 2)
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    items = [_Item(k, v) for k, v in sorted(counts.items())] * 140
    return len(tokens) + sum(bits) + tp + fp + fn + agreed + len(items)


def timed() -> float:
    """Wall seconds of one run of the task."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0
