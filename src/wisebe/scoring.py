"""Window-based precision/recall and the agreement-scaled score."""

from __future__ import annotations

from math import fsum
from typing import Callable, NamedTuple, Sequence

from .aggregation import (DEFAULT_WINDOW_LIMIT, WindowReference,
                          build_general_reference, build_window_reference)
from .errors import NoBoundaries
from .model import BoundaryVector, ReferenceSet, check_aligned


def harmonic_f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are zero."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def arithmetic_mean(values: Sequence[float]) -> float:
    """Mean of a non-empty sequence: its exactly rounded sum over its length."""
    return fsum(values) / len(values)


def mean_defined(average: Callable, values: list):
    """`average(values)`, or None (undefined) when some value is None."""
    return None if any(v is None for v in values) else average(values)


class WisebeScore(NamedTuple):
    """Windowed precision/recall/F1 and the final agreement-scaled value."""

    precision_rw: float
    recall_rw: float
    f1_rw: float
    agreement_ratio: float
    wisebe: float


def windowed_precision(cand: BoundaryVector, windows: WindowReference) -> float:
    """Fraction of candidate boundaries falling inside some window span.

    Spans are inclusive between the first and last voted position of a
    window, so unvoted tokens inside a window still count as inside.
    A candidate without boundaries scores 0.0.
    """
    check_aligned(cand, windows, "candidate vs window reference")
    total = cand.boundary_count
    if total == 0:
        return 0.0
    return (cand.mask & windows.span_mask).bit_count() / total


def windowed_recall(cand: BoundaryVector, windows: WindowReference) -> float:
    """Fraction of windows containing at least one candidate boundary."""
    check_aligned(cand, windows, "candidate vs window reference")
    span, starts = windows.span_mask, windows.starts
    if (p := starts.bit_count()) == 0:
        raise NoBoundaries(f"window reference for {windows.doc_id!r} is empty")
    # Adding its first bit to a window minus the candidate's marks
    # carries out past the window's end exactly when it holds no mark.
    missed = ((span & ~cand.mask) + starts) & ~span
    return (p - missed.bit_count()) / p


def combine_score(f1_rw: float, agreement_ratio: float) -> float:
    """Scale windowed F1 by how much the references agree with each other."""
    return f1_rw * agreement_ratio


def window_score(cand: BoundaryVector, windows: WindowReference,
                 agreement_ratio: float) -> WisebeScore:
    """Score a candidate against an already built window reference."""
    precision = windowed_precision(cand, windows)
    recall = windowed_recall(cand, windows)
    f1 = harmonic_f1(precision, recall)
    return WisebeScore(precision, recall, f1, agreement_ratio,
                       combine_score(f1, agreement_ratio))


def wisebe_score(cand: BoundaryVector, refs: ReferenceSet,
                 separation_limit: int = DEFAULT_WINDOW_LIMIT) -> WisebeScore:
    """Score a candidate against several references at once."""
    check_aligned(cand, refs, "candidate vs references")
    ar = (general := build_general_reference(refs)).ar    # NoBoundaries before a bad limit
    return window_score(cand, build_window_reference(general, separation_limit), ar)
