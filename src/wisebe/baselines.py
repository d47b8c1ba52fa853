"""Exact-position metrics: single-reference PRF, SER, and the older
multi-reference workarounds (averaging, lenient union/intersection)."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .aggregation import GeneralReference
from .model import BoundaryVector, check_aligned
from .scoring import arithmetic_mean, harmonic_f1, mean_defined


class PRF(NamedTuple):
    """Precision/recall/F1, with raw counts when they come from one pairing."""

    precision: float
    recall: float
    f1: float
    tp: int | None = None
    fp: int | None = None
    fn: int | None = None

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return cls(precision, recall, harmonic_f1(precision, recall), tp, fp, fn)


def strict_prf(cand: BoundaryVector, ref: BoundaryVector) -> PRF:
    """Position-exact precision/recall/F1 against a single reference."""
    check_aligned(cand, ref, "candidate vs reference {!r}", ref.label)
    return mask_prf(cand.mask, ref.mask)


def mask_prf(cand: int, ref: int) -> PRF:
    """Strict PRF of a candidate mask against a reference mask."""
    tp = (cand & ref).bit_count()
    return PRF.from_counts(tp, cand.bit_count() - tp, ref.bit_count() - tp)


def mean_prf(scores: Iterable[PRF]) -> PRF:
    """Component-wise arithmetic mean of PRF values, without counts.

    Over one candidate's per-reference strict PRF this is the classic
    multi-reference mean; its F1 is the mean of the per-reference F1
    values, not the harmonic mean of the averaged precision and recall.
    """
    precision, recall, f1 = list(zip(*scores))[:3]
    return PRF(arithmetic_mean(precision), arithmetic_mean(recall), arithmetic_mean(f1))


def slot_error_rate(prf: PRF) -> float | None:
    """Insertions (fp) plus deletions (fn) over the reference boundaries
    (tp + fn) of one pairing's strict counts; None when there are none."""
    slots = prf.tp + prf.fn
    return (prf.fp + prf.fn) / slots if slots else None


def mean_ser(scores: Iterable[PRF]) -> float | None:
    """Mean SER over per-reference strict PRF; None when some reference
    marks no boundary."""
    return mean_defined(arithmetic_mean, [slot_error_rate(s) for s in scores])


def lenient_prf(cand: BoundaryVector, general: GeneralReference) -> PRF:
    """Generous multi-reference PRF: a candidate boundary is correct if
    any reference has it; only boundaries all references share can be
    missed.  So it is strict PRF against the boundaries every reference
    has plus the candidate's that any has."""
    check_aligned(cand, general, "candidate vs references")
    return mask_prf(cand.mask, general.at_least[-1] | cand.mask & general.at_least[1])
