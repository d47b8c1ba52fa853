"""Exact-position metrics: single-reference PRF, SER, and the older
multi-reference workarounds (averaging, lenient union/intersection)."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .aggregation import GeneralReference, vote_profile
from .errors import NoBoundaries
from .model import BoundaryVector, ReferenceSet, check_aligned
from .scoring import arithmetic_mean, harmonic_f1


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


class SerScore(NamedTuple):
    insertions: int
    deletions: int
    ser: float


def strict_prf(cand: BoundaryVector, ref: BoundaryVector) -> PRF:
    """Position-exact precision/recall/F1 against a single reference."""
    check_aligned(cand, ref, f"candidate vs reference {ref.label!r}")
    return mask_prf(cand.mask, ref.mask)


def mask_prf(cand: int, ref: int) -> PRF:
    """Strict PRF of a candidate mask against a reference mask."""
    tp = (cand & ref).bit_count()
    return PRF.from_counts(tp, cand.bit_count() - tp, ref.bit_count() - tp)


def mean_prf(cand: BoundaryVector, refs: ReferenceSet) -> PRF:
    """Component-wise arithmetic mean of strict PRF over all references.

    Note the mean F1 is the mean of the per-reference F1 values, not
    the harmonic mean of the averaged precision and recall.
    """
    return average_prf([strict_prf(cand, ref) for ref in refs.references])


def average_prf(scores: Iterable[PRF]) -> PRF:
    """Component-wise arithmetic mean of PRF values, without counts."""
    scores = list(scores)
    return PRF(
        arithmetic_mean([s.precision for s in scores]),
        arithmetic_mean([s.recall for s in scores]),
        arithmetic_mean([s.f1 for s in scores]),
    )


def slot_error_rate(cand: BoundaryVector, ref: BoundaryVector) -> SerScore:
    """Insertions plus deletions over the number of reference boundaries."""
    prf = strict_prf(cand, ref)
    ser = ser_from_counts(prf)
    if ser is None:
        raise NoBoundaries(f"reference {ref.label or ref.doc_id!r} marks no boundaries")
    return SerScore(prf.fp, prf.fn, ser)


def ser_from_counts(prf: PRF) -> float | None:
    """SER of one pairing's strict counts; the reference's boundaries are
    tp + fn.  None when the reference marks none."""
    slots = prf.tp + prf.fn
    return (prf.fp + prf.fn) / slots if slots else None


def mean_ser_from_counts(scores: Iterable[PRF]) -> float | None:
    """Mean SER over per-reference strict PRF; None when some reference
    marks no boundary."""
    sers = [ser_from_counts(s) for s in scores]
    return None if None in sers else arithmetic_mean(sers)


def mean_ser(cand: BoundaryVector, refs: ReferenceSet) -> float:
    return arithmetic_mean([slot_error_rate(cand, ref).ser for ref in refs.references])


def lenient_prf(cand: BoundaryVector, refs: ReferenceSet) -> PRF:
    """Generous multi-reference PRF: a candidate boundary is correct if
    any reference has it; only boundaries all references share can be
    missed."""
    check_aligned(cand, refs, "candidate vs references")
    return profile_lenient_prf(cand, vote_profile(refs))


def profile_lenient_prf(cand: BoundaryVector, general: GeneralReference) -> PRF:
    """lenient_prf as strict PRF against a built vote profile: against the
    boundaries every reference has plus the candidate's that any has."""
    return mask_prf(cand.mask, general.at_least[-1] | cand.mask & general.at_least[1])
