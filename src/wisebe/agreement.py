"""Inter-annotator agreement: Fleiss' kappa and Pearson correlation."""

from __future__ import annotations

from math import fsum, sqrt
from typing import NamedTuple, Sequence

from .aggregation import build_general_reference
from .errors import ConstantSequence, DegenerateAgreement
from .model import ReferenceSet
from .scoring import arithmetic_mean


class CorrelationResult(NamedTuple):
    pcc: float
    sample_count: int


def fleiss_kappa(refs: ReferenceSet) -> float:
    """Fleiss' kappa treating every token as an item rated boundary / not
    (GeneralReference.kappa); DegenerateAgreement rather than a NaN where
    the pooled boundary share is 0 or 1."""
    kappa = build_general_reference(refs).kappa
    if kappa is None:
        raise DegenerateAgreement(
            f"references for {refs.doc_id!r} use a single category everywhere"
        )
    return kappa


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Pearson correlation over paired samples, by the formula of Python
    3.11's standard library."""
    if len(xs) != len(ys):
        raise ValueError(f"sample length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("correlation needs at least two sample pairs")
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ConstantSequence("correlation undefined for a zero-variance sequence")
    xbar, ybar = arithmetic_mean(xs), arithmetic_mean(ys)
    sxy = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = fsum((d := x - xbar) * d for x in xs)
    syy = fsum((d := y - ybar) * d for y in ys)
    if not sxx * syy:    # underflow on nearly equal samples
        raise ConstantSequence("correlation undefined for a zero-variance sequence")
    return CorrelationResult(sxy / sqrt(sxx * syy), len(xs))
