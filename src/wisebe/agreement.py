"""Inter-annotator agreement: Fleiss' kappa and Pearson correlation."""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from statistics import correlation
from typing import Sequence

from .aggregation import build_general_reference
from .errors import ConstantSequence, DegenerateAgreement
from .model import ReferenceSet


@dataclass(frozen=True)
class AgreementStats:
    doc_id: str
    agreement_ratio: float
    kappa: float | None


@dataclass(frozen=True)
class CorrelationResult:
    pcc: float
    sample_count: int


def fleiss_kappa(refs: ReferenceSet) -> float:
    """Fleiss' kappa treating every token as an item rated boundary / not.

    Chance agreement uses the pooled boundary share over all raters and
    tokens.  When that share is 0 or 1 the correction divides by zero,
    which surfaces as DegenerateAgreement rather than a NaN.
    """
    m, n = refs.m, refs.n
    votes = [sum(ref.bits[j] for ref in refs.references) for j in range(n)]
    per_item = [
        (d * (d - 1) + (m - d) * (m - d - 1)) / (m * (m - 1)) for d in votes
    ]
    observed = fsum(per_item) / n
    share = sum(votes) / (n * m)
    expected = share * share + (1.0 - share) * (1.0 - share)
    if expected >= 1.0:
        raise DegenerateAgreement(
            f"references for {refs.doc_id!r} use a single category everywhere"
        )
    return (observed - expected) / (1.0 - expected)


def agreement_stats(refs: ReferenceSet) -> AgreementStats:
    """Agreement ratio and Fleiss' kappa.  Kappa is None where it is
    undefined (every reference marks every token); the ratio and the
    window-based score are still defined there."""
    general = build_general_reference(refs)
    try:
        kappa = fleiss_kappa(refs)
    except DegenerateAgreement:
        kappa = None
    return AgreementStats(refs.doc_id, general.ar, kappa)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Pearson correlation over paired samples."""
    if len(xs) != len(ys):
        raise ValueError(f"sample length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("correlation needs at least two sample pairs")
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ConstantSequence("correlation undefined for a zero-variance sequence")
    return CorrelationResult(correlation(xs, ys), len(xs))
