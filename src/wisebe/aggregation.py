"""Fusing several reference segmentations into general and window references.

Every segmentation is an int bitmask (bit j for position j), so the vote
profile is m + 1 masks and each count below is a popcount: broadword
counting as in Knuth, TAOCP 4A, section 7.1.3.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import NamedTuple

from .errors import BadThreshold, NoBoundaries
from .model import ReferenceSet, mask_flags

# Default number of non-boundary tokens allowed between members of one window.
DEFAULT_WINDOW_LIMIT = 2
_RUN_RE = re.compile("1+")


class GeneralReference(NamedTuple):
    """The vote profile of m references: at_least[d] masks the positions
    marked by at least d of them, d = 0..m (at_least[0] holds all n).

    pb counts every vote on positions marked by at least two references;
    ha is the vote total if all m references had agreed on every position
    anyone marked.  ar = pb / ha, in [0, 1]; NoBoundaries when ha is 0.
    """

    doc_id: str
    n: int
    at_least: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.at_least) - 1

    @property
    def histogram(self) -> list[int]:
        """Number of positions with exactly d votes, d = 0..m."""
        sizes = [mask.bit_count() for mask in (*self.at_least, 0)]
        return [a - b for a, b in zip(sizes, sizes[1:])]

    @property
    def pb(self) -> int:
        sizes = [mask.bit_count() for mask in self.at_least[2:]]
        return sum(sizes) + sum(sizes[:1])    # d >= 2 votes: in d - 1 masks, plus at_least[2]

    @property
    def ha(self) -> int:
        return self.m * self.at_least[1].bit_count()

    @property
    def ar(self) -> float:
        if not self.ha:
            raise NoBoundaries(f"no reference marks any boundary in {self.doc_id!r}")
        return self.pb / self.ha

    @property
    def kappa(self) -> float | None:
        """Fleiss' kappa with every position an item that the m references
        rate boundary / not: observed agreement is one integer over
        m(m - 1)n, chance agreement uses the pooled boundary share.  None
        when that share is 0 or 1, where the correction divides by zero."""
        m, n = self.m, self.n
        # A position with d votes is in at_least[1..d]: weights 1 and 2d - 1
        # on their popcounts sum to d and d^2, and its ordered agreeing
        # pairs d(d - 1) + (m - d)(m - d - 1) are 2d^2 - 2md + m(m - 1).
        s1 = s2 = 0
        for d in range(1, m + 1):
            c = self.at_least[d].bit_count()
            s1 += c
            s2 += (2 * d - 1) * c
        observed = (2 * s2 - 2 * m * s1 + m * (m - 1) * n) / (m * (m - 1) * n)
        share = s1 / (n * m)
        expected = share * share + (1.0 - share) * (1.0 - share)
        return None if expected >= 1.0 else (observed - expected) / (1.0 - expected)

    @property
    def counts(self) -> tuple[int, ...]:
        """Votes per position."""
        levels = (mask_flags(mask, self.n) for mask in self.at_least[1:])
        return tuple(map(sum, zip(bytes(self.n), *levels)))


def build_general_reference(refs: ReferenceSet) -> GeneralReference:
    """The vote profile of a reference set, even one that marks nothing."""
    m = refs.m
    at_least = [(1 << refs.n) - 1] + [0] * m
    for ref in refs.references:
        # A position this reference marks moves up one vote; d descends so
        # at_least[d - 1] still holds the count before this reference.
        mask = ref.mask
        for d in range(m, 0, -1):
            at_least[d] |= at_least[d - 1] & mask
    return GeneralReference(refs.doc_id, refs.n, tuple(at_least))


class WindowReference(NamedTuple):
    """Voted positions grouped into windows under a token-gap limit.

    Consecutive voted positions join the same window while the number
    of unvoted tokens between them is at most the separation limit it
    was built with.  span_mask covers each window from its first to its
    last voted position, so the windows are its runs of 1s.
    """

    doc_id: str
    voted: int
    span_mask: int
    n: int

    @property
    def starts(self) -> int:
        """The first position of every window."""
        return self.span_mask & ~(self.span_mask << 1)

    @property
    def p(self) -> int:
        return self.starts.bit_count()

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (first, last) position of every window."""
        runs = _RUN_RE.finditer(bin(self.span_mask)[:1:-1])    # bit 0 first
        return tuple((run.start(), run.end() - 1) for run in runs)

    @property
    def windows(self) -> tuple[tuple[int, ...], ...]:
        """The voted positions of every window."""
        voted = mask_flags(self.voted, self.n)
        return tuple(tuple(compress(range(lo, hi + 1), voted[lo:hi + 1]))
                     for lo, hi in self.spans)


def build_window_reference(general: GeneralReference,
                           separation_limit: int = DEFAULT_WINDOW_LIMIT) -> WindowReference:
    if separation_limit < 0:
        raise ValueError(f"separation limit must be >= 0, got {separation_limit}")
    voted = general.at_least[1]
    limit = min(separation_limit, general.n)
    # An unvoted position j is inside a window when votes at j - a and
    # j + b exist with a + b <= limit + 1; `after` marks the positions
    # with a vote at most b positions later.
    span, after = voted, 0
    for b in range(1, limit + 1):
        after |= voted >> b
        span |= (voted << (limit + 1 - b)) & after
    return WindowReference(general.doc_id, voted, span, general.n)


def consensus_reference(general: GeneralReference, threshold: int) -> int:
    """Majority-style fused reference: the mask of the positions with at
    least `threshold` votes."""
    if not 1 <= threshold <= general.m:
        raise BadThreshold(f"threshold {threshold} outside 1..{general.m}")
    return general.at_least[threshold]
