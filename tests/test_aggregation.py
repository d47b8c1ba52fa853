from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from wisebe import (BadThreshold, DegenerateAgreement, NoBoundaries,
                    build_general_reference, build_window_reference, fleiss_kappa)
from wisebe.aggregation import GeneralReference, consensus_reference
from wisebe.baselines import lenient_prf
from wisebe.model import mask_flags
from oracles import agreement_ratio_by_counting, fleiss_kappa_by_histogram, windows_by_regex
from strategies import reference_set, reference_sets, vector


def _profile(counts, m):
    """The vote profile whose per-position vote counts are `counts`."""
    return GeneralReference("d", len(counts), tuple(
        sum(1 << j for j, c in enumerate(counts) if c >= d) for d in range(m + 1)))


def test_general_reference_counts_votes():
    general = build_general_reference(reference_set((1, 0, 1, 1), (1, 0, 1, 0), (1, 0, 0, 0)))
    assert general.counts == (3, 0, 2, 1)
    assert general.at_least[1] == 0b1101        # voted positions 0, 2 and 3
    # position 3 has a single vote: it widens ha but adds nothing to pb
    assert general.pb == 5
    assert general.ha == 9
    assert general.ar == pytest.approx(5 / 9)


def test_general_reference_identical_references_reach_one():
    general = build_general_reference(reference_set((0, 1, 0, 1), (0, 1, 0, 1)))
    assert general.ar == 1.0


def test_general_reference_requires_some_boundary():
    general = build_general_reference(reference_set((0, 0, 0), (0, 0, 0)))
    with pytest.raises(NoBoundaries, match=r"^no reference marks any boundary in 'd'$"):
        general.ar


@given(st.integers(1, 70), st.integers(2, 5))
def test_empty_profile_is_read_by_every_other_reader(n, m):
    refs = reference_set(*[(0,) * n] * m)
    general = build_general_reference(refs)
    assert type(general) is GeneralReference
    assert (general.pb, general.ha, general.kappa) == (0, 0, None)
    assert general.histogram == [n] + [0] * m
    # Only the agreement ratio is undefined; no reader divides by zero.
    for name, attr in vars(GeneralReference).items():
        if isinstance(attr, property) and name != "ar":
            getattr(general, name)
    with pytest.raises(DegenerateAgreement):
        fleiss_kappa(refs)
    cand = vector(1, *(0,) * (n - 1))
    assert lenient_prf(cand, general)[3:] == (0, 1, 0)
    assert [consensus_reference(general, k) for k in range(1, m + 1)] == [0] * m
    assert build_window_reference(general).p == 0


def test_window_grouping_respects_gap_limit():
    general = _profile((0, 0, 0, 0, 1, 0, 0, 0, 2), 2)
    assert build_window_reference(general, 2).windows == ((4,), (8,))
    assert build_window_reference(general, 3).windows == ((4, 8),)


def test_window_limit_zero_still_joins_adjacent_positions():
    general = _profile((0, 0, 0, 1, 2, 1), 2)
    windows = build_window_reference(general, 0)
    assert windows.windows == ((3, 4, 5),)
    assert windows.spans == ((3, 5),)
    assert windows.p == 1


def test_window_reference_rejects_negative_limit():
    general = _profile((1,), 2)
    with pytest.raises(ValueError):
        build_window_reference(general, -1)


@given(reference_sets(), st.integers(0, 5))
def test_windows_match_regex_oracle(refs, limit):
    general = build_general_reference(refs)
    windows = build_window_reference(general, limit)
    assert list(windows.windows) == windows_by_regex(general.counts, limit)


@given(reference_sets(), st.integers(0, 5))
def test_windows_partition_voted_positions(refs, limit):
    general = build_general_reference(refs)
    windows = build_window_reference(general, limit)
    flat = [p for w in windows.windows for p in w]
    assert flat == [j for j, votes in enumerate(general.counts) if votes]
    for window in windows.windows:
        assert all(b - a - 1 <= limit for a, b in zip(window, window[1:]))
    for prev, nxt in zip(windows.windows, windows.windows[1:]):
        assert nxt[0] - prev[-1] - 1 > limit


@given(reference_sets())
def test_agreement_ratio_matches_counting_oracle(refs):
    general = build_general_reference(refs)
    pb, ha, ratio = agreement_ratio_by_counting([r.bits for r in refs.references])
    assert (general.pb, general.ha) == (pb, ha)
    assert general.ar == pytest.approx(float(ratio), abs=1e-15)
    assert 0.0 <= general.ar <= 1.0


@st.composite
def vote_counts(draw):
    """(m, votes per position) for m = 2..6 references over up to 100
    positions, so masks run past one 30-bit digit; about one profile in
    five gives every position 0 or m votes, where kappa is undefined."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 100))
    if draw(st.integers(0, 4)) == 0:
        return m, [draw(st.sampled_from((0, m)))] * n
    return m, draw(st.lists(st.integers(0, m), min_size=n, max_size=n))


@given(vote_counts())
@example((2, [0] * 40))
@example((6, [6] * 31))
@example((3, [3, 0, 2, 1]))
def test_kappa_from_popcounts_equals_the_histogram_kappa(profile):
    """The popcount form sums the same integers as the histogram form,
    so the two floats are equal, not merely close."""
    m, counts = profile
    expected = fleiss_kappa_by_histogram(counts, m)
    assert _profile(counts, m).kappa == expected
    assert (expected is None) == (set(counts) in ({0}, {m}))


def test_consensus_thresholds():
    general = build_general_reference(reference_set((1, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1)))
    assert mask_flags(consensus_reference(general, 1), 4) == bytes((1, 0, 1, 1))
    assert mask_flags(consensus_reference(general, 2), 4) == bytes((1, 0, 0, 1))
    assert mask_flags(consensus_reference(general, 3), 4) == bytes((1, 0, 0, 0))
    # the profile's own mask: nothing is fused again
    assert consensus_reference(general, 2) is general.at_least[2]


@pytest.mark.parametrize("threshold", [0, 4, -1])
def test_consensus_rejects_bad_threshold(threshold):
    refs = reference_set((1, 0), (0, 1), (1, 1))
    with pytest.raises(BadThreshold):
        consensus_reference(build_general_reference(refs), threshold)
