import statistics

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from wisebe import (CANDIDATE, AlignmentError, BoundaryVector, NoBoundaries,
                    build_general_reference, build_window_reference,
                    combine_score, harmonic_f1, windowed_precision,
                    windowed_recall, wisebe_score)
from wisebe.aggregation import WindowReference
from wisebe.scoring import arithmetic_mean
from oracles import windowed_prf_by_membership
from strategies import reference_set, scoring_instances, vector


# Three references over 12 tokens: votes at 3 (one), 4 (two), 11 (all).
# With limit 2 that yields windows (3, 4) and (11,), ar = 5/9.
REFS = reference_set(
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
)


def test_harmonic_f1():
    assert harmonic_f1(0.0, 0.0) == 0.0
    assert harmonic_f1(1.0, 0.5) == pytest.approx(2 / 3)
    assert harmonic_f1(0.909, 0.714) == pytest.approx(0.800, abs=0.001)


def test_exact_hit_in_both_windows():
    score = wisebe_score(vector(0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), REFS)
    assert score.precision_rw == 1.0
    assert score.recall_rw == 1.0
    assert score.f1_rw == 1.0
    assert score.agreement_ratio == pytest.approx(5 / 9)
    assert score.wisebe == pytest.approx(5 / 9)


def test_miss_one_window():
    score = wisebe_score(vector(0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1), REFS)
    assert score.precision_rw == 0.5
    assert score.recall_rw == 0.5
    assert score.f1_rw == 0.5
    assert score.wisebe == pytest.approx(0.5 * 5 / 9)


def test_position_between_votes_counts_as_inside():
    general = build_general_reference(reference_set((1, 0, 0, 1, 0), (1, 0, 0, 1, 0)))
    windows = build_window_reference(general, 2)
    assert windows.spans == ((0, 3),)
    cand = vector(0, 1, 0, 0, 0)
    assert windowed_precision(cand, windows) == 1.0
    assert windowed_recall(cand, windows) == 1.0


def test_empty_candidate_scores_zero():
    score = wisebe_score(vector(*([0] * 12)), REFS)
    assert score.precision_rw == 0.0
    assert score.recall_rw == 0.0
    assert score.f1_rw == 0.0
    assert score.wisebe == 0.0


def test_recall_needs_a_window():
    empty = WindowReference("d", 0, 0, 4)
    with pytest.raises(NoBoundaries):
        windowed_recall(vector(1, 0, 0, 0), empty)
    assert windowed_precision(vector(1, 0, 0, 0), empty) == 0.0


def test_score_without_reference_boundaries_raises_before_the_limit_is_read():
    silent = reference_set((0, 0, 0), (0, 0, 0))
    with pytest.raises(NoBoundaries, match=r"^no reference marks any boundary in 'd'$"):
        wisebe_score(vector(1, 0, 0), silent, -1)


def test_score_rejects_misaligned_candidate():
    with pytest.raises(AlignmentError):
        wisebe_score(vector(1, 0), REFS)
    foreign = BoundaryVector("other", tuple([0] * 11 + [1]), CANDIDATE, "sys")
    with pytest.raises(AlignmentError):
        wisebe_score(foreign, REFS)


def test_combine_score_is_plain_product():
    assert combine_score(0.8, 0.5) == pytest.approx(0.4)
    assert combine_score(0.800, 0.578) == pytest.approx(0.462, abs=0.0005)


@given(scoring_instances(), st.integers(0, 5))
def test_windowed_prf_matches_membership_oracle(instance, limit):
    refs, cand = instance
    windows = build_window_reference(build_general_reference(refs), limit)
    precision, recall = windowed_prf_by_membership(cand.positions, windows.windows)
    assert windowed_precision(cand, windows) == pytest.approx(float(precision), abs=1e-15)
    assert windowed_recall(cand, windows) == pytest.approx(float(recall), abs=1e-15)


@given(scoring_instances(), st.integers(0, 5))
def test_score_stays_bounded(instance, limit):
    refs, cand = instance
    score = wisebe_score(cand, refs, limit)
    assert 0.0 <= score.precision_rw <= 1.0
    assert 0.0 <= score.recall_rw <= 1.0
    assert 0.0 <= score.f1_rw <= 1.0
    assert score.wisebe <= score.f1_rw + 1e-15
    assert score.f1_rw <= (score.precision_rw + score.recall_rw) / 2 + 1e-15


def _outcome(mean, values):
    try:
        return mean(values)
    except OverflowError as exc:    # fsum of huge values overflows in both
        return type(exc)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([0.1] * 10)
@example([1e308, 1e308])
def test_arithmetic_mean_equals_fmean(values):
    assert _outcome(arithmetic_mean, values) == _outcome(statistics.fmean, values)
