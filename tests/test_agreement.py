import statistics
import sys

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from wisebe import (ConstantSequence, DegenerateAgreement, build_general_reference,
                    fleiss_kappa, pearson)
from oracles import fleiss_kappa_by_table, pearson_by_moments
from strategies import reference_set, reference_sets


def test_kappa_hand_computed_value():
    # votes per position: 3, 0, 2, 1 -> kappa works out to exactly 1/3
    refs = reference_set((1, 0, 1, 1), (1, 0, 1, 0), (1, 0, 0, 0))
    assert fleiss_kappa(refs) == pytest.approx(1 / 3, abs=1e-12)


def test_kappa_perfect_agreement():
    assert fleiss_kappa(reference_set((1, 0), (1, 0))) == pytest.approx(1.0)


def test_kappa_perfect_disagreement_is_negative():
    assert fleiss_kappa(reference_set((1, 0), (0, 1))) == pytest.approx(-1.0)


@pytest.mark.parametrize("rows", [((0, 0, 0), (0, 0, 0)), ((1, 1, 1), (1, 1, 1))])
def test_kappa_degenerate_single_category(rows):
    with pytest.raises(DegenerateAgreement):
        fleiss_kappa(reference_set(*rows))


@given(reference_sets())
def test_kappa_matches_textbook_oracle(refs):
    expected = fleiss_kappa_by_table([r.bits for r in refs.references])
    if expected is None:
        with pytest.raises(DegenerateAgreement):
            fleiss_kappa(refs)
    else:
        assert fleiss_kappa(refs) == pytest.approx(float(expected), abs=1e-12)


def test_general_reference_bundles_ratio_and_kappa():
    refs = reference_set((1, 0, 1, 1), (1, 0, 1, 0), (1, 0, 0, 0))
    general = build_general_reference(refs)
    assert general.doc_id == "d"
    assert general.ar == pytest.approx(5 / 9)
    assert general.kappa == pytest.approx(1 / 3, abs=1e-12)


def test_pearson_perfect_lines():
    assert pearson([1, 2, 3], [2, 4, 6]).pcc == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]).pcc == pytest.approx(-1.0)


def test_pearson_reports_sample_count():
    result = pearson([0.1, 0.4, 0.9, 0.2], [0.3, 0.1, 0.8, 0.4])
    assert result.sample_count == 4
    assert result.pcc == pytest.approx(
        pearson_by_moments([0.1, 0.4, 0.9, 0.2], [0.3, 0.1, 0.8, 0.4]), abs=1e-12
    )


def test_pearson_rejects_degenerate_input():
    with pytest.raises(ConstantSequence,
                       match="^correlation undefined for a zero-variance sequence$"):
        pearson([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="^correlation needs at least two sample pairs$"):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError, match="^sample length mismatch: 2 vs 3$"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


@given(st.lists(st.integers(-100, 100), min_size=2, max_size=20), st.data())
def test_pearson_matches_moment_oracle(xs, data):
    # integer samples keep the naive oracle free of cancellation noise
    ys = data.draw(st.lists(st.integers(-100, 100), min_size=len(xs), max_size=len(xs)))
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    if min(xs) == max(xs) or min(ys) == max(ys):
        with pytest.raises(ConstantSequence):
            pearson(xs, ys)
    else:
        assert pearson(xs, ys).pcc == pytest.approx(pearson_by_moments(xs, ys), abs=1e-9)


# Paired samples of equal length, as two lists.
sample_pairs = st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                        min_size=2, max_size=30).map(lambda pairs: [list(s) for s in zip(*pairs)])


@given(sample_pairs)
@example([[0.0, 1e-200], [0.0, 1e-200]])      # squared deviations underflow to 0
@example([[0.1, 0.4, 0.9, 0.2], [0.3, 0.1, 0.8, 0.4]])
def test_pearson_matches_stdlib_correlation(pair):
    """statistics.correlation is the oracle: Python 3.11 uses the same
    formula, so the value is equal; later versions round differently."""
    xs, ys = pair
    if min(xs) == max(xs) or min(ys) == max(ys):
        with pytest.raises(ConstantSequence):
            pearson(xs, ys)
        return
    try:
        expected = statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        with pytest.raises(ConstantSequence):
            pearson(xs, ys)
        return
    result = pearson(xs, ys)
    assert result.sample_count == len(xs)
    if sys.version_info < (3, 12):
        assert result.pcc == expected
    else:
        assert result.pcc == pytest.approx(expected, abs=1e-12)
