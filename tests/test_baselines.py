import pytest
from hypothesis import given

from wisebe import AlignmentError, build_general_reference, strict_prf
from wisebe.baselines import lenient_prf, mean_prf, mean_ser, slot_error_rate
from oracles import strict_prf_by_sets
from strategies import reference_set, scoring_instances, vector


def test_strict_prf_counts():
    ref = vector(0, 0, 1, 0, 0, 1, 0, 0, 0, 1, origin="reference", label="ref_1")
    cand = vector(0, 0, 1, 0, 1, 0, 0, 0, 0, 1)
    prf = strict_prf(cand, ref)
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)
    assert prf.precision == pytest.approx(2 / 3)
    assert prf.recall == pytest.approx(2 / 3)
    assert prf.f1 == pytest.approx(2 / 3)


def test_strict_prf_zero_denominators():
    ref = vector(1, 0, 1, origin="reference")
    silent = vector(0, 0, 0)
    prf = strict_prf(silent, ref)
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


def test_strict_prf_rejects_misalignment():
    with pytest.raises(AlignmentError):
        strict_prf(vector(1, 0), vector(1, 0, 0, origin="reference"))


@given(scoring_instances())
def test_strict_prf_matches_set_oracle(instance):
    refs, cand = instance
    for ref in refs.references:
        prf = strict_prf(cand, ref)
        tp, fp, fn, precision, recall, f1 = strict_prf_by_sets(cand.positions, ref.positions)
        assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)
        assert prf.precision == pytest.approx(float(precision), abs=1e-15)
        assert prf.recall == pytest.approx(float(recall), abs=1e-15)
        assert prf.f1 == pytest.approx(float(f1), abs=1e-12)


def test_mean_prf_averages_componentwise():
    refs = reference_set((1, 0, 0, 1), (0, 1, 0, 1))
    cand = vector(1, 0, 0, 1)
    scores = [strict_prf(cand, ref) for ref in refs.references]
    mean = mean_prf(scores)
    assert mean.precision == pytest.approx(sum(s.precision for s in scores) / 2)
    assert mean.recall == pytest.approx(sum(s.recall for s in scores) / 2)
    # mean F1 averages the per-reference F1s, it is not H(mean P, mean R)
    assert mean.f1 == pytest.approx(sum(s.f1 for s in scores) / 2)
    assert mean.tp is None


def test_slot_error_rate():
    ref = vector(0, 0, 1, 0, 0, 1, 0, 0, 0, 1, origin="reference", label="ref_1")
    cand = vector(0, 0, 1, 0, 1, 0, 0, 0, 0, 1)
    prf = strict_prf(cand, ref)
    assert (prf.fp, prf.fn) == (1, 1)    # insertions, deletions
    assert slot_error_rate(prf) == pytest.approx(2 / 3)


def test_slot_error_rate_can_exceed_one():
    ref = vector(1, 0, 0, 0, 0, 0, origin="reference")
    noisy = vector(1, 1, 1, 1, 1, 1)
    assert slot_error_rate(strict_prf(noisy, ref)) == pytest.approx(5.0)


def test_slot_error_rate_requires_reference_boundaries():
    assert slot_error_rate(strict_prf(vector(1, 0), vector(0, 0, origin="reference"))) is None


def test_mean_ser_averages_over_references():
    refs = reference_set((0, 0, 1, 0, 1), (0, 1, 0, 0, 1))
    cand = vector(0, 0, 1, 0, 1)
    # ref_1: perfect (0.0); ref_2: one insertion, one deletion (1.0)
    assert mean_ser([strict_prf(cand, ref) for ref in refs.references]) == pytest.approx(0.5)


def test_mean_ser_matches_per_reference_ser_and_is_none_when_undefined():
    cand = vector(0, 0, 1, 0, 1)
    refs = reference_set((0, 0, 1, 0, 1), (0, 1, 0, 0, 1))
    counts = [strict_prf(cand, ref) for ref in refs.references]
    assert mean_ser(counts) == sum(map(slot_error_rate, counts)) / 2
    silent = reference_set((0, 0, 1, 0, 1), (0, 0, 0, 0, 0))
    counts = [strict_prf(cand, ref) for ref in silent.references]
    assert mean_ser(counts) is None
    assert slot_error_rate(counts[1]) is None


def test_lenient_prf_union_and_intersection():
    refs = reference_set((0, 1, 0, 0, 0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 1, 0, 0))
    cand = vector(0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
    prf = lenient_prf(cand, build_general_reference(refs))
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 0)
    assert prf.precision == pytest.approx(2 / 3)
    assert prf.recall == 1.0


def test_lenient_prf_misses_only_unanimous_boundaries():
    refs = reference_set((1, 0, 0, 1), (1, 0, 0, 0))
    silent = vector(0, 0, 0, 0)
    prf = lenient_prf(silent, build_general_reference(refs))
    assert (prf.tp, prf.fp, prf.fn) == (0, 0, 1)


@given(scoring_instances())
def test_lenient_never_scores_below_strict(instance):
    refs, cand = instance
    lenient = lenient_prf(cand, build_general_reference(refs))
    for ref in refs.references:
        strict = strict_prf(cand, ref)
        assert lenient.precision >= strict.precision - 1e-15
        assert lenient.recall >= strict.recall - 1e-15
