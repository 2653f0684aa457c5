"""Closure order, generization families, obstruction witnesses."""

import json

import pytest

from splitmodel.degenerations import (
    ClosurePoset,
    LiftRecord,
    WitnessRecord,
    admissible_generization_pairs,
    generization_lift,
    nonsmooth_witness,
)
from splitmodel.errors import BadLabel, BadTargets
from splitmodel.points import StratumLabel, census, stratum_dimension


def test_poset_labels_and_extremes():
    p2 = ClosurePoset(2)
    assert p2.labels == (StratumLabel(0, 0), StratumLabel(0, 2),
                         StratumLabel(2, 2))
    assert set(p2.maximal()) == {StratumLabel(0, 0), StratumLabel(2, 2)}
    assert p2.minimal() == StratumLabel(0, 2)

    p3 = ClosurePoset(3)
    assert p3.labels == (StratumLabel(1, 1), StratumLabel(1, 3),
                         StratumLabel(3, 3))
    assert set(p3.maximal()) == {StratumLabel(1, 1), StratumLabel(3, 3)}
    assert p3.minimal() == StratumLabel(1, 3)


def test_poset_is_a_partial_order():
    for s in range(0, 9):
        p = ClosurePoset(s)
        labels = p.labels
        # parity and range of every label
        for (h, l) in labels:
            assert 0 <= h <= l <= s
            assert (h - s) % 2 == 0 and (l - s) % 2 == 0
        for a in labels:
            assert p.leq(a, a)
            for b in labels:
                if p.leq(a, b) and p.leq(b, a):
                    assert a == b
                for c in labels:
                    if p.leq(a, b) and p.leq(b, c):
                        assert p.leq(a, c)


def test_poset_maximal_count_and_note():
    for s in range(1, 9):
        p = ClosurePoset(s)
        expected = s // 2 + 1 if s % 2 == 0 else (s + 1) // 2
        assert p.component_count() == expected
        assert {lab for lab in p.maximal()} == {
            StratumLabel(h, h) for h in range(s % 2, s + 1, 2)}
        note = p.component_count_note()
        if s % 2 == 0:
            assert note is not None and "discrepancy" in note
        else:
            assert note is None
    d = ClosurePoset(4).to_json_dict()
    assert d["component_count"] == 3
    assert d["component_count_note"] is not None
    json.dumps(d)


def test_dimension_strictly_increases_along_the_order():
    for s in (2, 3, 4):
        p = ClosurePoset(s)
        r = s + 2
        for a in p.labels:
            for b in p.labels:
                if a != b and p.leq(a, b):
                    assert (stratum_dimension(r, s, a.h, a.l)
                            < stratum_dimension(r, s, b.h, b.l))


def test_poset_matches_exhaustive_census():
    found = census(4, 2, 3, strategy="exhaustive").labels()
    assert found == set(ClosurePoset(2).labels)


def test_closure_sets():
    p = ClosurePoset(4)
    assert p.closure(StratumLabel(0, 0)) == {StratumLabel(0, 0),
                                             StratumLabel(0, 2),
                                             StratumLabel(0, 4)}
    assert p.closure(StratumLabel(4, 4)) == {StratumLabel(4, 4),
                                             StratumLabel(2, 4),
                                             StratumLabel(0, 4)}
    assert p.closure(StratumLabel(2, 2)) == {StratumLabel(2, 2),
                                             StratumLabel(2, 4),
                                             StratumLabel(0, 2),
                                             StratumLabel(0, 4)}
    with pytest.raises(BadLabel):
        p.leq((1, 1), (0, 0))


def test_admissible_pair_counts():
    assert len(admissible_generization_pairs(2)) == 5
    assert len(admissible_generization_pairs(3)) == 5
    assert len(admissible_generization_pairs(4)) == 15


def test_generization_lift_basic():
    rec = generization_lift(6, 2, (0, 2), (2, 2), seed=5)
    assert isinstance(rec, LiftRecord)
    assert rec.valid_generic
    assert rec.special_label == StratumLabel(0, 2)
    assert rec.generic_label == StratumLabel(2, 2)
    assert rec.ok and rec.samples_ok
    d = rec.to_json_dict()
    assert d["ok"] is True
    assert len(d["samples"]) == 3
    json.dumps(d)


def test_generization_lift_moves_both_invariants():
    rec = generization_lift(8, 4, (0, 4), (2, 2), seed=1)
    assert rec.ok and rec.samples_ok
    # identity pair: the constant family
    rec = generization_lift(8, 4, (2, 4), (2, 4), seed=1)
    assert rec.ok and rec.samples_ok
    assert rec.Z.is_zero()


def test_generization_lift_is_seeded():
    a = generization_lift(6, 2, (0, 2), (0, 0), seed=9).to_json_dict()
    b = generization_lift(6, 2, (0, 2), (0, 0), seed=9).to_json_dict()
    assert a == b


def test_generization_lift_rejects_bad_targets():
    with pytest.raises(BadTargets):
        generization_lift(6, 2, (0, 0), (0, 2))  # target does not dominate
    with pytest.raises(BadTargets):
        generization_lift(6, 2, (2, 2), (0, 0))
    with pytest.raises(BadTargets):
        generization_lift(6, 2, (0, 2), (1, 2))  # parity
    with pytest.raises(BadTargets):
        generization_lift(6, 2, (0, 4), (0, 0))  # label out of range


def test_witness_profiles():
    for (n, s, lab) in [(6, 2, (0, 2)), (8, 3, (1, 3)),
                        (8, 4, (0, 2)), (8, 4, (2, 4))]:
        w = nonsmooth_witness(n, s, lab)
        assert isinstance(w, WitnessRecord)
        assert w.report.verdict
        assert w.report.spin is None  # dual numbers are not a field
        assert w.obstructed
        assert w.matches_expected
        d = w.to_json_dict()
        assert d["obstruction"] == d["expected"]
        json.dumps(d)


def test_witness_rejects_bad_labels():
    with pytest.raises(BadLabel):
        nonsmooth_witness(6, 2, (2, 2))  # h = l has no displaced direction
    with pytest.raises(BadLabel):
        nonsmooth_witness(6, 2, (1, 2))  # parity
    with pytest.raises(BadLabel):
        nonsmooth_witness(6, 2, (0, 4))  # out of range
