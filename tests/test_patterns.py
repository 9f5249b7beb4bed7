from fractions import Fraction

import pytest

from wrep.errors import ValidationError
from wrep.patterns import (
    GTPattern,
    HighestWeight,
    entry_slots,
    enumerate_patterns,
    generic_weight,
    is_pattern,
    validate_highest_weight,
    weyl_dimension,
)
from wrep.pyramid import Pyramid
from wrep.rep import build_representation


def gl2_weight():
    pyr = Pyramid(rows=(1, 1))
    return HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])


def test_entry_slots():
    pyr = Pyramid(rows=(1, 2, 2))
    assert entry_slots(pyr, 1) == [(1, 1)]
    assert entry_slots(pyr, 2) == [(1, 1), (2, 1), (2, 2)]
    assert entry_slots(pyr, 3) == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


def test_weight_validation():
    pyr = Pyramid(rows=(1, 1))
    ok = validate_highest_weight(HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]]))
    assert ok == []
    bad = validate_highest_weight(HighestWeight(pyr, [[Fraction(0)], [Fraction(1)]]))
    assert any(kind == "dominance" for kind, *_ in bad)
    pyr2 = Pyramid(rows=(2, 2))
    w = HighestWeight(pyr2, [[3, 1], [2, 0]])
    bad = validate_highest_weight(w)
    assert any(kind == "genericity" for kind, *_ in bad)


def test_generic_weight_is_valid():
    for rows in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2)]:
        w = generic_weight(Pyramid(rows=rows))
        assert validate_highest_weight(w) == []


def test_gl2_enumeration():
    pats = enumerate_patterns(gl2_weight())
    assert len(pats) == 3
    assert [p.entry(1, 1, 1) for p in pats] == [
        Fraction(1, 2),
        Fraction(3, 2),
        Fraction(5, 2),
    ]


def test_enumeration_rejects_bad_weight():
    pyr = Pyramid(rows=(1, 1))
    with pytest.raises(ValidationError):
        enumerate_patterns(HighestWeight(pyr, [[0], [1]]))


def test_l_values_and_lam():
    mu = enumerate_patterns(gl2_weight())[0]
    assert mu.l_value(1, 1, 1) == Fraction(1, 2)
    assert mu.l_value(2, 2, 1) == Fraction(-1, 2)
    # lambda_{2,1}(u) = u + 5/2 at u = 1
    assert mu.lam(2, 1, 1) == Fraction(7, 2)


def test_shifted():
    w = gl2_weight()
    rep = build_representation(w.pyramid, w)
    lo, mid, hi = range(3)
    assert rep.basis[mid] == enumerate_patterns(w)[1]
    assert rep.shifted(lo, {(1, 1, 1): +1}) == mid
    assert rep.shifted(lo, {(1, 1, 1): -1}) is None
    assert rep.shifted(hi, {(1, 1, 1): +1}) is None
    # a shifted top row is never a pattern of this weight
    assert rep.shifted(lo, {(2, 1, 1): +1}) is None
    assert rep.shifted(lo, {(1, 1, 1): +1, (2, 2, 1): +1}) is None


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1), (1, 2, 2)])
def test_shifted_matches_interlacing_oracle(rows):
    pyr = Pyramid(rows=rows)
    w = generic_weight(pyr)
    rep = build_representation(pyr, w)
    slots = [(r, i, k) for r in range(1, pyr.n) for (i, k) in entry_slots(pyr, r)]
    for col, mu in enumerate(rep.basis):
        for slot in slots:
            for step in (1, -1):
                entries = dict(mu.entries)
                entries[slot] += step
                tgt = rep.shifted(col, {slot: step})
                assert (tgt is not None) == is_pattern(pyr, entries, w)
                if tgt is not None:
                    assert rep.basis[tgt].entries == entries


def test_is_pattern_matches_enumeration():
    pyr = Pyramid(rows=(1, 2))
    w = generic_weight(pyr)
    pats = enumerate_patterns(w)
    for mu in pats:
        assert is_pattern(pyr, mu.entries, w)


def test_weyl_dimension():
    assert weyl_dimension([2, 1, 0]) == 8
    assert weyl_dimension([1, 0]) == 2
    assert weyl_dimension([0, 0, 0]) == 1


def test_one_column_counts_match_weyl():
    pyr = Pyramid(rows=(1, 1, 1))
    w = HighestWeight(pyr, [[2], [1], [0]])
    assert len(enumerate_patterns(w)) == weyl_dimension([2, 1, 0])
