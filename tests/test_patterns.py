from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import is_pattern, l_value
from random_weights import dominant_weights, small_pyramid_weights

from wrep.errors import ValidationError
from wrep.patterns import (
    GTPattern,
    HighestWeight,
    entry_slots,
    enumerate_patterns,
    generic_weight,
    key_slots,
    validate_highest_weight,
    weyl_dimension,
)
from wrep.pyramid import Pyramid
from wrep.rep import build_representation


# every pyramid of at most 8 boxes and at most 5 rows (59 of them); the
# generic basis of a column of height q has 2^(q(q-1)/2) patterns, so six
# rows would mean 32768
SMALL_PYRAMIDS = [rows for n in range(1, 6)
                  for rows in combinations_with_replacement(range(1, 9), n) if sum(rows) <= 8]


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
    for rows in SMALL_PYRAMIDS:
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
    assert l_value(mu, 1, 1, 1) == Fraction(1, 2)
    assert l_value(mu, 2, 2, 1) == Fraction(-1, 2)


def test_shifted():
    w = gl2_weight()
    rep = build_representation(enumerate_patterns(w))
    lo, mid, hi = range(3)
    pos = key_slots(w.pyramid).index
    assert rep.basis[mid] == enumerate_patterns(w)[1]
    assert rep.shifted(lo, {pos((1, 1, 1)): +1}) == mid
    assert rep.shifted(lo, {pos((1, 1, 1)): -1}) is None
    assert rep.shifted(hi, {pos((1, 1, 1)): +1}) is None
    # a shifted top row is never a pattern of this weight
    assert rep.shifted(lo, {pos((2, 1, 1)): +1}) is None
    assert rep.shifted(lo, {pos((1, 1, 1)): +1, pos((2, 2, 1)): +1}) is None


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1), (1, 2, 2)])
def test_shifted_matches_interlacing_oracle(rows):
    pyr = Pyramid(rows=rows)
    w = generic_weight(pyr)
    rep = build_representation(enumerate_patterns(w))
    slots = [(r, i, k) for r in range(1, pyr.n) for (i, k) in entry_slots(pyr, r)]
    pos = key_slots(pyr).index
    for col, mu in enumerate(rep.basis):
        for slot in slots:
            for step in (1, -1):
                entries = dict(mu.entries)
                entries[slot] += step
                tgt = rep.shifted(col, {pos(slot): step})
                assert (tgt is not None) == is_pattern(pyr, entries, w)
                if tgt is not None:
                    assert rep.basis[tgt].entries == entries


@pytest.mark.parametrize("rows", [(2, 3, 3), (1, 2, 2, 2)])
def test_basis_order_is_the_entry_order(rows):
    # keys are integer offsets from the top-row entry (n, n, k) of each
    # column k, which sort as the Fraction entries themselves
    pyr = Pyramid(rows=rows)
    n = pyr.n
    pats = enumerate_patterns(generic_weight(pyr))
    slots = key_slots(pyr)
    assert pats == sorted(pats, key=lambda mu: tuple(mu.entries[s] for s in slots))
    for mu in pats:
        assert mu.key() == tuple(mu.entries[s] - mu.entries[(n, n, s[2])] for s in slots)
        assert all(type(z) is int for z in mu.key())
        assert GTPattern(pyr, mu.entries).key() == mu.key()
    assert len({mu.key() for mu in pats}) == len(pats)


def test_shifted_rejects_top_row_and_non_interlacing_steps():
    pyr = Pyramid(rows=(2, 3, 3))
    n = pyr.n
    w = generic_weight(pyr)
    rep = build_representation(enumerate_patterns(w))
    top = [(n, i, k) for (i, k) in entry_slots(pyr, n)]
    lower = [(r, i, k) for r in range(1, n) for (i, k) in entry_slots(pyr, r)]
    pos = key_slots(pyr).index
    rejected = 0
    for col, mu in enumerate(rep.basis):
        for step in (1, -1):
            # the offsets' own base entries (n, n, k) included
            assert all(rep.shifted(col, {pos(slot): step}) is None for slot in top)
            for slot in lower:
                entries = dict(mu.entries)
                entries[slot] += step
                tgt = rep.shifted(col, {pos(slot): step})
                assert (tgt is not None) == is_pattern(pyr, entries, w)
                rejected += tgt is None
                # moving the column's base along with the entry keeps their
                # difference, but the top row has moved
                assert rep.shifted(col, {pos(slot): step, pos((n, n, slot[2])): step}) is None
    assert rejected > 0


def test_pattern_key_needs_integral_columns():
    pyr = Pyramid(rows=(2, 2))
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    entries = {(1, 1, 1): third, (1, 1, 2): quarter, (2, 1, 1): third + 1,
               (2, 1, 2): quarter + 1, (2, 2, 1): third, (2, 2, 2): quarter}
    assert GTPattern(pyr, entries).key() == (0, 0, 1, 1, 0, 0)
    entries[(1, 1, 2)] = third
    with pytest.raises(ValidationError, match="non-integer"):
        GTPattern(pyr, entries)


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


def column_dimensions(weight):
    """The gl_{q_k} Weyl dimension of each column k's top row: the parts
    (i, k) of the rows i that reach column k."""
    pyr = weight.pyramid
    return [weyl_dimension([weight.part(i, k) for i in range(1, pyr.n + 1) if pyr.p(i) >= k])
            for k in range(1, pyr.p(pyr.n) + 1)]


def test_dimension_is_a_product_over_columns():
    # interlacing couples only entries of one column, so a pattern is one
    # classical Gelfand-Tsetlin pattern per column
    for rows in SMALL_PYRAMIDS:
        w = generic_weight(Pyramid(rows=rows))
        assert len(enumerate_patterns(w)) == prod(column_dimensions(w)), rows


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.one_of(small_pyramid_weights(),
                 st.sampled_from([(1, 2), (2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 3)])
                 .flatmap(dominant_weights)))
def test_drawn_dimensions_are_products_over_columns(weight):
    assert len(enumerate_patterns(weight)) == prod(column_dimensions(weight))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.one_of(small_pyramid_weights(),
                 st.sampled_from([(1, 2), (2, 2), (1, 1, 1)]).flatmap(dominant_weights)))
def test_drawn_weights_have_more_than_one_basis_vector(weight):
    # a one-row pyramid's basis is its top row alone, whatever the weight
    if weight.pyramid.n > 1:
        assert len(enumerate_patterns(weight)) > 1


@settings(max_examples=15, deadline=None)
@given(dominant_weights((2, 2)))
def test_drawn_2_2_weights_have_dimension_at_least_4(weight):
    # each column's row gap g gives g + 1 choices in row 1
    assert len(enumerate_patterns(weight)) >= 4
