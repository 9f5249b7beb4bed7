"""Hypothesis strategies of random generic dominant weights, shared by the
relation, central-element and skew-model tests, and one fixed weight over
several denominators."""

from fractions import Fraction

from hypothesis import assume, strategies as st

from wrep.patterns import HighestWeight, enumerate_patterns, validate_highest_weight
from wrep.pyramid import Pyramid


@st.composite
def dominant_weights(draw, rows):
    """Dominant weights with row gaps 1 or 2 in each column, kept when
    validate_highest_weight finds them generic.  No gap is 0, so every
    pyramid of two or more rows has a basis of two or more vectors."""
    pyr = Pyramid(rows=rows)
    n = pyr.n
    parts = [[None] * pyr.p(i) for i in range(1, n + 1)]
    for k in range(1, pyr.p(n) + 1):
        value = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
        for i in range(n, 0, -1):
            if pyr.p(i) < k:
                break
            parts[i - 1][k - 1] = value
            value += draw(st.integers(1, 2))
    weight = HighestWeight(pyr, parts)
    assume(not validate_highest_weight(weight))
    return weight


@st.composite
def small_pyramid_weights(draw):
    """Generic dominant weights of pyramids with n <= 3 rows, each at most 3
    long, whose pattern basis has at most 64 vectors."""
    n = draw(st.integers(1, 3))
    rows = tuple(sorted(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))))
    weight = draw(dominant_weights(rows))
    assume(len(enumerate_patterns(weight)) <= 64)
    return weight


# rows (2,2,3) at a weight whose denominators 2, 7 and 11 differ, the weight
# of the pinned build record in test_golden.py
MULTI_DENOMINATOR = HighestWeight(
    Pyramid(rows=(2, 2, 3)),
    [[Fraction(3, 2), Fraction(-5, 7)], [Fraction(1, 2), Fraction(-12, 7)],
     [Fraction(-1, 2), Fraction(-19, 7), Fraction(4, 11)]])
