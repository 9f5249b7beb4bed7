"""Hypothesis strategy of random generic dominant weights, shared by the
relation and central-element tests."""

from hypothesis import assume, strategies as st

from wrep.patterns import HighestWeight, validate_highest_weight
from wrep.pyramid import Pyramid


@st.composite
def dominant_weights(draw, rows):
    """Dominant weights with row gaps 0, 1 or 2 in each column, kept when
    validate_highest_weight finds them generic."""
    pyr = Pyramid(rows=rows)
    n = pyr.n
    parts = [[None] * pyr.p(i) for i in range(1, n + 1)]
    for k in range(1, pyr.p(n) + 1):
        value = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
        for i in range(n, 0, -1):
            if pyr.p(i) < k:
                break
            parts[i - 1][k - 1] = value
            value += draw(st.integers(0, 2))
    weight = HighestWeight(pyr, parts)
    assume(not validate_highest_weight(weight))
    return weight
