from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wrep.errors import EvaluationError
from wrep.mpoly import MPoly, MRat

N = ("x", "y")
M = ("s", "t", "u")

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def polys(names, max_terms=4):
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    return st.dictionaries(exps, fractions, max_size=max_terms).map(
        lambda terms: MPoly(names, terms))


frac_points = st.lists(fractions, min_size=len(N), max_size=len(N))
poly_points = st.lists(polys(M, 3), min_size=len(N), max_size=len(N))


def x():
    return MPoly.var(N, 0)


def y():
    return MPoly.var(N, 1)


def test_poly_arithmetic():
    p = (x() + y()) * (x() - y())
    assert p == x() ** 2 - y() ** 2
    assert p.evaluate([Fraction(3), Fraction(2)]) == 5
    assert p.total_degree() == 2
    assert p.degree_in(0) == 2


def test_substitute_and_permute():
    p = x() ** 2 * y() + 3
    assert p.evaluate([MPoly.const(N, 2), y()]) == 4 * y() + 3
    assert p.permute_vars([1, 0]) == y() ** 2 * x() + 3


def test_derivative():
    p = x() ** 3 * y() ** 2
    assert p.derivative(0) == 3 * x() ** 2 * y() ** 2
    assert p.derivative(1) == 2 * x() ** 3 * y()


def test_gcd_and_exact_div():
    a = (x() + y()) ** 2 * (x() - y())
    b = (x() + y()) * (x() + 2 * y())
    g = a.gcd(b)
    # gcd is x + y up to a constant
    assert a.exact_div(g) * g == a
    assert b.exact_div(g) * g == b
    with pytest.raises(ValueError):
        a.exact_div(x() + 2 * y())


def test_mrat_reduction_and_equality():
    r = MRat((x() ** 2 - y() ** 2), (x() + y()))
    assert r.is_polynomial()
    assert r == MRat.from_poly(x() - y())
    s = MRat(MPoly.const(N, 1), x() - y())
    assert (s * (x() - y())) == 1
    assert (s + s) == MRat(MPoly.const(N, 2), x() - y())


def test_mrat_evaluate_and_errors():
    s = MRat(MPoly.const(N, 1), x() - y())
    assert s.evaluate([Fraction(3), Fraction(1)]) == Fraction(1, 2)
    with pytest.raises(EvaluationError):
        s.evaluate([Fraction(1), Fraction(1)])


def test_mrat_derivative():
    s = MRat(x(), y())
    ds = s.derivative(1)
    assert ds == MRat(-x(), y() ** 2)


@settings(max_examples=40, deadline=None)
@given(polys(N), polys(N), st.one_of(frac_points, poly_points))
def test_evaluate_is_a_ring_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@settings(max_examples=40, deadline=None)
@given(polys(N), poly_points, st.lists(fractions, min_size=len(M), max_size=len(M)))
def test_evaluate_composes(p, inner, outer):
    composed = [r.evaluate(outer) for r in inner]
    assert p.evaluate(inner).evaluate(outer) == p.evaluate(composed)


@given(fractions, poly_points)
def test_constant_at_poly_points_is_a_poly(c, point):
    for p in (MPoly.const(N, c), MPoly.zero(N)):
        value = p.evaluate(point)
        assert isinstance(value, MPoly)
        assert value == MPoly.const(M, p.constant_value())


def test_evaluate_rejects_negative_exponents():
    # a Laurent term has no value read off a list of nonnegative powers
    p = MPoly(("x",), {(-1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        p.evaluate([Fraction(2)])
    with pytest.raises(ValueError, match="negative exponent"):
        p.evaluate([MPoly.var(("y",), 0)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(polys(N), polys(N)), min_size=1, max_size=4), frac_points)
def test_sum_products_is_the_sum_of_products(pairs, point):
    # each product checked through evaluation, so not by the fused sum itself
    got = MPoly.sum_products(pairs)
    assert got.evaluate(point) == sum(a.evaluate(point) * b.evaluate(point) for a, b in pairs)
    assert all(got.terms.values())


def test_sum_products_rejects_mixed_variable_sets():
    with pytest.raises(ValueError, match="mixed variable sets"):
        MPoly.sum_products([(x(), y()), (MPoly.var(M, 0), MPoly.var(M, 1))])
