from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wrep.errors import EvaluationError
from wrep.mpoly import MPoly, MRat
from wrep.noether import falling

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
    assert r.den.is_constant()
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


def coefficient_types(p):
    return {type(c) for c in p.terms.values()}


def test_int_coefficients_stay_ints():
    # ints in, ints out: nothing is coerced to Fraction without a division
    p = 3 * x() ** 2 * y() - 2 * x() + 5
    for q in (MPoly.const(N, 4), x(), p, p * 7, 7 * p, p.derivative(0), p.derivative(1),
              MPoly.sum_products([(p, x()), (y(), p)]), p ** 2, p - p * 2,
              p.evaluate([x() + 1, MPoly.const(N, 2)])):
        assert coefficient_types(q) == {int}
    assert type(p.evaluate([2, -3])) is int
    assert type(MPoly.zero(N).evaluate([2, 3])) is int
    assert type(p.constant_value()) is int
    assert type(falling(7, 3)) is int and falling(7, 3) == 210


def test_fraction_coefficients_stay_fractions():
    half = Fraction(1, 2)
    p = MPoly(N, {(1, 0): half, (0, 2): Fraction(3)})
    for q in (MPoly.const(N, half), p, p * 3, p * half, p.derivative(1),
              MPoly.sum_products([(p, x())])):
        assert coefficient_types(q) == {Fraction}
    assert type(p.evaluate([1, 1])) is Fraction
    # a coefficient Fraction(1) is still multiplied in: only the int 1 is skipped
    one = MPoly(N, {(1, 1): Fraction(1)})
    assert type(one.evaluate([2, 3])) is Fraction
    assert coefficient_types(one.evaluate([x() + 1, MPoly.const(N, 2)])) == {Fraction}
    assert type(falling(half, 2)) is Fraction


mixed = st.one_of(st.integers(-9, 9), fractions)


def mixed_polys(names, max_terms=3):
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    return st.dictionaries(exps, mixed, max_size=max_terms).map(
        lambda terms: MPoly(names, terms))


def assert_no_float(value):
    if isinstance(value, MRat):
        assert_no_float(value.num)
        assert_no_float(value.den)
    elif isinstance(value, MPoly):
        for c in value.terms.values():
            assert_no_float(c)
    else:
        assert type(value) in (int, Fraction), value


@settings(max_examples=40, deadline=None)
@given(mixed_polys(N), mixed_polys(N), mixed, st.lists(mixed, min_size=len(N), max_size=len(N)))
# coprime int polynomials: MRat scales by an int lead, and evaluates int by int
@example(MPoly(N, {(1, 0): 1}), MPoly(N, {(0, 1): 2}), 3, [1, 2])
@example(MPoly(N, {(1, 0): 1}), MPoly(N, {(0, 1): 1}), 3, [1, 2])
def test_no_operation_yields_a_float(p, q, c, point):
    values = [p + q, p - q, p * q, p * c, c * p, p + c, p ** 2, p.derivative(0),
              p.evaluate(point), MPoly.sum_products([(p, q), (q, q)]), p.permute_vars([1, 0])]
    if q:
        r = MRat(p, q)
        values += [r, r + r, r * r, r * c, r.derivative(1), MRat.from_poly(p) / q]
        if c:
            values.append(r / c)
        if q.evaluate(point):
            values.append(r.evaluate(point))
        if p:
            values += [p.gcd(q), (p * q).exact_div(q), r / MRat.from_poly(p)]
    for value in values:
        assert_no_float(value)
