from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from wrep.arith import (
    InvSeries,
    UniPoly,
    lagrange_basis,
    leibniz_det,
    perm_sign,
    poly_shift,
    poly_to_inv_series,
    series_arg_shift,
    series_inverse,
)
from wrep.errors import ArityError, DegenerateNodes
from wrep.sparse import SparseMatrix

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def test_unipoly_basic():
    p = UniPoly([Fraction(1), Fraction(2), Fraction(0)])
    assert p.degree == 1
    assert p.coeff(0) == 1 and p.coeff(1) == 2 and p.coeff(5) is None
    q = UniPoly.from_roots([1, 2])
    assert q.coeffs == [Fraction(2), Fraction(-3), Fraction(1)]
    assert q(1) == 0 and q(2) == 0 and q(0) == 2


@given(st.lists(fractions, max_size=5), st.lists(fractions, max_size=5), fractions)
def test_unipoly_mul_evaluates(a, b, x):
    p, q = UniPoly(a), UniPoly(b)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


@given(st.lists(fractions, max_size=5), fractions, fractions)
def test_poly_shift_evaluates(a, c, x):
    p = UniPoly(a)
    assert poly_shift(p, c)(x) == p(x + c)


def test_lagrange_reproduces_values():
    nodes = [Fraction(0), Fraction(1), Fraction(5, 2)]
    values = [Fraction(3), Fraction(-1), Fraction(7, 3)]
    basis = lagrange_basis(nodes)
    assert all(b.degree == len(nodes) - 1 for b in basis)
    for j, b in enumerate(basis):
        assert [b(x) for x in nodes] == [int(j == m) for m in range(len(nodes))]
    p = UniPoly([])
    for b, v in zip(basis, values):
        p = p + b * v
    for x, v in zip(nodes, values):
        assert p(x) == v


def test_lagrange_errors():
    with pytest.raises(DegenerateNodes):
        lagrange_basis([Fraction(0), Fraction(1), Fraction(0)])
    assert lagrange_basis([]) == []


def test_perm_sign():
    # parity of the transposition count, by sorting with adjacent swaps
    for sigma in permutations(range(5)):
        seq, swaps = list(sigma), 0
        for end in range(len(seq) - 1, 0, -1):
            for k in range(end):
                if seq[k] > seq[k + 1]:
                    seq[k], seq[k + 1] = seq[k + 1], seq[k]
                    swaps += 1
        assert perm_sign(sigma) == (-1) ** swaps


def test_unipoly_evaluates_matrices():
    zero = SparseMatrix(2)
    m = SparseMatrix.from_entries(2, [(0, 1, 1), (1, 1, 2)])
    p = UniPoly([m, SparseMatrix.identity(2)])
    assert p(3, zero) == m + 3 * SparseMatrix.identity(2)
    assert UniPoly([])(3, zero) == zero
    assert UniPoly([])(3) == 0


def test_series_inverse_two_sided():
    s = InvSeries([Fraction(1), Fraction(3), Fraction(-2), Fraction(5)])
    inv = series_inverse(s)
    prod = s * inv
    assert prod.coeffs[0] == 1 and all(not c for c in prod.coeffs[1:])
    prod = inv * s
    assert prod.coeffs[0] == 1 and all(not c for c in prod.coeffs[1:])


@given(st.lists(fractions, min_size=1, max_size=5))
def test_series_inverse_property(coeffs):
    if not coeffs[0]:
        coeffs[0] = Fraction(1)
    s = InvSeries(coeffs)
    prod = s * series_inverse(s)
    assert prod.coeffs[0] == 1
    assert all(not c for c in prod.coeffs[1:])


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
matrix_entries = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), small),
                          max_size=5)


@st.composite
def matrix_series(draw, length):
    """Matrix-coefficient series of the given length with an invertible
    lead: a nonzero diagonal, plus strictly upper entries (so the lead goes
    through Gaussian elimination) when the draw asks for them."""
    diag = draw(st.lists(small.filter(bool), min_size=3, max_size=3))
    lead = SparseMatrix.diagonal(diag)
    if draw(st.booleans()):
        upper = draw(st.lists(st.tuples(st.integers(0, 1), small), max_size=3))
        lead = lead + SparseMatrix.from_entries(3, [(i, 2, v) for i, v in upper])
    rest = [SparseMatrix.from_entries(3, draw(matrix_entries))
            for _ in range(length - 1)]
    return InvSeries([lead] + rest)


def plain_series_product(a, b):
    # coefficient by coefficient, one + per product
    return [sum((a[t] * b[m - t] for t in range(1, m + 1)), a[0] * b[m])
            for m in range(len(a))]


@settings(max_examples=40)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(matrix_series(k), matrix_series(k))))
def test_matrix_series_fused_products(pair):
    s, t = pair
    assert (s * t).coeffs == plain_series_product(s.coeffs, t.coeffs)
    inv = series_inverse(s)
    ident, zero = SparseMatrix.identity(3), SparseMatrix(3)
    unit = [ident] + [zero] * s.order
    assert plain_series_product(s.coeffs, inv.coeffs) == unit
    assert plain_series_product(inv.coeffs, s.coeffs) == unit
    assert inv * s == InvSeries(unit) == s * inv


def test_series_arg_shift_against_geometric():
    # 1/u as a series in (v + c): 1/(v+c) = sum (-c)^k v^{-k-1}
    R = 6
    s = InvSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * (R - 1), R)
    c = Fraction(3)
    t = series_arg_shift(s, c)
    for k in range(1, R + 1):
        assert t.coeffs[k] == (-c) ** (k - 1)
    assert t.coeffs[0] == 0


def test_poly_to_inv_series_monic():
    # (u-1)(u-2) / u^2 = 1 - 3/u + 2/u^2
    p = UniPoly.from_roots([1, 2])
    s = poly_to_inv_series(p, [(0, 2)], 4)
    assert s.coeffs[:3] == [Fraction(1), Fraction(-3), Fraction(2)]


def test_poly_to_inv_series_strict_degree():
    # constant 1 over (u-1): 1/(u-1) = u^{-1} + u^{-2} + ...
    p = UniPoly([Fraction(1)])
    s = poly_to_inv_series(p, [(1, 1)], 4)
    assert s.coeffs == [Fraction(0)] + [Fraction(1)] * 4


def test_poly_to_inv_series_degree_guard():
    p = UniPoly.from_roots([0, 1, 2])
    with pytest.raises(ArityError):
        poly_to_inv_series(p, [(0, 2)], 3)


def test_leibniz_det_keeps_column_order():
    # non-commuting entries: each product must run down the columns
    e = {(0, 0): SparseMatrix.from_entries(2, [(0, 1, 1)]),
         (1, 1): SparseMatrix.from_entries(2, [(1, 0, 1)]),
         (1, 0): SparseMatrix.from_entries(2, [(0, 0, 2), (1, 1, 3)]),
         (0, 1): SparseMatrix.from_entries(2, [(0, 1, 5)])}
    det = leibniz_det(2, lambda i, c: e[(i, c)])
    assert det == e[(0, 0)] * e[(1, 1)] - e[(1, 0)] * e[(0, 1)]
    # neither the row-order nor the reversed column-order expansion
    assert det != e[(0, 0)] * e[(1, 1)] - e[(0, 1)] * e[(1, 0)]
    assert det != e[(1, 1)] * e[(0, 0)] - e[(0, 1)] * e[(1, 0)]
    assert leibniz_det(1, lambda i, c: e[(1, 1)]) == e[(1, 1)]
