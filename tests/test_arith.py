from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from wrep.arith import (
    InvSeries,
    UniPoly,
    lagrange_basis,
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
