from fractions import Fraction
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import leibniz_det, plain_series_product

from wrep.arith import (
    UniPoly,
    column_det,
    lagrange_basis,
    leading_minors,
    perm_sign,
    poly_shift,
    poly_to_inv_series,
    series_inverse,
    series_product,
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
    assert all(num.degree == len(nodes) - 1 for num, _ in basis)
    for j, (num, den) in enumerate(basis):
        assert [num(x) / den for x in nodes] == [int(j == m) for m in range(len(nodes))]
    p = UniPoly([])
    for (num, den), v in zip(basis, values):
        p = p + num * (v / den)
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
    m = SparseMatrix.from_entries(2, [(0, 1, 1), (1, 1, 2)])
    p = UniPoly([m, SparseMatrix.identity(2)])
    assert p(3) == m + 3 * SparseMatrix.identity(2)
    assert UniPoly([])(3) == 0


def test_series_inverse_two_sided():
    s = [Fraction(1), Fraction(3), Fraction(-2), Fraction(5)]
    inv = series_inverse(s)
    prod = series_product(s, inv)
    assert prod[0] == 1 and all(not c for c in prod[1:])
    prod = series_product(inv, s)
    assert prod[0] == 1 and all(not c for c in prod[1:])


@given(st.lists(fractions, min_size=1, max_size=5))
def test_series_inverse_property(coeffs):
    if not coeffs[0]:
        coeffs[0] = Fraction(1)
    prod = series_product(coeffs, series_inverse(coeffs))
    assert len(prod) == len(coeffs)
    assert prod[0] == 1
    assert all(not c for c in prod[1:])


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
matrix_entries = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), small),
                          max_size=5)


@st.composite
def matrix_series(draw, length):
    """Matrix-coefficient series of the given length with an invertible
    lead: a nonzero diagonal, the only kind of matrix that inverts."""
    lead = SparseMatrix.diagonal(draw(st.lists(small.filter(bool), min_size=3, max_size=3)))
    rest = [SparseMatrix.from_entries(3, draw(matrix_entries))
            for _ in range(length - 1)]
    return [lead] + rest


@settings(max_examples=40)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(matrix_series(k), matrix_series(k))))
def test_matrix_series_fused_products(pair):
    s, t = pair
    assert series_product(s, t) == plain_series_product(s, t)
    inv = series_inverse(s)
    ident, zero = SparseMatrix.identity(3), SparseMatrix(3)
    unit = [ident] + [zero] * (len(s) - 1)
    assert plain_series_product(s, inv) == unit
    assert plain_series_product(inv, s) == unit
    assert series_product(inv, s) == unit == series_product(s, inv)
    # a lead off the diagonal is a program fault: no command meets one
    with pytest.raises(NotImplementedError):
        series_inverse([s[0] + SparseMatrix.from_entries(3, [(0, 2, 1)])] + s[1:])


def test_poly_to_inv_series_monic():
    # (u-1)(u-2) / u^2 = 1 - 3/u + 2/u^2: the identity lead, then the
    # coefficients read downwards
    p = UniPoly.from_roots([1, 2])
    s = poly_to_inv_series(p, 2, 4)
    assert s == [1, -3, 2, 0, 0]


def test_poly_to_inv_series_strict_degree():
    # (2u + 5) / u^3 = 2/u^2 + 5/u^3: a power above the degree leads with zeros
    p = UniPoly([Fraction(5), Fraction(2)])
    s = poly_to_inv_series(p, 3, 4)
    assert s == [Fraction(0), Fraction(0), Fraction(2), Fraction(5), Fraction(0)]


def test_poly_to_inv_series_degree_guard():
    p = UniPoly.from_roots([0, 1, 2])
    with pytest.raises(ArityError):
        poly_to_inv_series(p, 2, 3)


def test_column_det_keeps_column_order():
    # non-commuting entries: each product must run down the columns
    e = {(0, 0): SparseMatrix.from_entries(2, [(0, 1, 1)]),
         (1, 1): SparseMatrix.from_entries(2, [(1, 0, 1)]),
         (1, 0): SparseMatrix.from_entries(2, [(0, 0, 2), (1, 1, 3)]),
         (0, 1): SparseMatrix.from_entries(2, [(0, 1, 5)])}
    det = column_det(2, lambda i, c: e[(i, c)])
    assert det == e[(0, 0)] * e[(1, 1)] - e[(1, 0)] * e[(0, 1)]
    # neither the row-order nor the reversed column-order expansion
    assert det != e[(0, 0)] * e[(1, 1)] - e[(0, 1)] * e[(1, 0)]
    assert det != e[(1, 1)] * e[(0, 0)] - e[(0, 1)] * e[(1, 0)]
    assert column_det(1, lambda i, c: e[(1, 1)]) == e[(1, 1)]


def test_column_det_of_scalars():
    # rows of a permutation matrix, and a triangular matrix
    for sigma in permutations(range(4)):
        assert column_det(4, lambda i, c: Fraction(int(sigma[c] == i))) == perm_sign(sigma)
    upper = [[2, 7, 1], [0, 3, 5], [0, 0, Fraction(1, 4)]]
    assert column_det(3, lambda i, c: Fraction(upper[i][c])) == Fraction(3, 2)


dim3 = st.builds(lambda e: SparseMatrix.from_entries(3, e), matrix_entries)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(dim3, min_size=n * n, max_size=n * n))))
def test_column_det_against_leibniz_on_matrices(drawn):
    n, cells = drawn
    entry = lambda i, c: cells[n * i + c]  # noqa: E731
    assert column_det(n, entry) == leibniz_det(n, entry)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(dim3, min_size=1, max_size=3),
                                             min_size=n * n, max_size=n * n))))
def test_column_det_against_leibniz_on_matrix_polynomials(drawn):
    n, cells = drawn
    entry = lambda i, c: UniPoly(cells[n * i + c])  # noqa: E731
    assert column_det(n, entry).coeffs == leibniz_det(n, entry).coeffs


class Counted:
    """A scalar that counts the products taken of it."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.v * other.v)

    def __add__(self, other):
        return Counted(self.v + other.v)

    def __neg__(self):
        return Counted(-self.v)


@pytest.mark.parametrize("n, products", [(1, 0), (2, 2), (3, 9), (4, 28)])
def test_column_det_work(n, products):
    # n (2^(n-1) - 1) entry products, against n! (n-1) for the Leibniz sum
    cells = [[Fraction(3 * i + c * c + 1, c + 2) for c in range(n)] for i in range(n)]
    Counted.products = 0
    det = column_det(n, lambda i, c: Counted(cells[i][c]))
    assert Counted.products == products
    assert det.v == leibniz_det(n, lambda i, c: cells[i][c])


def linear_product(roots):
    """Ascending coefficients of prod (u - r), one linear factor at a time,
    by schoolbook convolution."""
    out = [Fraction(1)]
    for r in roots:
        factor = [-Fraction(r), Fraction(1)]
        prod = [Fraction(0)] * (len(out) + 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


@settings(max_examples=50, deadline=None)
@given(st.lists(fractions, max_size=6), fractions)
def test_from_roots_against_linear_factors(roots, x):
    poly = UniPoly.from_roots(roots)
    assert poly.coeffs == linear_product(roots)
    # Horner evaluation agrees with the product of the linear factors
    assert poly(x) == prod((x - r for r in roots), start=Fraction(1))


@settings(max_examples=50)
@given(st.lists(fractions, max_size=6, unique=True))
def test_lagrange_basis_against_definition(nodes):
    basis = lagrange_basis(nodes)
    assert len(basis) == len(nodes)
    for j, xj in enumerate(nodes):
        others = nodes[:j] + nodes[j + 1:]
        den = Fraction(1)
        for xm in others:
            den *= xj - xm
        num, got = basis[j]
        assert got == den
        assert [c / got for c in num.coeffs] == [c / den for c in linear_product(others)]
        assert [num(x) / got for x in nodes] == [int(j == m) for m in range(len(nodes))]


def _assert_pairs_interpolate(nodes):
    # num_j(x_m) == [j == m] * den_j, exactly, for every node
    for j, (num, den) in enumerate(lagrange_basis(nodes)):
        assert [num(x) for x in nodes] == [int(j == m) * den for m in range(len(nodes))]


@settings(max_examples=50)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True),
       st.integers(-50, 50))
def test_int_input_gives_int_output(nodes, x):
    # no coercion to Fraction: from_roots, Horner and the Lagrange pairs
    # stay in the integers, and lagrange_basis never divides
    poly = UniPoly.from_roots(nodes)
    assert all(type(c) is int for c in poly.coeffs)
    assert type(poly(x)) is int
    for num, den in lagrange_basis(nodes):
        assert type(den) is int
        assert all(type(c) is int for c in num.coeffs)
        assert type(num(x)) is int
    _assert_pairs_interpolate(nodes)


@settings(max_examples=50)
@given(st.lists(fractions, min_size=2, max_size=6, unique=True), fractions)
def test_fraction_input_gives_fraction_output(nodes, x):
    # every number made from a Fraction input is a Fraction; the monic
    # lead of from_roots and of each Lagrange numerator is the int 1
    poly = UniPoly.from_roots(nodes)
    assert poly.coeffs[-1] == 1
    assert all(type(c) is Fraction for c in poly.coeffs[:-1])
    assert type(poly(x)) is Fraction
    for num, den in lagrange_basis(nodes):
        assert type(den) is Fraction
        assert num.coeffs[-1] == 1
        assert all(type(c) is Fraction for c in num.coeffs[:-1])
        assert type(num(x)) is Fraction
    _assert_pairs_interpolate(nodes)


matrices = st.builds(lambda e: SparseMatrix.from_entries(3, e), matrix_entries)
matrix_coeffs = st.lists(matrices, min_size=1, max_size=4)


def plain_sum(terms, dim=3):
    # one + per term, from the zero matrix
    acc = SparseMatrix(dim)
    for t in terms:
        acc = acc + t
    return acc


@settings(max_examples=40)
@given(matrix_coeffs, matrix_coeffs)
def test_matrix_unipoly_product_against_plain(a, b):
    want = [plain_sum(a[i] * b[m - i] for i in range(len(a)) if 0 <= m - i < len(b))
            for m in range(len(a) + len(b) - 1)]
    assert (UniPoly(a) * UniPoly(b)).coeffs == UniPoly(want).coeffs


@settings(max_examples=40)
@given(matrix_coeffs, small)
def test_matrix_poly_shift_against_plain(a, c):
    # coefficient of u^j in P(u + c) is sum_k binom(k, j) c^{k-j} a_k
    want = [plain_sum(a[k] * (comb(k, j) * c ** (k - j)) for k in range(j, len(a)))
            for j in range(len(a))]
    assert poly_shift(UniPoly(a), c) == UniPoly(want)


def padded_poly_product(a, b, zero):
    """The first min(len a, len b) coefficients of UniPoly(a) * UniPoly(b):
    series in u^{-1} multiply as polynomials in u^{-1} do."""
    k = min(len(a), len(b))
    return ((UniPoly(a) * UniPoly(b)).coeffs + [zero] * k)[:k]


@given(st.lists(fractions, min_size=1, max_size=5), st.lists(fractions, min_size=1, max_size=5))
def test_series_product_is_truncated_poly_product(a, b):
    assert series_product(a, b) == padded_poly_product(a, b, Fraction(0))


@settings(max_examples=40)
@given(matrix_coeffs, matrix_coeffs)
def test_matrix_series_product_is_truncated_poly_product(a, b):
    assert series_product(a, b) == padded_poly_product(a, b, SparseMatrix(3))


@st.composite
def inv_series_polys(draw, monic):
    """(P, k) with P a nonzero 3x3 matrix polynomial: monic of degree k,
    or of degree below k."""
    if monic:
        k = draw(st.integers(0, 3))
        coeffs = draw(st.lists(matrices, min_size=k, max_size=k))
        coeffs.append(SparseMatrix.identity(3))
    else:
        k = draw(st.integers(1, 3))
        coeffs = draw(st.lists(matrices, min_size=1, max_size=k).filter(any))
    return UniPoly(coeffs), k


@pytest.mark.parametrize("monic", [True, False], ids=["monic", "strict"])
@settings(max_examples=40)
@given(data=st.data())
def test_matrix_poly_to_inv_series_times_denominator(monic, data):
    # P(u) u^{-j} times Q(u) u^{-k} is P(u) Q(u) u^{-j-k}; the series of a
    # zero polynomial holds the scalar zero, taken here as the zero matrix
    p, j = data.draw(inv_series_polys(monic))
    q, k = data.draw(inv_series_polys(monic))
    R = data.draw(st.integers(1, 5))
    got = series_product(poly_to_inv_series(p, j, R), poly_to_inv_series(q, k, R))
    assert got == [c or SparseMatrix(3) for c in poly_to_inv_series(p * q, j + k, R)]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(dim3, min_size=n * n, max_size=n * n))))
def test_leading_minor_chain_equals_each_column_det(drawn):
    # on noncommuting entries: element c of the chain of one n x n
    # recursion is the column determinant of the top-left (c+1) x (c+1) block
    n, cells = drawn
    entry = lambda i, c: cells[n * i + c]  # noqa: E731
    chain = leading_minors(n, entry)
    assert len(chain) == n
    assert chain == [column_det(m, entry) for m in range(1, n + 1)]


def test_poly_shift_keeps_int_coefficients_for_an_integral_shift():
    p = UniPoly.from_roots([3, -1, 4])
    for c in (2, -1, Fraction(6, 3)):
        shifted = poly_shift(p, c)
        assert all(type(x) is int for x in shifted.coeffs)
        assert shifted(5) == p(5 + c)
    half = poly_shift(p, Fraction(1, 2))
    assert all(type(x) is Fraction for x in half.coeffs[:-1])
    assert half(5) == p(Fraction(11, 2))
