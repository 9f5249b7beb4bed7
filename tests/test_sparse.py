from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wrep.arith import UniPoly
from wrep.errors import SingularLead
from wrep.mpoly import MPoly
from wrep.sparse import Combination, SparseMatrix


def entry_list(dim, max_size=12):
    return st.lists(
        st.tuples(
            st.integers(0, dim - 1),
            st.integers(0, dim - 1),
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
        ),
        max_size=max_size,
    )


def test_basic_algebra():
    a = SparseMatrix.from_entries(2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    b = SparseMatrix.from_entries(2, [(0, 0, 1), (1, 0, 4)])
    assert (a + b).get(1, 0) == 4
    assert (a * b).get(0, 0) == 9
    assert (2 * a).get(0, 1) == 4
    assert (a - a) == SparseMatrix(2)
    assert not (a - a)


def test_identity_and_scalar_part():
    i3 = SparseMatrix.identity(3)
    assert (Fraction(5, 2) * i3).scalar_part() == Fraction(5, 2)
    assert SparseMatrix(3).scalar_part() == 0
    assert SparseMatrix.from_entries(3, [(0, 0, 1)]).scalar_part() is None
    assert SparseMatrix.diagonal([1, 2, 3]).is_diagonal()


def test_inverse():
    a = SparseMatrix.from_entries(2, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)])
    assert a * a.inverse() == SparseMatrix.identity(2)
    with pytest.raises(SingularLead):
        SparseMatrix.from_entries(2, [(0, 0, 1), (1, 0, 1)]).inverse()


def test_commutator():
    a = SparseMatrix.from_entries(2, [(0, 1, 1)])
    b = SparseMatrix.from_entries(2, [(1, 0, 1)])
    c = a.commutator(b)
    assert c.get(0, 0) == 1 and c.get(1, 1) == -1


def dense(m):
    return [[m.get(i, j) for j in range(m.dim)] for i in range(m.dim)]


def dense_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def dense_commutator(a, b):
    return [[x - y for x, y in zip(ra, rb)]
            for ra, rb in zip(dense_mul(a, b), dense_mul(b, a))]


def dense_det(a):
    """Laplace expansion along the first row."""
    if not a:
        return Fraction(1)
    return sum((
        (-1) ** j * a[0][j] * dense_det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a)) if a[0][j]
    ), Fraction(0))


def assert_canonical(m):
    # equality compares the row dicts, so zeros and empty rows must be absent
    assert all(m.rows.values())
    assert all(v for row in m.rows.values() for v in row.values())


@settings(max_examples=60)
@given(entry_list(4), entry_list(4),
       st.fractions(min_value=-9, max_value=9, max_denominator=5),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=4, max_size=4))
def test_matches_dense_reference(ea, eb, c, diag):
    a = SparseMatrix.from_entries(4, ea)
    b = SparseMatrix.from_entries(4, eb)
    da, db = dense(a), dense(b)
    results = {
        "a*b": (a * b, dense_mul(da, db)),
        "[a,b]": (a.commutator(b), dense_commutator(da, db)),
        "a+b": (a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]),
        "a-b": (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]),
        "-a": (-a, [[-x for x in ra] for ra in da]),
        "a*c": (a * c, [[x * c for x in ra] for ra in da]),
        "c*a": (c * a, [[c * x for x in ra] for ra in da]),
    }
    for label, (got, want) in results.items():
        assert_canonical(got)
        assert dense(got) == want, label
    if dense_det(da):
        inv = a.inverse()
        assert_canonical(inv)
        ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert dense_mul(da, dense(inv)) == ident
    else:
        with pytest.raises(SingularLead):
            a.inverse()
    # a diagonal inverts entrywise; a zero (so unstored) entry is singular
    d = SparseMatrix.diagonal(diag)
    if all(diag):
        inv = d.inverse()
        assert_canonical(inv)
        assert inv == SparseMatrix.diagonal([1 / x for x in diag])
    else:
        with pytest.raises(SingularLead):
            d.inverse()


def test_commutator_drops_cancelled_entries():
    # [D, B] has entries (d_i - d_j) b_ij: the diagonal of B cancels, and
    # row 1, which holds only a diagonal entry, cancels to an empty row
    d = SparseMatrix.diagonal([Fraction(1, 2), Fraction(1, 3)])
    b = SparseMatrix.from_entries(2, [(0, 0, Fraction(5, 7)), (0, 1, 1),
                                      (1, 1, Fraction(3, 5))])
    assert d * b != b * d
    c = d.commutator(b)
    assert_canonical(c)
    assert c.rows == {0: {1: Fraction(1, 6)}}
    assert d.commutator(d) == SparseMatrix(2) and not d.commutator(d).rows


# entries over denominators up to 5, so running sums take the lcm path
combination_terms = st.lists(
    st.tuples(st.sampled_from(["add", "product", "commutator"]),
              st.sampled_from([1, -1, 3]), entry_list(3, 5), entry_list(3, 5)),
    max_size=4,
)


@settings(max_examples=50)
@given(combination_terms)
def test_combination_matches_dense_reference(terms):
    comb = Combination(3)
    want = [[Fraction(0)] * 3 for _ in range(3)]
    for kind, sign, ea, eb in terms:
        a = SparseMatrix.from_entries(3, ea)
        b = SparseMatrix.from_entries(3, eb)
        if kind == "add":
            comb.add(a, sign)
            term = dense(a)
        elif kind == "product":
            comb.product(a, b, sign)
            term = dense_mul(dense(a), dense(b))
        else:
            comb.commutator(a, b, sign)
            term = dense_commutator(dense(a), dense(b))
        want = [[w + sign * t for w, t in zip(rw, rt)] for rw, rt in zip(want, term)]
    got = comb.finish()
    assert_canonical(got)
    assert dense(got) == want
    assert comb.is_zero() == (not any(x for row in want for x in row))
    # finish leaves the accumulator as it was: taking the sum away again
    # cancels every entry, across whatever denominators it carries
    assert comb.finish() == got
    assert comb.add(got, -1).is_zero()
    assert comb.finish() == SparseMatrix(3) and not comb.finish().rows


def test_combination_cancels_across_denominators():
    # (ab)_00 = 1/2 * 2/3 + 1/5 * 3/7 sums as 2/6, then 88/210 through the
    # lcm; the finished ab holds 44/105, a third denominator
    a = SparseMatrix.from_entries(2, [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 5))])
    b = SparseMatrix.from_entries(2, [(0, 0, Fraction(2, 3)), (1, 0, Fraction(3, 7))])
    ab = a * b
    assert ab.get(0, 0) == Fraction(44, 105)
    assert not Combination(2).product(a, b).is_zero()
    comb = Combination(2).product(a, b).add(ab, -1)
    assert comb.is_zero()
    assert comb.finish().rows == {}
    # [a, b] + ba - ab = 0, each term over its own denominators
    comb = Combination(2).commutator(a, b).product(b, a).add(ab, -1)
    assert comb.is_zero()
    assert comb.finish().rows == {}
    assert not Combination(2).commutator(a, b).add(ab, -1).is_zero()
    with pytest.raises(ValueError, match="dimension mismatch"):
        Combination(3).add(a)


@pytest.mark.parametrize("value", [
    SparseMatrix.identity(2),
    UniPoly([Fraction(1), Fraction(2)]),
    MPoly.const(("x",), 3),
], ids=lambda v: type(v).__name__)
def test_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)
