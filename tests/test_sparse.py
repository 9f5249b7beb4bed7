import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from wrep import sparse
from wrep.arith import UniPoly
from wrep.errors import SingularLead
from wrep.mpoly import MPoly
from wrep.sparse import Combination, Pattern, SparseMatrix, compress_diagonals, diagonal_gauge


def entry_list(dim, max_size=12):
    return st.lists(
        st.tuples(
            st.integers(0, dim - 1),
            st.integers(0, dim - 1),
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
        ),
        max_size=max_size,
    )


def diagonal_values(dim):
    return st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                    min_size=dim, max_size=dim)


def operands(dim, max_size=12):
    """A matrix in either storage form: a dense diagonal (zero when every
    value is 0) or one built from entries (dense too when they all lie on
    the diagonal)."""
    return st.one_of(diagonal_values(dim).map(SparseMatrix.diagonal),
                     entry_list(dim, max_size).map(lambda e: SparseMatrix.from_entries(dim, e)))


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
    d = SparseMatrix.diagonal([1, Fraction(-2, 3)])
    assert d * d.inverse() == SparseMatrix.identity(2) == d.inverse() * d
    with pytest.raises(SingularLead):
        SparseMatrix.diagonal([1, 0]).inverse()
    with pytest.raises(SingularLead):
        SparseMatrix(2).inverse()
    # only a diagonal matrix inverts; a general one is a program fault,
    # not a singular lead, invertible or not
    for entries in ([(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)], [(0, 0, 1), (1, 0, 1)]):
        with pytest.raises(NotImplementedError):
            SparseMatrix.from_entries(2, entries).inverse()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
                min_size=1, max_size=6),
       st.integers(1, 12))
def test_inverse_equals_the_fraction_formula(values, den):
    # the integer inverse over lcm(diag) equals den / d_i entry by entry,
    # for negative entries and a matrix over den > 1
    m = SparseMatrix.diagonal(values, den)
    inv = m.inverse()
    assert_canonical(inv)
    assert inv == SparseMatrix.diagonal([Fraction(m.den, v) for v in m.diag])
    assert inv == SparseMatrix.diagonal([den / v for v in values])


def test_inverse_of_a_matrix_over_a_denominator():
    m = SparseMatrix.diagonal([3, -4, 6, Fraction(-10, 7)], den=5)
    assert m.den == 35
    inv = m.inverse()
    assert (inv.den, inv.diag) == (12, [20, -15, 10, -42])
    assert m * inv == SparseMatrix.identity(4)
    with pytest.raises(SingularLead):
        SparseMatrix.diagonal([3, 0, -6], den=5).inverse()


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
    # equality compares (dim, den, diag, pattern by identity, vals), so a
    # nonzero diagonal matrix must be stored dense and nothing else may be,
    # a general pattern must be the interned one of its increasing
    # positions with no zero stored, and den must share no factor with
    # the numerators
    if m.diag is not None:
        assert len(m.diag) == m.dim and any(m.diag) and m.is_diagonal()
        assert m.pattern is None and m.vals is None
        numerators = m.diag
    else:
        flat = list(m.pattern.flat)
        assert m.pattern is Pattern.of(m.dim, flat)
        assert all(x < y for x, y in zip(flat, flat[1:]))
        assert type(m.vals) is tuple and len(m.vals) == len(flat) and all(m.vals)
        assert not flat or any(i != j for i, j in (divmod(f, m.dim) for f in flat))
        numerators = m.vals
    assert m.den > 0 and gcd(m.den, *numerators) == 1
    assert m or m.den == 1


@settings(max_examples=60)
@given(operands(4), operands(4),
       st.fractions(min_value=-9, max_value=9, max_denominator=5), diagonal_values(4))
def test_matches_dense_reference(a, b, c, diag):
    assert_canonical(a)
    assert_canonical(b)
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
    if not a.is_diagonal():
        with pytest.raises(NotImplementedError):
            a.inverse()
    elif dense_det(da):
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
    assert list(c.entries()) == [(0, 1, Fraction(1, 6))] and c.nnz() == 1
    assert c.get(0, 0) == c.get(1, 1) == 0
    assert d.commutator(d) == SparseMatrix(2) and not d.commutator(d).rows


# entries over denominators up to 5, so running sums take the lcm path;
# operands of both storage forms, so every product path and both
# accumulators meet in one sum
combination_terms = st.lists(
    st.tuples(st.sampled_from(["add", "product", "commutator"]),
              st.sampled_from([1, -1, 3]), operands(3, 5), operands(3, 5)),
    max_size=6,
)


@settings(max_examples=80)
@given(combination_terms)
def test_combination_matches_dense_reference(terms):
    comb = Combination(3)
    want = [[Fraction(0)] * 3 for _ in range(3)]
    for kind, sign, a, b in terms:
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


def test_dense_accumulator_cancels_against_a_general_product():
    # swap * b is a general product whose value is diagonal: it lands in
    # the list of its pattern and must cancel the dense diagonal added first
    d = SparseMatrix.diagonal([Fraction(1, 2), Fraction(1, 3)])
    swap = SparseMatrix.from_entries(2, [(0, 1, 1), (1, 0, 1)])
    b = SparseMatrix.from_entries(2, [(0, 1, Fraction(-1, 3)), (1, 0, Fraction(-1, 2))])
    assert swap.diag is None and b.diag is None and d.diag == [3, 2]
    product = swap * b
    assert product == -d and product.diag == [-3, -2]
    comb = Combination(2).add(d).product(swap, b)
    assert comb.diag is not None and list(comb.parts) == [Pattern.diagonal(2)]
    assert comb.is_zero()
    zero = comb.finish()
    assert zero == SparseMatrix(2) and zero.den == 1 and not zero
    # one diagonal entry left over: nonzero, and finished dense
    comb = Combination(2).add(d, 2).product(swap, b)
    assert not comb.is_zero()
    assert comb.finish() == d and comb.finish().diag == [3, 2]
    # an off-diagonal entry left over: the finished sum is general
    off = SparseMatrix.from_entries(2, [(0, 1, Fraction(1, 5))])
    comb = Combination(2).add(d).product(swap, b).add(off)
    assert not comb.is_zero()
    got = comb.finish()
    assert_canonical(got)
    assert got == off and got.diag is None
    # the same with the dense accumulator holding a product of diagonals
    comb = Combination(2).product(d, d).add(d * d, -1).add(off).add(off, -1)
    assert comb.is_zero() and not comb.finish()


def test_dense_form_is_read_without_rows(monkeypatch):
    # the methods a traced run calls on every product, the product paths
    # and equality read the storage; rows is for tests
    d = SparseMatrix.diagonal([Fraction(1, 2), 0, 3])
    g = SparseMatrix.from_entries(3, [(0, 1, 1), (2, 0, Fraction(1, 4))])

    def no_rows(self):
        raise AssertionError("rows built")

    monkeypatch.setattr(SparseMatrix, "rows", property(no_rows))
    assert d.nnz() == 2 and list(d.entries()) == [(0, 0, Fraction(1, 2)), (2, 2, 3)]
    assert d.get(0, 0) == Fraction(1, 2) and d.get(0, 2) == 0 and d.get(1, 1) == 0
    assert d and d.is_diagonal() and d.scalar_part() is None
    assert (-d).diag == [-1, 0, -6] and (d * d).diag == [1, 0, 36]
    assert (d * g).nnz() == 2 and (g * d).nnz() == 1 and d.commutator(g).nnz() == 2
    with pytest.raises(SingularLead):
        d.inverse()
    assert (3 * SparseMatrix.identity(3)).scalar_part() == 3
    assert d == SparseMatrix.diagonal([Fraction(1, 2), 0, 3]) and d != g
    assert g == SparseMatrix.from_positions(3, 4, [6, 1], [1, 4]) and g != -g


def test_diagonal_results_are_stored_dense():
    # from_entries, finish and diagonal all store a nonzero diagonal densely
    assert SparseMatrix.from_entries(2, [(1, 1, 2)]).diag == [0, 2]
    assert SparseMatrix.from_entries(2, [(1, 1, 2), (0, 1, 0)]).diag == [0, 2]
    assert SparseMatrix.from_entries(2, [(1, 1, 2), (0, 1, 1)]).diag is None
    assert SparseMatrix.diagonal([0, 0]).diag is None and not SparseMatrix.diagonal([0, 0])
    a = SparseMatrix.from_entries(2, [(0, 1, 1)])
    b = SparseMatrix.from_entries(2, [(1, 0, 1)])
    assert (a * b).diag == [1, 0] and (b * a).diag == [0, 1]
    assert a.commutator(b).diag == [1, -1]


scale_factors = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=50)
@given(st.lists(st.tuples(scale_factors, operands(3, 5)), min_size=1, max_size=4))
def test_scaled_add_matches_dense_reference(terms):
    comb = Combination(3)
    want = [[Fraction(0)] * 3 for _ in range(3)]
    pairs = []
    for factor, a in terms:
        comb.add(a, factor)
        pairs.append((a, factor))
        want = [[w + factor * x for w, x in zip(rw, ra)] for rw, ra in zip(want, dense(a))]
    got = comb.finish()
    assert_canonical(got)
    assert dense(got) == want
    assert comb.is_zero() == (not any(x for row in want for x in row))
    assert SparseMatrix.sum_scaled(pairs) == got


def test_from_entries_drops_cancelled_sums():
    # row 0 sums to zero in every column, so it is not stored at all
    m = SparseMatrix.from_entries(2, [(0, 0, Fraction(1, 3)), (1, 1, 2),
                                      (0, 0, Fraction(-1, 3)), (0, 1, 0),
                                      (1, 0, 1), (1, 0, Fraction(1, 2))])
    assert_canonical(m)
    assert sorted(m.entries()) == [(1, 0, Fraction(3, 2)), (1, 1, 2)] and m.nnz() == 2
    assert m.get(0, 0) == m.get(0, 1) == 0


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


# Denominators 1..9 mix coprime and shared factors, so a later term's
# denominator often fails to divide the running one.
mixed_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def mixed_entry_list(dim, max_size=6):
    return st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                              mixed_fractions), max_size=max_size)


@settings(max_examples=30)
@given(st.lists(st.tuples(st.booleans(), mixed_fractions, mixed_entry_list(3),
                          mixed_entry_list(3)), min_size=1, max_size=5))
def test_running_denominator_rescales(terms):
    # after every term the finished sum equals the dense reference, and the
    # running denominator is a multiple of each term's denominator so far
    comb = Combination(3)
    want = [[Fraction(0)] * 3 for _ in range(3)]
    for is_product, factor, ea, eb in terms:
        a = SparseMatrix.from_entries(3, ea)
        b = SparseMatrix.from_entries(3, eb)
        before = comb.den
        if is_product:
            comb.product(a, b)
            term, den = dense_mul(dense(a), dense(b)), a.den * b.den
        else:
            comb.add(a, factor)
            term, den = [[factor * x for x in row] for row in dense(a)], factor.denominator * a.den
        want = [[w + t for w, t in zip(rw, rt)] for rw, rt in zip(want, term)]
        assert comb.den % before == 0
        if is_product or (factor and a):
            assert comb.den % den == 0
        got = comb.finish()
        assert_canonical(got)
        assert dense(got) == want


def test_rescale_path_by_hand():
    a = SparseMatrix.from_entries(2, [(0, 0, Fraction(1, 4)), (0, 1, Fraction(1, 2))])
    b = SparseMatrix.from_entries(2, [(0, 1, Fraction(1, 6)), (1, 1, Fraction(5, 6))])
    assert (a.den, a.rows) == (4, {0: {0: 1, 1: 2}})
    comb = Combination(2).add(a)
    assert comb.den == 4
    # 6 * 3 does not divide 4: the running denominator becomes 36 and the
    # accumulated numerators are scaled by 9
    comb.add(b, Fraction(2, 3))
    assert comb.den == 36 and comb.parts == {a.pattern: [9, 18], b.pattern: [4, 20]}
    got = comb.finish()
    assert (got.den, got.rows) == (36, {0: {0: 9, 1: 22}, 1: {1: 20}})
    assert dense(got) == [[Fraction(1, 4), Fraction(11, 18)], [0, Fraction(5, 9)]]
    # a term over a divisor of 36 adds without rescaling
    comb.add(a, -1)
    assert comb.den == 36 and comb.finish() == Fraction(2, 3) * b


@settings(max_examples=40)
@given(mixed_entry_list(3, 8), mixed_fractions)
def test_sum_cancelling_to_zero_is_the_zero_matrix(entries, factor):
    m = SparseMatrix.from_entries(3, entries)
    scalar = SparseMatrix.diagonal([factor] * 3)
    comb = Combination(3).add(m, factor).product(m, scalar, -1)
    assert comb.is_zero()
    zero = comb.finish()
    assert zero == SparseMatrix(3) and zero.den == 1 and not zero.rows
    assert (m - m).den == 1 and (m * 0).den == 1 and (m + -m).den == 1


@settings(max_examples=30)
@given(mixed_entry_list(4, 10), mixed_fractions.filter(bool))
def test_three_constructions_agree(entries, c):
    # from_entries, a product and sum_scaled all reach the same canonical
    # (den, rows), whatever denominators they passed through
    m = SparseMatrix.from_entries(4, entries)
    scaled = SparseMatrix.from_entries(4, [(i, j, v / c) for i, j, v in entries])
    product = SparseMatrix.diagonal([c] * 4) * scaled
    half = SparseMatrix.from_entries(4, entries[::2])
    rest = SparseMatrix.from_entries(4, entries[1::2])
    summed = SparseMatrix.sum_scaled([(half, 1), (scaled, c), (half, -1), (rest, 0)])
    for other in (product, summed, scaled * c, c * scaled):
        assert (other.den, other.rows) == (m.den, m.rows)
    assert_canonical(m)


@settings(max_examples=60)
@given(st.data())
def test_from_positions_matches_dense_reference(data):
    # positions in any order, zeros stored, none at all or all on the
    # diagonal: the canonical matrix of the numerators over den
    where = st.tuples(st.integers(0, 3), st.integers(0, 3))
    if data.draw(st.booleans()):
        where = st.integers(0, 3).map(lambda i: (i, i))
    entries = data.draw(st.dictionaries(where, st.integers(-6, 6), max_size=12))
    den = data.draw(st.integers(1, 12))
    items = data.draw(st.permutations(list(entries.items())))
    flat, vals = [i * 4 + j for (i, j), _ in items], [v for _, v in items]
    got = SparseMatrix.from_positions(4, den, flat, vals)
    assert_canonical(got)
    assert dense(got) == [[Fraction(entries.get((i, j), 0), den) for j in range(4)]
                          for i in range(4)]
    assert (flat, vals) == ([i * 4 + j for (i, j), _ in items], [v for _, v in items])


# General matrices on a drawn pattern: distinct positions, at least one
# off the diagonal, each with a nonzero value.
positions = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                     max_size=9, unique=True).filter(lambda ps: any(i != j for i, j in ps))
nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


def on_pattern(data, where):
    m = SparseMatrix.from_entries(4, [(i, j, data.draw(nonzero)) for i, j in where])
    assert m.diag is None and len(m.pattern) == len(where)
    return m


@settings(max_examples=60)
@given(st.data())
def test_one_plan_serves_two_matrices_on_one_pattern(data):
    pa, pb = data.draw(positions), data.draw(positions)
    a1, a2, b = on_pattern(data, pa), on_pattern(data, pa), on_pattern(data, pb)
    assert a1.pattern is a2.pattern
    # the pair's first product builds the plan, and the later ones read
    # that same object: each matches the dense reference
    plans = []
    for a in (a1, a2, a1):
        got = a * b
        assert_canonical(got)
        assert dense(got) == dense_mul(dense(a), dense(b))
        plans.append(a.pattern.plans[b.pattern.key])
    plan = plans[0]
    assert isinstance(plan, sparse._Plan) and plans[1] is plan and plans[2] is plan
    # the numeric phase alone, against the dense reference: numerators on
    # the output pattern, every position some term reaches, zeros kept
    out = plan.out()
    assert list(zip(out.ri, out.ci)) == sorted({(i, j) for i, k in pa for k2, j in pb if k == k2})
    want = dense_mul(dense(a2), dense(b))
    values = list(plan.multiply(a2.vals, b.vals)) if plan.layers else []
    assert values == [want[i][j] * a2.den * b.den for i, j in zip(out.ri, out.ci)]


@settings(max_examples=60)
@given(st.data())
def test_finish_shrinks_a_cancelling_sum(data):
    pa = data.draw(positions)
    a = on_pattern(data, pa)
    cancelled = data.draw(st.lists(st.sampled_from(pa), min_size=1, unique=True))
    extra = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), nonzero),
                               max_size=4))
    extra = [(i, j, v) for i, j, v in extra if (i, j) not in pa]
    c = SparseMatrix.from_entries(4, [(i, j, -a.get(i, j)) for i, j in cancelled] + extra)
    want = [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(dense(a), dense(c))]
    union = {(i, j) for i, j, _ in a.entries()} | {(i, j) for i, j, _ in c.entries()}
    comb = Combination(4).add(a).add(c)
    got = comb.finish()
    assert_canonical(got)
    assert dense(got) == want
    assert got.nnz() <= len(union) - len(cancelled)
    assert comb.is_zero() == (got.nnz() == 0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_patterns_and_a_dense_diagonal_in_one_combination(data):
    diag = SparseMatrix.diagonal(data.draw(diagonal_values(4)))
    terms = data.draw(st.lists(st.tuples(st.sampled_from([1, -1, 2]), positions, positions),
                               min_size=2, max_size=4))
    terms = [(sign, on_pattern(data, pa), on_pattern(data, pb)) for sign, pa, pb in terms]
    want = dense(diag)
    for sign, a, b in terms:
        want = [[w + sign * x for w, x in zip(rw, rx)]
                for rw, rx in zip(want, dense_mul(dense(a), dense(b)))]
    # built three times over: plans built, then read twice
    for _ in range(3):
        comb = Combination(4).add(diag)
        for sign, a, b in terms:
            comb.product(a, b, sign)
        got = comb.finish()
        assert_canonical(got)
        assert dense(got) == want
        assert comb.is_zero() == (not any(x for row in want for x in row))
    assume(len(comb.parts) >= 2 and comb.diag is not None)


@pytest.mark.parametrize("value", [
    SparseMatrix.identity(2),
    UniPoly([Fraction(1), Fraction(2)]),
    MPoly.const(("x",), 3),
], ids=lambda v: type(v).__name__)
def test_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_is_zero_interns_no_pattern(monkeypatch):
    # is_zero tests the sums of parts on distinct patterns (and the dense
    # diagonal) without sorting their positions into a pattern
    a = SparseMatrix.from_entries(3, [(0, 1, 2), (1, 2, 1)])
    b = SparseMatrix.from_entries(3, [(0, 1, -2), (2, 0, 5)])
    c = SparseMatrix.diagonal([1, 0, 4])
    interned = []
    of = Pattern.of
    monkeypatch.setattr(Pattern, "of", lambda dim, flat: interned.append(dim) or of(dim, flat))
    comb = Combination(3).add(a).add(b).add(c)
    assert not comb.is_zero()
    assert comb.add(a, -1).add(b, -1).add(c, -1).is_zero()
    assert interned == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.lists(
    st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
             .map(SparseMatrix.diagonal), min_size=1, max_size=3),
    min_size=1, max_size=3)))
def test_compressed_diagonals_expand_to_their_originals(series):
    # one position per distinct column of numerators; expanding each
    # compressed matrix gives back the original, in canonical form, and
    # entrywise arithmetic commutes with the compression
    dim = series[0][0].dim
    compressed, expand = compress_diagonals(series)
    diags = [m.diag for coeffs in series for m in coeffs if m]
    assert compressed[0][0].dim == (len(set(zip(*diags))) if diags else dim)
    assert [list(map(expand, coeffs)) for coeffs in compressed] == series
    a, b = compressed[0][0], compressed[-1][-1]
    assert expand(a * b - a) == series[0][0] * series[-1][-1] - series[0][0]


def test_compression_leaves_a_general_matrix_alone():
    general = SparseMatrix.from_entries(2, [(0, 1, 1)])
    series = [[SparseMatrix.identity(2), general]]
    compressed, expand = compress_diagonals(series)
    assert compressed is series and expand(general) is general


@settings(max_examples=60, deadline=None)
@given(operands(4))
@example(SparseMatrix(4))
@example(SparseMatrix.diagonal([1, 0, 2, 3]))
def test_transpose_swaps_the_entries(m):
    t = m.transpose()
    assert_canonical(t)
    assert t == SparseMatrix.from_entries(4, [(j, i, v) for i, j, v in m.entries()])
    assert t.transpose() == m
    if m.is_diagonal():
        assert t is m


nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


def conjugated(x, s):
    """S^{-1} X S for the diagonal S of the values s."""
    S = SparseMatrix.diagonal(s)
    return S.inverse() * x * S


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda dim: st.tuples(
    st.lists(nonzero_fractions, min_size=dim, max_size=dim),
    st.lists(operands(dim, 10), max_size=4))))
def test_diagonal_gauge_finds_a_planted_diagonal(planted):
    # Y = S^{-1} X S for a signed S: the gauge returns nonzero integers,
    # one per position, that take every X to its Y; they are S only up to
    # one factor on each connected set of positions
    s, xs = planted
    found = diagonal_gauge([(x, conjugated(x, s)) for x in xs])
    assert found is not None and all(type(v) is int and v for v in found)
    assert len(found) == (len(s) if xs else 0)
    assert all(conjugated(x, found) == conjugated(x, s) for x in xs)


@settings(max_examples=40, deadline=None)
@given(st.lists(nonzero_fractions, min_size=3, max_size=3),
       st.lists(nonzero_fractions, min_size=4, max_size=4), st.integers(0, 3))
def test_diagonal_gauge_rejects_a_bumped_entry_on_a_cycle(s, values, bumped):
    # (0,1), (1,2) and (0,2) close a cycle 0-1-2, and (2,1) a second one
    # with (1,2), so one bumped entry of Y leaves no S; a tree alone takes
    # any ratios, but not against a pair that fixes them otherwise
    positions = [(0, 1), (1, 2), (0, 2), (2, 1)]
    x = SparseMatrix.from_entries(3, [(i, j, v) for (i, j), v in zip(positions, values)])
    y = conjugated(x, s)
    i, j = positions[bumped]
    bump = SparseMatrix.from_entries(3, [(i, j, y.get(i, j))])
    assert diagonal_gauge([(x, y)]) is not None
    assert diagonal_gauge([(x, y + bump)]) is None
    tree = SparseMatrix.from_entries(3, [(0, 1, 1), (1, 2, 1)])
    flipped = conjugated(tree, s[:2] + [-s[2]])
    assert diagonal_gauge([(tree, flipped)]) is not None
    assert diagonal_gauge([(x, y), (tree, flipped)]) is None


def test_diagonal_gauge_rejects_what_no_diagonal_can_conjugate():
    x = SparseMatrix.from_entries(3, [(0, 1, 2), (1, 2, 3)])
    diag = SparseMatrix.diagonal([1, 2, 3])
    cases = [
        # a support mismatch: an entry dropped, one added
        (x, SparseMatrix.from_entries(3, [(0, 1, 2)])),
        (x, x + SparseMatrix.from_entries(3, [(2, 0, 1)])),
        (x, SparseMatrix(3)),
        # a diagonal X is its own conjugate, the zero matrix included
        (diag, 2 * diag),
        (SparseMatrix(3), diag),
        # a dense diagonal against a general matrix, either way round
        (diag, x),
        (x, diag),
        # a general X with a diagonal entry, which no S scales
        (x + SparseMatrix.from_entries(3, [(1, 1, 1)]),
         x + SparseMatrix.from_entries(3, [(1, 1, 2)])),
    ]
    for pair in cases:
        assert diagonal_gauge([pair]) is None
        assert diagonal_gauge([(x, x), pair]) is None
    assert diagonal_gauge([(diag, diag), (x, x)]) == [1, 1, 1]
    assert diagonal_gauge([]) == []


def test_only_sparse_reads_the_storage_form():
    # diag, vals and pattern are the storage form of a SparseMatrix; a
    # module other than sparse reads the matrix through its methods, so
    # the form can change in one place
    field = re.compile(r"\.(diag|vals|pattern)\b")
    found = ["%s:%d: %s" % (path.name, number, line.strip())
             for path in sorted(Path(sparse.__file__).parent.glob("*.py")) if path.name != "sparse.py"
             for number, line in enumerate(path.read_text().splitlines(), 1) if field.search(line)]
    assert found == []
