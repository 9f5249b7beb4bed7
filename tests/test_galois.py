import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from oracles import fraction_act_on_basis, l_value
from random_weights import small_pyramid_weights

from wrep import galois
from wrep.arith import UniPoly
from wrep.center import build_t_matrix, cdet_vs_top_row, column_determinant
from wrep.errors import EvaluationError, InvariantViolation, NotInvariant
from wrep.galois import (
    Factored,
    GaloisModel,
    SkewElement,
    act_on_basis,
    cross_check,
    orbit_sum,
    orbit_sum_identity,
    t_image_a,
    t_image_b,
    t_image_c,
)
from wrep.mpoly import MPoly, MRat
from wrep.patterns import HighestWeight, enumerate_patterns, generic_weight, key_slots
from wrep.pyramid import Pyramid
from wrep.rep import build_representation, generator_series
from wrep.sparse import SparseMatrix


def gl2():
    pyr = Pyramid(rows=(1, 1))
    w = HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])
    return build_representation(enumerate_patterns(w))


def test_variable_order():
    pyr = Pyramid(rows=(1, 2))
    model = GaloisModel(pyr)
    assert model.names[0] == "u"
    assert model.names[1] == "x_1_1_1"
    # a shift is a key-length vector that moves only the rows below the top
    assert len(model.zero_delta) == len(key_slots(pyr))
    assert {key_slots(pyr)[p] for r in range(1, pyr.n) for p in model.rows[r]} == {(1, 1, 1)}


def test_gl2_raising_coefficient():
    rep = gl2()
    model = GaloisModel(rep.pyramid)
    img = t_image_b(model, 1)
    assert len(img.terms) == 1
    ((d, a),) = img.terms.items()
    assert d == (1, 0, 0)
    # X^+ = -(x_{2,1} - x_{1,1})(x_{2,2} - x_{1,1}); at the lowest pattern
    # the l-values are x_11 = 1/2, x_21 = 5/2, x_22 = -1/2, giving 2; the
    # point is scaled by q = 2 and the value is integers over integers
    top, bottom = a.evaluate([0, 1, 5, -1], 2)
    assert type(top) is type(bottom) is int and bottom > 0
    assert Fraction(top, bottom) == 2


def test_invariance_of_images():
    model = GaloisModel(Pyramid(rows=(1, 2)))
    assert t_image_a(model, 2).is_invariant()
    assert t_image_b(model, 1).is_invariant()
    assert t_image_c(model, 1).is_invariant()


def _x(model, r, i, k):
    """The coefficient x_{r,i,k} alone: variable 1 + its key position."""
    return Factored(1, [[(key_slots(model.pyramid).index((r, i, k)) + 1, 1)]])


def test_non_invariant_detected():
    model = GaloisModel(Pyramid(rows=(2, 2)))
    lone = SkewElement(model, {model.zero_delta: _x(model, 1, 1, 1)})
    assert not lone.is_invariant()


def test_non_invariant_image_fails_cross_check(monkeypatch):
    # the lowering image of row 1 keeps only the term of its first slot
    def one_term(model, r):
        img = t_image_c(model, r)
        first = min(img.terms)
        return SkewElement(model, {first: img.terms[first]})
    monkeypatch.setattr(galois, "t_image_c", one_term)
    pyr = Pyramid(rows=(2, 2))
    with pytest.raises(NotInvariant, match="lowering image of row 1"):
        cross_check(build_representation(enumerate_patterns(generic_weight(pyr))))


def test_orbit_sum_identity():
    for rows in [(1, 2), (2, 2), (1, 1, 1)]:
        model = GaloisModel(Pyramid(rows=rows))
        for r in range(1, model.pyramid.n):
            assert orbit_sum_identity(model, r, t_image_b(model, r))


def test_cross_check_builds_each_raising_image_once(monkeypatch):
    # the orbit-sum identity reads the image cross_check has built
    built = []

    def counted(model, r):
        built.append(r)
        return t_image_b(model, r)

    monkeypatch.setattr(galois, "t_image_b", counted)
    pyr = Pyramid(rows=(1, 2, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    assert cross_check(rep) == 3 * pyr.n - 2
    assert built == [1, 2]


def test_orbit_sum_ill_defined():
    model = GaloisModel(Pyramid(rows=(2, 2)))
    # coefficient not invariant under the stabilizer of the zero shift
    with pytest.raises(NotInvariant):
        orbit_sum(model, _x(model, 1, 1, 1), model.zero_delta)


def test_action_matches_matrices_gl2():
    rep = gl2()
    model = GaloisModel(rep.pyramid)
    for img, poly in ((t_image_b(model, 1), rep.B[1]), (t_image_c(model, 1), rep.C[1]),
                      (t_image_a(model, 1), rep.A[1]), (t_image_a(model, 2), rep.A[2])):
        assert act_on_basis(model, rep, img) == poly
    assert rep.A[2].degree == 2


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2), (1, 2, 2), (2, 2, 2)])
def test_cross_check(rows):
    pyr = Pyramid(rows=rows)
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    # one comparison for each of A_1..A_n, B_r and C_r
    assert cross_check(rep) == 3 * pyr.n - 2


def test_mutation_vanishing_at_sample_points_detected():
    # u(u-7)(u+3) E_{0,1} added to B_2 vanishes at u = 0, 7 and -3, so only
    # a comparison of whole polynomials in u sees it
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    bump = UniPoly.from_roots([0, 7, -3])
    unit = SparseMatrix.from_entries(rep.dim, [(0, 1, 1)])
    rep.B[2] = rep.B[2] + UniPoly([c * unit for c in bump.coeffs])
    with pytest.raises(InvariantViolation) as exc:
        cross_check(rep)
    assert str(exc.value).startswith(
        "skew-model action of b_2 disagrees with the matrix in the coefficient "
        "of u^1: entry (0,1) differs by 21; row pattern %r, column pattern %r"
        % (rep.basis[0], rep.basis[1]))


# rows (2,2,3) at the weight of tests/test_golden.py whose denominators 2, 7
# and 11 differ and whose entries are negative
SEVERAL_DENOMINATORS = HighestWeight(
    Pyramid(rows=(2, 2, 3)),
    [[Fraction(3, 2), Fraction(-5, 7)], [Fraction(1, 2), Fraction(-12, 7)],
     [Fraction(-1, 2), Fraction(-19, 7), Fraction(4, 11)]])
ORACLE_WEIGHTS = [generic_weight(Pyramid(rows=rows)) for rows in
                  ((1, 1), (2, 2), (2, 3), (1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 2, 3))]
ORACLE_WEIGHTS.append(SEVERAL_DENOMINATORS)
ORACLE_IDS = (["%s-generic" % ",".join(map(str, w.pyramid.rows)) for w in ORACLE_WEIGHTS[:-1]]
              + ["2,2,3-2/7/11"])


def _images(model):
    n = model.pyramid.n
    return ([t_image_a(model, j) for j in range(1, n + 1)]
            + [t(model, r) for r in range(1, n) for t in (t_image_b, t_image_c)])


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=ORACLE_IDS)
def test_integer_action_equals_the_fraction_oracle(weight):
    # the q-scaled, memoised action against Fraction l-values read from the
    # pattern entries, evaluated afresh at every column
    rep = build_representation(enumerate_patterns(weight))
    model = GaloisModel(weight.pyramid)
    for img in _images(model):
        assert act_on_basis(model, rep, img) == fraction_act_on_basis(model, rep, img)


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=ORACLE_IDS)
def test_scaled_l_values_match_the_pattern_entries(weight):
    # the one l-value source of the build and the skew model against
    # the Fraction l-values read from the pattern entries
    rep = build_representation(enumerate_patterns(weight))
    q = rep.q
    assert type(q) is int and all(type(Q) is int for Q in rep.offsets)
    slots = key_slots(weight.pyramid)
    for mu in rep.basis:
        for Q, z, slot in zip(rep.offsets, mu.key(), slots, strict=True):
            assert Q + q * z == q * l_value(mu, *slot)


def test_cross_check_fraction_work_budget(monkeypatch):
    # Fraction arithmetic of one (2,2,3) cross-check, the representation
    # built beforehand; evaluation in Fractions makes 42,609 such calls
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    calls = [0]

    def counted(op):
        def call(*args):
            calls[0] += 1
            return op(*args)
        return call

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    comparisons = cross_check(rep)
    monkeypatch.undo()
    assert comparisons == 7
    assert calls[0] <= 1000


@pytest.mark.parametrize("r", [1, 2, 3])
def test_mutation_of_a_scaled_offset_detected(r):
    # q * l = Q_p + q * key_p is read from the representation; one Q_p of
    # row r moved by 1 after the build breaks the first image reading it
    pyr = Pyramid(rows=(1, 2, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    model = GaloisModel(pyr)
    rep.offsets[model.rows[r][0]] += 1
    with pytest.raises(InvariantViolation,
                       match="skew-model action of a_%d disagrees with the matrix" % r):
        cross_check(rep)


def test_vanishing_denominator_names_its_pattern():
    # 1 / (x_(1,1,1) - x_(2,1,1)) has a pole at every pattern whose entry
    # (1,1,1) equals the entry above it; the first such column is named,
    # after the memo has been filled by the columns before it
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    model = GaloisModel(pyr)
    pos = key_slots(pyr).index
    pole = Factored(1, [], [model.difference(pos((1, 1, 1)), pos((2, 1, 1)))])
    element = SkewElement(model, {model.zero_delta: pole})
    col = next(c for c, mu in enumerate(rep.basis) if mu.entry(1, 1, 1) == mu.entry(2, 1, 1))
    assert col > 0
    with pytest.raises(EvaluationError) as exc:
        act_on_basis(model, rep, element)
    assert str(exc.value) == ("coefficient at pattern %r: denominator vanishes at the "
                              "evaluation point" % (rep.basis[col],))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
def test_identities_in_u_for_random_pyramids(weight):
    pyr = weight.pyramid
    rep = build_representation(enumerate_patterns(weight))
    assert cross_check(rep) == 3 * pyr.n - 2
    T = build_t_matrix(generator_series(rep, max(pyr.rows) + 3))
    assert cdet_vs_top_row(rep, column_determinant(T, pyr.n))


@pytest.mark.parametrize("rows", [(1,), (2,), (3,)])
def test_identities_in_u_for_one_row_pyramids(rows):
    # no B or C ladders and a 1x1 column determinant
    pyr = Pyramid(rows=rows)
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    assert rep.dim == 1
    assert cross_check(rep) == 1
    T = build_t_matrix(generator_series(rep, max(pyr.rows) + 3))
    assert cdet_vs_top_row(rep, column_determinant(T, pyr.n))


# Oracle for Factored: the same factors multiplied out into MPoly and
# reduced as an MRat through sympy's gcd.
NAMES = ("u", "x1", "x2", "x3")


def _random_form(rng):
    """A linear form u + x_i or c * (x_i - x_j), as (index, coefficient)
    pairs in random order and orientation."""
    if rng.random() < 0.3:
        pairs = [(0, 1), (rng.randrange(1, 4), 1)]
    else:
        i, j = rng.sample(range(1, 4), 2)
        c = rng.choice([1, 1, -1, 2, Fraction(-1, 3)])
        pairs = [(i, c), (j, -c)]
    rng.shuffle(pairs)
    return pairs


def _random_factors(rng):
    const = rng.choice([0, 1, -1, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))])
    num = [_random_form(rng) for _ in range(rng.randint(0, 4))]
    den = [_random_form(rng) for _ in range(rng.randint(0, 3))]
    return const, num, den


def _poly(pairs):
    return sum((MPoly.var(NAMES, i) * c for i, c in pairs), MPoly.zero(NAMES))


def _expand(const, num, den):
    top = MPoly.const(NAMES, const)
    bottom = MPoly.const(NAMES, 1)
    for form in num:
        top = top * _poly(form)
    for form in den:
        bottom = bottom * _poly(form)
    return MRat(top, bottom)


def _same_function(rng, const, num, den):
    """Other factors for the same rational function: each factor rescaled
    (sign flips included) and reordered, and a cancelling pair added."""
    num2, den2 = [], []
    for forms, out in ((num, num2), (den, den2)):
        for form in forms:
            scale = rng.choice([1, -1, 2, Fraction(1, 2)])
            out.append([(i, c * scale) for i, c in form])
            const = const / scale if out is num2 else const * scale
        rng.shuffle(out)
    extra = _random_form(rng)
    num2.append(extra)
    den2.insert(0, [(i, -c) for i, c in extra])
    return -const, num2, den2


def _over_positive(top, bottom):
    """The Fraction of an evaluation's integers, which have bottom > 0."""
    assert type(top) is type(bottom) is int and bottom > 0
    return Fraction(top, bottom)


def test_factored_against_expanded_oracle():
    rng = random.Random(11)
    for _ in range(60):
        raw = _random_factors(rng)
        value, oracle = Factored(*raw), _expand(*raw)
        # evaluation, poles included, on the point scaled to integers by
        # the lcm q of its denominators
        for _ in range(3):
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in NAMES]
            q = lcm(*(v.denominator for v in point))
            scaled = [int(v * q) for v in point]
            try:
                want = oracle.evaluate(point)
            except EvaluationError:
                want = None
                with pytest.raises(EvaluationError):
                    value.evaluate(scaled, q)
            else:
                assert _over_positive(*value.evaluate(scaled, q)) == want
            # the polynomial in u at the x-values of point, which reads no
            # value of u: it exists when no denominator holds u or vanishes
            at_x = [None] + scaled[1:]
            if want is None or any(e[0] for e in oracle.den.terms):
                with pytest.raises(EvaluationError):
                    value.in_u(at_x, q)
            else:
                coeffs, bottom = value.in_u(at_x, q)
                assert all(type(c) is int for c in coeffs)
                assert UniPoly([_over_positive(c, bottom) for c in coeffs])(point[0]) == want
        # relabelling commutes with multiplying out
        perm = list(range(len(NAMES)))
        rng.shuffle(perm)
        moved = value.permute_vars(perm)
        assert _expand(moved.const, moved.num, moved.den) == oracle.permute_vars(perm)
        # equality is equality of rational functions
        assert Factored(*_same_function(rng, *raw)) == value
        for other in (_random_factors(rng), (raw[0] + 1,) + raw[1:],
                      (raw[0], raw[1] + [_random_form(rng)], raw[2])):
            assert (Factored(*other) == value) == (_expand(*other) == oracle)


def test_factored_canonical_form():
    # -(x2 - x1) / (2 x1 - 2 x2) = 1/2, and the sign folds into the constant
    assert Factored(-1, [[(2, 1), (1, -1)]], [[(1, 2), (2, -2)]]) == Factored(Fraction(1, 2))
    flipped = Factored(1, [[(2, 1), (1, -1)]])
    assert (flipped.const, flipped.num) == (-1, (((1, 1), (2, -1)),))
    repeated = Factored(3, [[(0, 1), (1, 1)]] * 2, [[(0, 1), (1, 1)]])
    assert repeated == Factored(3, [[(1, 1), (0, 1)]])
    assert not Factored(0, [[(0, 1)]], [[(1, 1)]]) and Factored(0) == Factored(0, [[(0, 1)]])
