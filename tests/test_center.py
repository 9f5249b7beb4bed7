import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from oracles import gauss_t_matrix
from random_weights import dominant_weights, small_pyramid_weights

from wrep import sparse
from wrep.arith import UniPoly
from wrep.center import (
    build_t_matrix,
    cdet_vs_top_row,
    central_coefficients,
    column_determinant,
    quasideterminant_check,
)
from wrep.cli import main
from wrep.errors import InvariantViolation
from wrep.patterns import HighestWeight, enumerate_patterns, generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import build_representation, generator_series
from wrep.sparse import SparseMatrix


def make(rows, weight=None):
    """Representation, T matrix and column determinant for a shape."""
    pyr = Pyramid(rows=rows)
    w = weight if weight is not None else generic_weight(pyr)
    rep = build_representation(enumerate_patterns(w))
    T = build_t_matrix(generator_series(rep, max(pyr.rows) + 3))
    return rep, T, column_determinant(T, pyr.n)


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1), (2, 2, 3)])
def test_t_matrix_against_gauss_products(rows):
    pyr = Pyramid(rows=rows)
    gens = generator_series(build_representation(enumerate_patterns(generic_weight(pyr))),
                            max(pyr.rows) + 3)
    assert build_t_matrix(gens) == gauss_t_matrix(gens)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_pyramid_weights())
def test_t_matrix_against_gauss_products_for_random_pyramids(weight):
    pyr = weight.pyramid
    gens = generator_series(build_representation(enumerate_patterns(weight)), max(pyr.rows) + 3)
    assert build_t_matrix(gens) == gauss_t_matrix(gens)


def test_t_matrix_tail_fault_detected():
    # d_1(u) = a_1(u) = 1 + c u^{-1} at rows (1,2); a nonzero d_1^{(5)}
    # gives t_{11}(u) a term u^{-5} below the column degree p_1 = 1
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    gens = generator_series(rep, 5)
    build_t_matrix(gens)
    gens["d", 1, 5] = SparseMatrix.from_entries(rep.dim, [(0, 1, 1)])
    message = "t_{11}^{(5)} nonzero beyond the column degree 1"
    with pytest.raises(InvariantViolation, match="^%s$" % re.escape(message)):
        build_t_matrix(gens)


def test_t_matrix_polynomial_degrees():
    rep, T, _ = make((1, 2))
    assert T[(1, 1)].degree == 1
    assert T[(2, 2)].degree == 2
    # diagonal entries are monic
    assert T[(1, 1)].coeffs[-1] == SparseMatrix.identity(rep.dim)


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2), (1, 1, 1)])
def test_central_scalars(rows):
    rep, _, cdet = make(rows)
    scalars = central_coefficients(rep, cdet)
    assert len(scalars) == rep.pyramid.row_block_size(rep.n)
    assert cdet.coeffs[-1] == SparseMatrix.identity(rep.dim)


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1)])
def test_central_scalars_for_random_generic_weights(rows):
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dominant_weights(rows))
    def run(weight):
        rep, T, cdet = make(rows, weight)
        scalars = central_coefficients(rep, cdet)
        assert len(scalars) == rep.pyramid.row_block_size(rep.n)
        if rep.n == 2:
            assert quasideterminant_check(T, cdet)
        # observed (not asserted in the library): cdet T(u) is A_n(u)
        assert cdet_vs_top_row(rep, cdet)

    run()


def test_gl2_quasideterminant():
    pyr = Pyramid(rows=(1, 1))
    w = HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])
    rep, T, cdet = make((1, 1), w)
    assert quasideterminant_check(T, cdet)
    # for the one-column weight, cdet(u) = (u + 5/2)(u - 1/2) acts as A_2
    assert cdet == rep.A[2]


@pytest.mark.parametrize("rows", [(1, 2), (2, 2)])
def test_quasideterminant_two_rows(rows):
    _, T, cdet = make(rows)
    assert quasideterminant_check(T, cdet)


def test_top_row_recorded():
    rep, _, cdet = make((1, 2))
    # observed (not asserted in the library): cdet T(u) is A_n(u) here
    assert cdet_vs_top_row(rep, cdet) is True
    # c u(u-7)(u+3) I agrees with A_n at u = 0, 7 and -3, the points the
    # record once sampled, and differs as a polynomial
    ident = SparseMatrix.identity(rep.dim)
    bump = UniPoly([5 * c * ident for c in UniPoly.from_roots([0, 7, -3]).coeffs])
    mutant = cdet + bump
    assert all(mutant(u0) == rep.A[rep.n](u0) for u0 in (0, 7, -3))
    assert cdet_vs_top_row(rep, mutant) is False


def test_column_determinant_n1():
    _, T, _ = make((1, 1))
    one = column_determinant({(1, 1): T[(1, 1)]}, 1)
    assert one == T[(1, 1)]


def test_off_diagonal_cdet_coefficient_detected():
    rep, _, cdet = make((1, 2))
    lower = cdet.coeffs[0]
    cdet.coeffs[0] = lower + SparseMatrix.from_entries(rep.dim, [(0, 1, 1)])
    with pytest.raises(InvariantViolation, match="not scalar"):
        central_coefficients(rep, cdet)


def test_center_builds_one_plan_per_pattern_pair(monkeypatch, capsys):
    # `center` at (2,3,3) meets 15 general pattern pairs; each builds its
    # plan on its first product and no pair builds a second one
    plan_init, built = sparse._Plan.__init__, Counter()

    def counted_plan(self, left, right):
        built[left.key, right.key] += 1
        plan_init(self, left, right)

    monkeypatch.setattr(sparse._Plan, "__init__", counted_plan)
    assert main(["center", "--rows", "2,3,3"]) == 0
    capsys.readouterr()
    assert sum(built.values()) == 15
    assert set(built.values()) == {1}


def test_center_work_budget(monkeypatch, capsys):
    # `center` at (2,2,3), generic weight: Combination._product calls and
    # plans built
    product, calls = sparse.Combination._product, [0]
    plan_init, plans = sparse._Plan.__init__, [0]

    def counted(self, a, b, sign):
        calls[0] += 1
        return product(self, a, b, sign)

    def counted_plan(self, left, right):
        plans[0] += 1
        plan_init(self, left, right)

    monkeypatch.setattr(sparse.Combination, "_product", counted)
    monkeypatch.setattr(sparse._Plan, "__init__", counted_plan)
    assert main(["center", "--rows", "2,2,3"]) == 0
    capsys.readouterr()
    assert calls[0] <= 844
    assert plans[0] == 13
