from fractions import Fraction

import pytest

from wrep.errors import DegenerateNodes, InvariantViolation, OrderError
from wrep.galois import cross_check
from wrep import rep as rep_mod
from wrep.patterns import GTPattern, HighestWeight, generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import (
    build_representation,
    generator_series,
    verify_defining_relations,
)
from wrep.sparse import SparseMatrix


def gl2_rep():
    pyr = Pyramid(rows=(1, 1))
    w = HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])
    return build_representation(pyr, w)


def test_gl2_matrices():
    rep = gl2_rep()
    assert rep.dim == 3
    # A_1(u) = diag(u + 1/2, u + 3/2, u + 5/2)
    a10 = rep.A[1].coeffs[0]
    assert [a10.get(i, i) for i in range(3)] == [
        Fraction(1, 2), Fraction(3, 2), Fraction(5, 2),
    ]
    assert rep.A[1].coeffs[1] == SparseMatrix.identity(3)
    # A_2(u) = (u + 5/2)(u - 1/2) * identity
    a2 = rep.A[2]
    assert a2.degree == 2
    assert a2.coeffs[0].scalar_part() == Fraction(-5, 4)
    assert a2.coeffs[1].scalar_part() == 2
    # B_1 constant with subdiagonal entries 2, 2
    b1 = rep.B[1]
    assert b1.degree == 0
    assert sorted(b1.coeffs[0].entries()) == [
        (1, 0, Fraction(2)), (2, 1, Fraction(2)),
    ]
    # C_1 constant with superdiagonal entries 1, 1
    c1 = rep.C[1]
    assert c1.degree == 0
    assert sorted(c1.coeffs[0].entries()) == [
        (0, 1, Fraction(1)), (1, 2, Fraction(1)),
    ]


def test_evaluate():
    rep = gl2_rep()
    m = rep.A[1](Fraction(1, 2), SparseMatrix(rep.dim))
    assert m == SparseMatrix.diagonal([1, 2, 3])


def test_a_coefficient_accessor():
    rep = gl2_rep()
    # a_1^{(1)} is the constant coefficient of the monic degree-1 A_1
    assert rep.a_coefficient(1, 1) == rep.A[1].coeffs[0]
    assert rep.a_coefficient(1, 0) == SparseMatrix.identity(3)


def test_series_accessors():
    rep = gl2_rep()
    gens = generator_series(rep, 4)
    assert gens.d(1, 0) == SparseMatrix.identity(3)
    assert gens.e(1, 0) == SparseMatrix(3)
    with pytest.raises(OrderError):
        gens.d(1, 5)


def test_series_e_start_index():
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(pyr, generic_weight(pyr))
    gens = generator_series(rep, 5)
    # e_1 starts at p_2 - p_1 + 1 = 2
    assert gens.e_start(1) == 2
    assert gens.e(1, 1) == SparseMatrix(rep.dim)
    assert gens.e(1, 2) != SparseMatrix(rep.dim)


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2)])
def test_relations_small_shapes(rows):
    pyr = Pyramid(rows=rows)
    rep = build_representation(pyr, generic_weight(pyr))
    report = verify_defining_relations(rep, 4)
    assert report.ok, [f for _, _, f in report.families if f]


def test_relation_report_structure():
    rep = gl2_rep()
    report = verify_defining_relations(rep, 3)
    names = [n for n, _, _ in report.families]
    assert "[d,d]=0" in names and "d_1 vanishing" in names
    assert report.total_instances() > 0


def _assert_ladder_mutation_detected(family, diff):
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(pyr, generic_weight(pyr))
    poly = getattr(rep, family)[1]
    coeff = poly.coeffs[0]
    (i, j, _), = coeff.entries()
    poly.coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
    failed = {name: fails for name, _, fails in
              verify_defining_relations(rep, 3).families if fails}
    assert list(failed) == ["[e,f]"]
    assert failed["[e,f]"][0] == "i=1 j=1 r=2 s=1: entry (1,1) differs by " + diff
    with pytest.raises(InvariantViolation, match="disagrees with the matrix"):
        cross_check(rep)


def test_b_coefficient_mutation_detected():
    _assert_ladder_mutation_detected("B", "1")


def test_c_coefficient_mutation_detected():
    _assert_ladder_mutation_detected("C", "-13/12")


def test_degenerate_nodes_name_row_and_pattern(monkeypatch):
    # a non-generic pattern (equal entries in row 1) that enumeration
    # would reject, injected directly
    pyr = Pyramid(rows=(2, 2))
    third = Fraction(1, 3)
    mu = GTPattern(pyr, {(1, 1, 1): third, (1, 1, 2): third,
                         (2, 1, 1): third + 1, (2, 1, 2): third + 1,
                         (2, 2, 1): third, (2, 2, 2): third})
    monkeypatch.setattr(rep_mod, "enumerate_patterns", lambda weight: [mu])
    with pytest.raises(DegenerateNodes, match=r"row 1 of pattern"):
        build_representation(pyr, None)
