from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from wrep.errors import DegenerateNodes, InvariantViolation, OrderError
from wrep.galois import cross_check
from wrep import rep as rep_mod
from wrep.patterns import (
    GTPattern,
    HighestWeight,
    generic_weight,
    validate_highest_weight,
)
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


def _failures(rep):
    return {name: fails for name, _, fails in
            verify_defining_relations(rep, 3).families if fails}


def _assert_ladder_mutation_detected(family, diff):
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(pyr, generic_weight(pyr))
    poly = getattr(rep, family)[1]
    coeff = poly.coeffs[0]
    (i, j, _), = coeff.entries()
    poly.coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
    failed = _failures(rep)
    assert list(failed) == ["[e,f]"]
    pattern = "GTPattern[4/3 | 4/3 1/3 1/4]"
    assert repr(rep.basis[1]) == pattern
    assert failed["[e,f]"][0] == (
        "i=1 j=1 r=2 s=1: entry (1,1) differs by %s; row pattern %s, "
        "column pattern %s" % (diff, pattern, pattern))
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


def test_serre_mutation_detected():
    # Serre needs three rows; one bumped B_2 entry breaks the e series
    pyr = Pyramid(rows=(1, 1, 1))
    rep = build_representation(pyr, generic_weight(pyr))
    coeff = rep.B[2].coeffs[0]
    i, j, _ = min(coeff.entries())
    rep.B[2].coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
    failed = _failures(rep)
    assert "Serre f" not in failed
    assert failed["Serre e"][0] == (
        "i=1 j=2 r=1 s=1 t=2: entry (6,0) differs by 8; row pattern %r, "
        "column pattern %r" % (rep.basis[6], rep.basis[0]))
    # the suite builds each inner commutator once per (i, j) block; every
    # witness must match the instance built from plain nested commutators
    gens = generator_series(rep, 6)
    e, zero = gens.e, SparseMatrix(rep.dim)
    want = []
    for i, j in ((1, 2), (2, 1)):
        for r in range(gens.e_start(i), 4):
            for s in range(gens.e_start(i), 4):
                for t in range(gens.e_start(j), 4):
                    lhs = (e(i, r).commutator(e(i, s).commutator(e(j, t)))
                           + e(i, s).commutator(e(i, r).commutator(e(j, t))))
                    if lhs:
                        want.append("i=%d j=%d r=%d s=%d t=%d: %s" % (
                            i, j, r, s, t, rep_mod._first_diff(lhs, zero, rep.basis)))
    assert failed["Serre e"] == want


def _names_patterns(witness):
    return "row pattern GTPattern[" in witness and "column pattern GTPattern[" in witness


def test_a_coefficient_mutation_detected():
    # A_1 stays diagonal, so [d,d] holds, but the ladder relations break
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(pyr, generic_weight(pyr))
    coeff = rep.A[1].coeffs[0]
    i, _, _ = min(coeff.entries())
    rep.A[1].coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, i, 1)])
    failed = _failures(rep)
    assert set(failed) == {"[e,f]", "[d,e]", "[d,f]"}
    assert all(_names_patterns(w) for fails in failed.values() for w in fails)
    assert failed["[e,f]"][0] == (
        "i=1 j=1 r=2 s=1: entry (0,0) differs by 13/6; row pattern %r, "
        "column pattern %r" % (rep.basis[0], rep.basis[0]))


def test_e_series_mutation_reaches_failure_branch(monkeypatch):
    # one bumped entry of e_1^{(1)}, injected after the series are built,
    # so only the zero test of each relation instance can catch it
    pyr = Pyramid(rows=(1, 1, 1))
    rep = build_representation(pyr, generic_weight(pyr))
    built = []

    def mutated_series(rep, R):
        gens = generator_series(rep, R)
        coeff = gens.e(1, 1)
        i, j, _ = min(coeff.entries())
        gens._e[1][1] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
        built.append(gens)
        return gens

    monkeypatch.setattr(rep_mod, "generator_series", mutated_series)
    failed = _failures(rep)
    assert set(failed) == {"[e,f]", "[d,e]", "e adjacent", "Serre e"}
    assert all(_names_patterns(w) for fails in failed.values() for w in fails)
    # the witness is the difference of the two sides built as plain matrices
    gens, = built
    d, e = gens.d, gens.e
    lhs = d(1, 2).commutator(e(1, 1))
    rhs = d(1, 0) * e(1, 2) + d(1, 1) * e(1, 1)
    assert lhs != rhs
    assert failed["[d,e]"][0] == "i=1 j=1 r=2 s=1: %s" % rep_mod._first_diff(
        lhs, rhs, rep.basis)


@st.composite
def dominant_weights(draw, rows):
    """Dominant weights with row gaps 0, 1 or 2 in each column, kept when
    validate_highest_weight finds them generic."""
    pyr = Pyramid(rows=rows)
    n = pyr.n
    parts = [[None] * pyr.p(i) for i in range(1, n + 1)]
    for k in range(1, pyr.p(n) + 1):
        value = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
        for i in range(n, 0, -1):
            if pyr.p(i) < k:
                break
            parts[i - 1][k - 1] = value
            value += draw(st.integers(0, 2))
    weight = HighestWeight(pyr, parts)
    assume(not validate_highest_weight(weight))
    return weight


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1)])
def test_relations_hold_for_random_generic_weights(rows):
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dominant_weights(rows))
    def run(weight):
        pyr = weight.pyramid
        rep = build_representation(pyr, weight)
        report = verify_defining_relations(rep, 3)
        assert report.ok, [f for _, _, f in report.families if f]
        # 3 sample points for each of A_1..A_n, B_r and C_r
        assert cross_check(rep) == 3 * (3 * pyr.n - 2)

    run()
