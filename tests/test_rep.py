import gc
import hashlib
import itertools
import errno
import json
import os
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracles import fraction_build, full_dimension_series, gelfand_tsetlin_diagonals
from random_weights import MULTI_DENOMINATOR, dominant_weights, small_pyramid_weights

from wrep.arith import UniPoly
from wrep.center import build_t_matrix, central_coefficients, column_determinant
from wrep.cli import main
from wrep.errors import DegenerateNodes, InvariantViolation, OrderError
from wrep.galois import cross_check
from wrep.gamma import check_fiber_bound, fibers, gamma_commutes
from wrep import rep as rep_mod
from wrep import sparse
from wrep.patterns import GTPattern, HighestWeight, enumerate_patterns, generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import (
    RELATION_FAMILIES,
    build_representation,
    generator_series,
    verify_defining_relations,
)
from wrep.sparse import Combination, SparseMatrix


def gl2_rep():
    pyr = Pyramid(rows=(1, 1))
    w = HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])
    return build_representation(enumerate_patterns(w))


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
    m = rep.A[1](Fraction(1, 2))
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
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    gens = generator_series(rep, 5)
    # e_1 starts at s_12 + 1 = p_2 - p_1 + 1 = 2, f_1 at s_21 + 1 = 1
    assert gens.e_start(1) == 2
    assert gens.f_start(1) == 1
    assert gens.e(1, 1) == SparseMatrix(rep.dim)
    assert gens.e(1, 2) != SparseMatrix(rep.dim)


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2)])
def test_relations_small_shapes(rows):
    pyr = Pyramid(rows=rows)
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    report = verify_defining_relations(rep, 4)
    assert report.ok, [f for _, _, f in report.families if f]


def test_relation_report_structure():
    rep = gl2_rep()
    report = verify_defining_relations(rep, 3)
    names = [n for n, _, _ in report.families]
    assert "[d,d]=0" in names and "d_1 vanishing" in names
    # the CLI names the families from this tuple when the series fail
    assert tuple(names) == RELATION_FAMILIES
    assert report.total_instances() > 0


def _failures(rep):
    return {name: fails for name, _, fails in
            verify_defining_relations(rep, 3).families if fails}


def _assert_ladder_mutation_detected(family, diff):
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    poly = getattr(rep, family)[1]
    coeff = poly.coeffs[0]
    (i, j, _), = coeff.entries()
    poly.coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
    failed = _failures(rep)
    assert list(failed) == ["[e,f]"]
    # the witness is the smallest (row, column) of the difference
    pattern = "GTPattern[1/3 | 4/3 1/3 1/4]"
    assert repr(rep.basis[0]) == pattern
    assert failed["[e,f]"][0] == (
        "i=1 j=1 r=2 s=1: entry (0,0) differs by %s; row pattern %s, "
        "column pattern %s" % (diff, pattern, pattern))
    with pytest.raises(InvariantViolation, match="disagrees with the matrix"):
        cross_check(rep)


def test_b_coefficient_mutation_detected():
    _assert_ladder_mutation_detected("B", "-1")


def test_c_coefficient_mutation_detected():
    _assert_ladder_mutation_detected("C", "13/12")


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
def test_verify_center_fibers_for_random_pyramids(weight):
    # the checks of `wrep verify --rmax 2`, `center` (its central scalars)
    # and `fibers`, on random pyramids rather than fixed shapes
    pyr = weight.pyramid
    rep = build_representation(enumerate_patterns(weight))
    report = verify_defining_relations(rep, 2)
    assert report.ok, [f for _, _, f in report.families if f]
    T = build_t_matrix(generator_series(rep, max(pyr.rows) + 3))
    scalars = central_coefficients(rep, column_determinant(T, pyr.n))
    assert len(scalars) == pyr.row_block_size(pyr.n)
    assert gamma_commutes(rep)
    fib, singletons = fibers(rep)
    assert singletons and len(fib) == rep.dim
    assert check_fiber_bound(pyr, fib) == (1, True)


def test_degenerate_nodes_name_row_and_pattern():
    # a non-generic pattern (equal entries in row 1) that enumeration
    # would reject, passed as the basis
    pyr = Pyramid(rows=(2, 2))
    third = Fraction(1, 3)
    mu = GTPattern(pyr, {(1, 1, 1): third, (1, 1, 2): third,
                         (2, 1, 1): third + 1, (2, 1, 2): third + 1,
                         (2, 2, 1): third, (2, 2, 2): third})
    with pytest.raises(DegenerateNodes, match=r"row 1 of pattern"):
        build_representation([mu])


def _counted_interpolation(monkeypatch):
    """{"lagrange": lagrange_basis calls, "roots": UniPoly.from_roots calls}
    from now on; lagrange_basis makes its master polynomial by from_roots."""
    calls = {"lagrange": 0, "roots": 0}
    lagrange, from_roots = rep_mod.lagrange_basis, UniPoly.from_roots.__func__

    def counted_lagrange(nodes):
        calls["lagrange"] += 1
        return lagrange(nodes)

    def counted_roots(cls, roots):
        calls["roots"] += 1
        return from_roots(cls, roots)

    monkeypatch.setattr(rep_mod, "lagrange_basis", counted_lagrange)
    monkeypatch.setattr(UniPoly, "from_roots", classmethod(counted_roots))
    return calls


def test_build_makes_one_lagrange_basis_per_distinct_row(monkeypatch):
    # (2,3,3) has 128 patterns but 9, 32 and 1 distinct l-value rows in
    # rows 1, 2 and 3: the build makes one eigenvalue polynomial per
    # distinct row of each A_r and no Lagrange basis; the first read of B
    # makes one Lagrange basis (and its master polynomial) per distinct
    # row below the top
    calls = _counted_interpolation(monkeypatch)
    pyr = Pyramid(rows=(2, 3, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    distinct = [len({tuple(mu.row_l_values(r)) for mu in rep.basis})
                for r in range(1, pyr.n + 1)]
    assert rep.dim == 128 and distinct == [9, 32, 1]
    assert calls == {"lagrange": 0, "roots": 9 + 32 + 1}
    calls.update(lagrange=0, roots=0)
    assert rep.B[1].coeffs
    assert calls == {"lagrange": 9 + 32, "roots": 9 + 32}


def test_ladder_tables_are_released_on_the_first_read(monkeypatch):
    # the nodes and Lagrange pairs of the ladders live only while B and C
    # are assembled: fibers, which never reads B or C, makes none, the
    # representation keeps none, and a second read of B or C makes none
    pyr = Pyramid(rows=(2, 3, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    calls = _counted_interpolation(monkeypatch)
    assert fibers(rep)[0]
    assert calls == {"lagrange": 0, "roots": 0}
    B = rep.B
    assert calls["lagrange"] == 9 + 32
    calls.update(lagrange=0, roots=0)
    assert rep.B is B and rep.C[1].coeffs
    assert calls == {"lagrange": 0, "roots": 0}
    assert not hasattr(rep, "eig") and not hasattr(rep, "lagrange")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
@example(HighestWeight(Pyramid(rows=(2, 2, 3)),
                       [[Fraction(3, 2), Fraction(-5, 7)], [Fraction(1, 2), Fraction(-12, 7)],
                        [Fraction(-1, 2), Fraction(-19, 7), Fraction(4, 11)]]))
def test_integer_build_equals_the_fraction_oracle(weight):
    # the q-scaled integer build and the direct Fraction formulas give equal
    # matrices, for weights with several denominators and negative entries
    pyr = weight.pyramid
    rep = build_representation(enumerate_patterns(weight))
    assert (rep.A, rep.B, rep.C) == fraction_build(pyr, weight)


_LADDER_SHAPES = [(1, 2, 2), (2, 2, 3), (2, 3, 3)]
_GENERIC = [generic_weight(Pyramid(rows=rows)) for rows in _LADDER_SHAPES]


@settings(max_examples=9, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(_LADDER_SHAPES).flatmap(dominant_weights))
@example(_GENERIC[0])
@example(_GENERIC[1])
@example(_GENERIC[2])
def test_each_ladder_is_built_on_the_pattern_of_its_shifts(weight):
    # the (target, column) pairs of the row-r slots raised (lowered), read
    # through Representation.shifted, are the positions of one interned
    # pattern that every coefficient of B_r (C_r) at all of them shares; a
    # coefficient with a vanishing Lagrange coefficient N_{k,d}, which
    # drawn weights give, keeps a subset, and the generic weight has none
    pyr = weight.pyramid
    rep = build_representation(enumerate_patterns(weight))
    for r in range(1, pyr.n):
        slots = range(rep.spans[r].start, rep.spans[r].stop)
        for table, step in ((rep.B, 1), (rep.C, -1)):
            shifts = sorted((tgt, col) for col in range(rep.dim) for p in slots
                            if (tgt := rep.shifted(col, {p: step})) is not None)
            coeffs = [c for c in table[r].coeffs if c]
            full = [c for c in coeffs if c.nnz() == len(shifts)]
            assert table[r].coeffs[-1] in full
            assert len({id(c.pattern) for c in full}) == 1
            assert list(zip(full[0].pattern.ri, full[0].pattern.ci)) == shifts
            assert all(set(zip(c.pattern.ri, c.pattern.ci)) < set(shifts)
                       for c in coeffs if c not in full)
            if weight in _GENERIC:
                assert len(full) == len(coeffs) == pyr.row_block_size(r)


def _entries_by_key(rep):
    """{(generator, r, power of u, row key, column key): entry} of A, B, C."""
    keys = [mu.key() for mu in rep.basis]
    return {(name, r, d, keys[i], keys[j]): v
            for name, table in (("A", rep.A), ("B", rep.B), ("C", rep.C))
            for r, poly in table.items() for d, m in enumerate(poly.coeffs)
            for i, j, v in m.entries()}


def test_a_sub_basis_drops_the_moves_out_of_it():
    # the (2,2,3) basis less an interior pattern nu, to which both B and C
    # move kept patterns: every entry between kept patterns is the full
    # build's, and a kept pattern's move to nu is dropped, not sent to
    # another pattern (its column holds no entry besides the full one's)
    pyr = Pyramid(rows=(2, 2, 3))
    full = build_representation(enumerate_patterns(generic_weight(pyr)))
    entries = _entries_by_key(full)
    nu = full.basis[full.dim // 2].key()
    assert {k[0] for k in entries if k[3] == nu and k[4] != nu} == {"B", "C"}
    sub = build_representation([mu for mu in full.basis if mu.key() != nu])
    assert sub.dim == full.dim - 1
    assert _entries_by_key(sub) == {k: v for k, v in entries.items() if nu not in k[3:]}


def test_build_fraction_work_budget(monkeypatch):
    # Fraction arithmetic of one (2,3,3) build, its basis enumerated
    # beforehand; a build in Fractions makes 12,668 such calls
    pyr = Pyramid(rows=(2, 3, 3))
    basis = enumerate_patterns(generic_weight(pyr))
    calls = [0]

    def counted(op):
        def call(*args):
            calls[0] += 1
            return op(*args)
        return call

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    rep = build_representation(basis)
    monkeypatch.undo()
    assert rep.dim == 128
    assert calls[0] <= 100


def test_serre_mutation_detected():
    # Serre needs three rows; one bumped B_2 entry breaks the e series
    pyr = Pyramid(rows=(1, 1, 1))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    coeff = rep.B[2].coeffs[0]
    i, j, _ = min(coeff.entries())
    rep.B[2].coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
    failed = _failures(rep)
    assert "Serre f" not in failed
    assert failed["Serre e"][0] == (
        "i=1 j=2 r=1 s=1 t=2: entry (6,0) differs by 8; row pattern %r, "
        "column pattern %r" % (rep.basis[6], rep.basis[0]))
    # the suite forms each Serre block once, on its first lookup; every
    # witness must match the instance built from plain nested commutators
    gens = generator_series(rep, 6)
    e = gens.e
    want = []
    for i, j in ((1, 2), (2, 1)):
        for r in range(gens.e_start(i), 4):
            for s in range(gens.e_start(i), 4):
                for t in range(gens.e_start(j), 4):
                    lhs = (e(i, r).commutator(e(i, s).commutator(e(j, t)))
                           + e(i, s).commutator(e(i, r).commutator(e(j, t))))
                    if lhs:
                        want.append("i=%d j=%d r=%d s=%d t=%d: %s" % (
                            i, j, r, s, t, rep_mod._first_diff(lhs, rep.basis)))
    assert failed["Serre e"] == want


def _names_patterns(witness):
    return "row pattern GTPattern[" in witness and "column pattern GTPattern[" in witness


def test_a_coefficient_mutation_detected():
    # A_1 stays diagonal, so [d,d] holds, but the ladder relations break
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
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
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
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
        lhs - rhs, rep.basis)


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1)])
def test_relations_hold_for_random_generic_weights(rows):
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dominant_weights(rows))
    def run(weight):
        pyr = weight.pyramid
        rep = build_representation(enumerate_patterns(weight))
        report = verify_defining_relations(rep, 3)
        assert report.ok, [f for _, _, f in report.families if f]
        # one comparison, an identity in u, for each of A_1..A_n, B_r and C_r
        assert cross_check(rep) == 3 * pyr.n - 2

    run()


def test_a_inverse_is_checked_on_the_side_series_inverse_did_not_solve(monkeypatch):
    # series_inverse solves a * x = 1 term by term; generator_series checks
    # only x * a = 1, which a wrong a_1^{-1} must still fail
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    inverse, calls = rep_mod.series_inverse, []

    def bumped(s):
        out = inverse(s)
        calls.append(s)
        if len(calls) == 1:  # a_1^{-1}, the first inverse generator_series takes
            out[2] = out[2] + SparseMatrix.from_entries(rep.dim, [(0, 0, 1)])
        return out

    monkeypatch.setattr(rep_mod, "series_inverse", bumped)
    with pytest.raises(InvariantViolation, match=r"a_1 inverse fails x \* a = 1 at r=2"):
        generator_series(rep, 4)


def test_gamma_coefficients_are_stored_dense(monkeypatch):
    # Gamma acts by characters: the A coefficients, a_i^{-1} and the d and
    # d' series are diagonal on the pattern basis, and the kernel's
    # diagonal paths run only on matrices stored in the dense form
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    inverse, inverses = rep_mod.series_inverse, []

    def recorded(s):
        inverses.append(inverse(s))
        return inverses[-1]

    monkeypatch.setattr(rep_mod, "series_inverse", recorded)
    gens = generator_series(rep, 6)

    def dense(coeffs):
        nonzero = [m for m in coeffs if m]
        return bool(nonzero) and all(m.diag is not None for m in nonzero)

    assert all(dense(rep.A[r].coeffs) for r in range(1, pyr.n + 1))
    # a_1^{-1}, a_2^{-1}, d_2, a_3^{-1}, d_3
    assert len(inverses) == 2 * pyr.n - 1 and all(dense(x) for x in inverses)
    assert all(dense(gens._d[i]) and dense(gens._dprime[i]) for i in range(1, pyr.n + 1))
    # the ladder series move patterns, so they stay general
    assert all(m.diag is None for i in (1, 2) for m in gens._e[i] + gens._f[i])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
@example(MULTI_DENOMINATOR)
def test_diagonal_series_equal_the_gelfand_tsetlin_oracle(weight):
    # d_i and d_i' act on each pattern by the product formula in its
    # l-values shifted by i - 1
    rep = build_representation(enumerate_patterns(weight))
    R = 7
    gens = generator_series(rep, R)
    for i in range(1, rep.n + 1):
        want_d, want_dprime = gelfand_tsetlin_diagonals(rep, i, R)
        for series, want in ((gens.d, want_d), (gens.dprime, want_dprime)):
            for r in range(R + 1):
                m = series(i, r)
                assert m.is_diagonal()
                assert [m.get(c, c) for c in range(rep.dim)] == [w[r] for w in want]


def _tables(gens):
    return gens._d, gens._dprime, gens._e, gens._f


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
@example(MULTI_DENOMINATOR)
def test_series_tables_equal_the_full_dimension_oracle(weight):
    # the diagonal series are made on the distinct columns of their inputs
    # and expanded; every coefficient equals the one made on all patterns
    rep = build_representation(enumerate_patterns(weight))
    assert _tables(generator_series(rep, 8)) == full_dimension_series(rep, 8)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_bumped_a_entry_keeps_the_tables_equal_to_the_oracle(i):
    # one diagonal entry of the u^0 coefficient of A_i moves, at a pattern
    # whose A_i column other patterns share: the classes are read from the
    # numerators, so the moved entry is a class of its own, as it would be
    # under any faulty build, and no other pattern takes its value
    rep = build_representation(enumerate_patterns(MULTI_DENOMINATOR))  # rows (2,2,3)
    col = rep.dim // 2
    columns = list(zip(*(m.diag for m in rep.A[i].coeffs)))
    assert columns.count(columns[col]) > 1
    _bump(rep.A[i].coeffs, 0, col, col)
    assert _tables(generator_series(rep, 8)) == full_dimension_series(rep, 8)


def test_diagonal_series_work_budget(monkeypatch):
    # the sum of the operand dimensions of the diagonal x diagonal products
    # that generator_series takes at (2,3,3), R = 6: on the distinct
    # columns of their inputs, a_1, a_2, a_3 and d_3 run on 9, 32, 1 and 32
    # of the 128 patterns, and d_2 on all 128 (76,288 on the full dimension)
    pyr = Pyramid(rows=(2, 3, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    rep.B, rep.C  # assembled before the count starts
    product, work = Combination.product, [0]

    def counted(self, a, b, sign=1):
        if a.diag is not None and b.diag is not None:
            work[0] += a.dim + b.dim
        return product(self, a, b, sign)

    monkeypatch.setattr(Combination, "product", counted)
    generator_series(rep, 6)
    assert work[0] <= 28068


def test_bumped_d_fails_the_dprime_check(monkeypatch):
    # d_2 is series_inverse(d_2'), its third call; a bumped d_2^{(1)} fails
    # d_2 d_2' = 1, the side that series_inverse did not solve
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    inverse, calls = rep_mod.series_inverse, []

    def bumped(s):
        out = inverse(s)
        calls.append(s)
        if len(calls) == 3:
            out[1] = out[1] + SparseMatrix.diagonal([0] * (rep.dim - 1) + [1])
        return out

    monkeypatch.setattr(rep_mod, "series_inverse", bumped)
    with pytest.raises(InvariantViolation, match="d_2' fails its defining relation at r=1"):
        generator_series(rep, 3)


def _raise_degree(table, r):
    """A mutant that appends the identity to the top of rep.<table>[r]."""
    def mutate(rep):
        polys = getattr(rep, table)
        polys[r] = UniPoly(polys[r].coeffs + [SparseMatrix.identity(rep.dim)])
    return mutate


def _off_diagonal_a2(rep):
    _bump(rep.A[2].coeffs, 0, 0, 1)


@pytest.mark.parametrize("mutate, message", [
    (_raise_degree("A", 1), r"deg A_1 = 2, expected 1"),
    (_off_diagonal_a2, r"A_2 is not diagonal"),
    (_raise_degree("B", 1), r"deg B_1 = 1 exceeds the bound 0"),
    (_raise_degree("C", 1), r"deg C_1 = 1 exceeds the bound 0"),
], ids=["deg-A", "diagonal-A", "deg-B", "deg-C"])
def test_each_build_invariant_can_fail(mutate, message):
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    mutate(rep)
    with pytest.raises(InvariantViolation, match=message):
        rep_mod._sanity_check(rep)


def test_a_doubled_eigenvalue_lead_is_not_monic(monkeypatch):
    # the A_2 eigenvalue polynomial of the first pattern, the first
    # from_roots result with p_1 + p_2 = 3 roots, gets lead 2
    pyr = Pyramid(rows=(1, 2))
    weight = generic_weight(pyr)
    from_roots, doubled_roots = UniPoly.from_roots.__func__, []

    def doubled(cls, roots):
        p = from_roots(cls, roots)
        if len(roots) == 3 and not doubled_roots:
            doubled_roots.append(roots)
            p.coeffs[-1] *= 2
        return p

    monkeypatch.setattr(UniPoly, "from_roots", classmethod(doubled))
    with pytest.raises(InvariantViolation, match="A_2 is not monic"):
        build_representation(enumerate_patterns(weight))


def _bump_result(monkeypatch, name, call, r):
    """Patch rep_mod.<name> to add the identity to coefficient r of its
    call-th result, counted from 1."""
    function, calls = getattr(rep_mod, name), []

    def bumped(*args):
        out = function(*args)
        calls.append(args)
        if len(calls) == call:
            out[r] = out[r] + SparseMatrix.identity(out[r].dim)
        return out

    monkeypatch.setattr(rep_mod, name, bumped)


# At (1,2) generator_series reads A_1, B_1, C_1, A_2 and the shifted A_1
# with poly_to_inv_series, in that order, and inverts a_1, a_2 and d_2'
# with series_inverse.
@pytest.mark.parametrize("name, call, r, message", [
    ("poly_to_inv_series", 1, 0, r"a_1\(u\) does not start at the identity"),
    ("series_inverse", 3, 0, r"d_2\^\{\(0\)\} is not the identity"),
    ("poly_to_inv_series", 2, 1, r"e_1\^\{\(1\)\} nonzero below the start index 2"),
    ("poly_to_inv_series", 3, 0, r"f_1\^\{\(0\)\} nonzero"),
], ids=["a", "d", "e", "f"])
def test_each_series_invariant_can_fail(monkeypatch, name, call, r, message):
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    _bump_result(monkeypatch, name, call, r)
    with pytest.raises(InvariantViolation, match=message):
        generator_series(rep, 4)


def test_a_d1_fault_reaches_its_family(monkeypatch, capsys):
    # a_1 = d_1 with the identity added at u^{-2}, past p_1 = 1: the
    # d_1 vanishing family names it, and center's tail check still sees
    # it in T_11 = d_1
    _bump_result(monkeypatch, "poly_to_inv_series", 1, 2)
    assert main(["verify", "--rows", "1,2", "--rmax", "2"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {c["name"]: c["witness"] for c in checks if c["status"] == "FAIL"}
    assert len(checks) == len(RELATION_FAMILIES)
    assert list(failed) == ["relations: [e,f]", "relations: [d,f]",
                            "relations: d_1 vanishing"]
    pattern = "GTPattern[1/3 | 4/3 1/3 1/4]"
    assert failed["relations: d_1 vanishing"] == (
        "r=2: entry (0,0) differs by 1; row pattern %s, column pattern %s"
        % (pattern, pattern))
    monkeypatch.undo()
    _bump_result(monkeypatch, "poly_to_inv_series", 1, 2)
    assert main(["center", "--rows", "1,2"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0] == {"name": "generator series and T-matrix", "status": "FAIL",
                         "witness": "t_{11}^{(2)} nonzero beyond the column degree 1"}


def _canonical_on(matrix):
    """rep_mod._canonical on one table of names."""
    return lambda terms: rep_mod._canonical(terms, matrix)


def test_canonical_form_of_relation_terms():
    matrix = {name: SparseMatrix.from_entries(3, entries) for name, entries in zip(
        "abcd", ([(0, 1, 1)], [(1, 2, 2)], [(2, 0, 3), (0, 0, 1)], [(1, 1, 5)]))}
    matrix["zero"] = SparseMatrix(3)
    matrix["[a,c]"] = matrix["a"].commutator(matrix["c"])
    matrix["[b,c]"] = matrix["b"].commutator(matrix["c"])
    canonical, comm = _canonical_on(matrix), rep_mod._comm
    # [a,b] = -[b,a]: the same sum up to sign
    assert canonical(comm("a", "b"))[0] == canonical(comm("b", "a"))[0]
    # a Serre instance (r, s, t) is (s, r, t) with its two terms swapped
    assert (canonical(comm("a", "[b,c]") + comm("b", "[a,c]"))[0]
            == canonical(comm("b", "[a,c]") + comm("a", "[b,c]"))[0])
    # [a,a], and a product equal on both sides, are formally zero
    assert canonical(comm("a", "a")) == ((), [])
    assert canonical([(1, ("a", "b")), (-1, ("a", "b"))]) == ((), [])
    # a zero operand drops its term: the table maps "zero" to the zero matrix
    assert canonical(comm("d", "zero") + [(1, ("a", "b"))]) == canonical([(1, ("a", "b"))])
    # r = s in Serre: two equal commutators merge into 2[a,b]
    key, pairs = canonical(comm("a", "b") + comm("a", "b"))
    assert pairs == [(("a", "b"), 2), (("b", "a"), -2)]
    assert sorted(coeff for _, coeff in key) == [-2, 2]
    assert key[0][1] > 0
    # the key names the operands and holds no matrix
    assert key == ((("a", "b"), 2), (("b", "a"), -2))


def test_image_key_reverses_products_and_fixes_diagonal_ones():
    # tau swaps the e and f it pairs, fixes d and d', and takes [a, b] to
    # -[tau a, tau b]: the image of [e, d] + 3 d' d is [d, f] + 3 d' d,
    # whose key is -1 times that of [f, d] - 3 d' d
    e, f, d, dp, e2, f2 = names = (("e", 1, 2), ("f", 1, 1), ("d", 1, 1), ("d'", 1, 1),
                                   ("e", 2, 1), ("f", 2, 1))
    matrix = rep_mod._NameTable(zip(names, (SparseMatrix.from_entries(3, entries) for entries in (
        [(0, 1, 1)], [(1, 0, 1)], [(0, 0, 1)], [(1, 1, 2)], [(1, 2, 1)], [(2, 1, 1)]))))
    tau = {e: f, f: e, e2: f2, f2: e2}
    canonical, comm, image_key = _canonical_on(matrix), rep_mod._comm, rep_mod._image_key
    _, pairs = canonical(comm(e, d) + [(3, (dp, d))])
    assert image_key(pairs, tau) == canonical(comm(f, d) + [(-3, (dp, d))])[0]
    # a Serre block [e, e2] maps to -[f, f2]: [e, [e, e2]] to [f, [f, f2]]
    _, pairs = canonical(comm(e, ("[,]", e, e2)))
    assert image_key(pairs, tau) == canonical(comm(f, ("[,]", f, f2)))[0]
    # an operand tau does not pair has no image, nor does a block of one
    g = ("e", 1, 9)
    matrix[g] = matrix[e]
    assert image_key(canonical([(1, (e, g))])[1], tau) is None
    assert image_key(canonical(comm(e, ("[,]", g, e2)))[1], tau) is None


def test_name_table_forms_each_serre_block_once(monkeypatch):
    # a block is the commutator of its operands' matrices, formed on its
    # first lookup and kept; any other name outside the table raises
    a, b = SparseMatrix.from_entries(3, [(0, 1, 1)]), SparseMatrix.from_entries(3, [(1, 2, 2)])
    matrix = rep_mod._NameTable({("e", 1, 1): a, ("e", 2, 1): b})
    block = ("[,]", ("e", 1, 1), ("e", 2, 1))
    commutator, calls = SparseMatrix.commutator, [0]

    def counted(self, other):
        calls[0] += 1
        return commutator(self, other)

    monkeypatch.setattr(SparseMatrix, "commutator", counted)
    assert matrix[block] == a * b - b * a
    assert matrix[block] is matrix[block] and calls == [1]
    for name in (("e", 1, 2), ("f", 1, 1), ("[,]", ("e", 1, 1), ("e", 1, 5))):
        with pytest.raises(OrderError):
            matrix[name]
    assert calls == [1] and len(matrix) == 3


def _unmemoized_report(monkeypatch, rep, R):
    # every instance gets a key of its own, so each one is summed
    canonical, fresh = rep_mod._canonical, itertools.count()

    def unique(terms, matrix):
        return (next(fresh),), canonical(terms, matrix)[1]

    with monkeypatch.context() as m:
        m.setattr(rep_mod, "_canonical", unique)
        return verify_defining_relations(rep, R).families


def _bump(coeffs, k, i, j):
    coeffs[k] = coeffs[k] + SparseMatrix.from_entries(coeffs[k].dim, [(i, j, 1)])


def _bump_b2(rep, monkeypatch):
    i, j, _ = min(rep.B[2].coeffs[0].entries())
    _bump(rep.B[2].coeffs, 0, i, j)


def _bump_a1(rep, monkeypatch):
    i, _, _ = min(rep.A[1].coeffs[0].entries())
    _bump(rep.A[1].coeffs, 0, i, i)


def _bump_series(x, rep, monkeypatch, r=1):
    # one bumped entry of x_1^{(r)}, x = "e" or "f", injected after the
    # series are built
    series = rep_mod.generator_series

    def mutated_series(rep, R):
        gens = series(rep, R)
        i, j, _ = min(getattr(gens, x)(1, r).entries())
        _bump(getattr(gens, "_" + x)[1], r, i, j)
        return gens

    monkeypatch.setattr(rep_mod, "generator_series", mutated_series)


def _bump_e1(rep, monkeypatch, r=1):
    _bump_series("e", rep, monkeypatch, r)


def _bump_f1(rep, monkeypatch):
    _bump_series("f", rep, monkeypatch)


@pytest.mark.parametrize("rows, mutate", [
    ((1, 2), None), ((1, 1, 1), None), ((2, 2, 3), None),
    ((1, 1, 1), _bump_b2), ((1, 2), _bump_a1), ((1, 1, 1), _bump_e1),
    ((1, 1, 1), _bump_f1),
], ids=["1-2", "1-1-1", "2-2-3", "B2", "A1", "e1", "f1"])
def test_memo_of_canonical_sums_is_invisible_in_the_report(monkeypatch, rows, mutate):
    pyr = Pyramid(rows=rows)
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    if mutate:
        mutate(rep, monkeypatch)
    memoized = verify_defining_relations(rep, 3).families
    assert memoized == _unmemoized_report(monkeypatch, rep, 3)
    assert any(fails for _, _, fails in memoized) == (mutate is not None)


def _mutated_series(mutate):
    """rep_mod.generator_series, with mutate applied to the series it builds."""
    series = rep_mod.generator_series

    def mutated(rep, R):
        gens = series(rep, R)
        mutate(gens)
        return gens

    return mutated


def _tau_run(rep, R, workers=1, tau=True):
    """(whether the tau check passed, the number of sums zero-tested here,
    the families) of verify_defining_relations(rep, R); tau=False runs the
    suite as if the check had failed."""
    found, sums = [], [0]
    anti, combine = rep_mod._anti_involution, rep_mod._combine

    def recorded(gens):
        out = anti(gens) if tau else None
        found.append(out is not None)
        return out

    def counted(*args):
        sums[0] += 1
        return combine(*args)

    with mock.patch.object(rep_mod, "_anti_involution", recorded), \
            mock.patch.object(rep_mod, "_combine", counted):
        families = _families(rep, R, workers)
    return found, sums[0], families


def _assert_tau_skips(weight):
    # the tau check passes, and the suite sums fewer instances with it,
    # with the report unchanged; a one-row pyramid has no e or f to skip.
    # R reaches two past every e_i's start, so each [e,f] meets its image
    pyr = weight.pyramid
    R = 2 + max([pyr.shift(i, i + 1) for i in range(1, pyr.n)], default=0)
    rep = build_representation(enumerate_patterns(weight))
    found, sums, families = _tau_run(rep, R)
    assert found == [True]
    without, sums_without, families_without = _tau_run(rep, R, tau=False)
    assert without == [False]
    assert families == families_without
    assert (sums < sums_without) == (pyr.n > 1)


def _tau_pyramids():
    """Every pyramid of at most 7 boxes and at most 4 rows whose basis at
    generic_weight has at most 64 vectors."""
    def rows(total, least, left):
        yield ()
        for p in range(least, total + 1):
            if left:
                for rest in rows(total - p, p, left - 1):
                    yield (p,) + rest
    pyramids = (Pyramid(rows=r) for r in rows(7, 1, 4) if r)
    return [p for p in pyramids if len(enumerate_patterns(generic_weight(p))) <= 64]


def test_tau_holds_and_skips_on_every_small_pyramid():
    pyramids = _tau_pyramids()
    assert len(pyramids) == 34
    for pyr in pyramids:
        _assert_tau_skips(generic_weight(pyr))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
@example(MULTI_DENOMINATOR)
def test_tau_holds_and_skips_at_random_weights(weight):
    _assert_tau_skips(weight)


def _bump_d22(gens):
    # one diagonal entry of d_2^{(2)}: d stays diagonal, so tau still fixes it
    m = gens._d[2][2]
    gens._d[2][2] = m + SparseMatrix.from_entries(m.dim, [(0, 0, 1)])


def _twist_e1(gens):
    # e_1^{(1 + s_1)} -> e + e D and f_1^{(1)} -> f + D f for the 0/1
    # diagonal D = diag(i mod 2): tau(e + e D) = f + D f, so tau still
    # pairs them
    pyr = gens.rep.pyramid
    s = pyr.shift(1, 2) - pyr.shift(2, 1)
    D = SparseMatrix.diagonal([i % 2 for i in range(gens.rep.dim)])
    e, f = gens._e[1][1 + s], gens._f[1][1]
    gens._e[1][1 + s], gens._f[1][1] = e + e * D, f + D * f


@pytest.mark.parametrize("rows, mutate, failing", [
    ((1, 1, 1, 1), _bump_d22, {"[e,f]", "[d,e]", "[d,f]"}),
    ((2, 2, 3), _bump_d22, {"[e,f]", "[d,e]", "[d,f]"}),
    ((1, 1, 1, 1), _twist_e1, set(RELATION_FAMILIES) - {"[d,d]=0", "d_1 vanishing"}),
    ((1, 2, 2, 2), _twist_e1, set(RELATION_FAMILIES) - {"[d,d]=0", "d_1 vanishing"}),
], ids=["d22-1-1-1-1", "d22-2-2-3", "eD-1-1-1-1", "eD-1-2-2-2"])
def test_tau_preserving_faults_report_as_without_memo(monkeypatch, rows, mutate, failing):
    # tau still exists, so the suite skips tau-images; a failing sum never
    # passes, so its image is summed too, and the report is that of
    # summing every instance, on one worker and on two
    pyr = Pyramid(rows=rows)
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    monkeypatch.setattr(rep_mod, "generator_series", _mutated_series(mutate))
    expected = _unmemoized_report(monkeypatch, rep, 2)
    for workers in (1, 2):
        found, _, families = _tau_run(rep, 2, workers)
        assert found == [True]
        assert families == expected
        _assert_no_child_left()
    assert {name for name, _, fails in expected if fails} == failing


def _offdiagonal_d21(rep, monkeypatch):
    def mutate(gens):
        m = gens._d[2][1]
        gens._d[2][1] = m + SparseMatrix.from_entries(m.dim, [(0, 1, 1)])

    monkeypatch.setattr(rep_mod, "generator_series", _mutated_series(mutate))


@pytest.mark.parametrize("rows, mutate", [
    ((1, 1, 1), _bump_e1), ((2, 2, 3), _bump_e1), ((1, 1, 1), _bump_f1),
    ((1, 1, 1), _bump_b2), ((1, 1, 1), _offdiagonal_d21), ((2, 2, 3), _offdiagonal_d21),
], ids=["e1-1-1-1", "e1-2-2-3", "f1", "B2", "d21-1-1-1", "d21-2-2-3"])
def test_tau_breaking_faults_turn_tau_off(monkeypatch, rows, mutate):
    # e_1 or f_1 alone moves, or d_2^{(1)} is no longer diagonal: the tau
    # check fails, and the suite reports as it does without tau
    pyr = Pyramid(rows=rows)
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    mutate(rep, monkeypatch)
    found, _, families = _tau_run(rep, 3)
    assert found == [False]
    assert families == _tau_run(rep, 3, tau=False)[2]
    assert families == _unmemoized_report(monkeypatch, rep, 3)
    assert any(fails for _, _, fails in families)


def test_relation_suite_work_budget(monkeypatch):
    # Combination.product calls of the whole suite at (2,2,3), rmax 3; a
    # lost dedup of canonical sums, a lost skip of a tau-image (or a second
    # inverse check) exceeds it.
    # Plans built: one per product pattern pair, on its first product; a
    # plan built per call, or a cache that misses, changes the count.  One
    # worker, so that every family runs, and is counted, in this process
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    product, calls = Combination.product, [0]
    plan_init, plans = sparse._Plan.__init__, [0]

    def counted(self, a, b, sign=1):
        calls[0] += 1
        return product(self, a, b, sign)

    def counted_plan(self, left, right):
        plans[0] += 1
        plan_init(self, left, right)

    monkeypatch.setattr(Combination, "product", counted)
    monkeypatch.setattr(sparse._Plan, "__init__", counted_plan)
    monkeypatch.setattr(rep_mod, "_default_workers", lambda: 1)
    report = verify_defining_relations(rep, 3)
    assert report.ok
    assert calls[0] <= 983
    assert plans[0] == 16
    assert [(name, count) for name, count, _ in report.families] == [
        ("[d,d]=0", 81), ("[e,f]", 30), ("[d,e]", 45), ("[d,f]", 54), ("e same-row", 13),
        ("f same-row", 18), ("e adjacent", 6), ("f adjacent", 9), ("distant rows", 0),
        ("Serre e", 30), ("Serre f", 54), ("d_1 vanishing", 4)]


@pytest.mark.parametrize("rows, R, blocks", [
    ((2, 3, 3), 4, 28), ((2, 2, 3), 3, 15), ((1, 2, 2, 3), 3, 30),
], ids=["2-3-3", "2-2-3", "1-2-2-3"])
def test_relation_suite_commutator_count(monkeypatch, rows, R, blocks):
    # SparseMatrix.commutator runs once per Serre block of a one-worker
    # suite, on its first lookup in the name table: a block formed per
    # instance, or per side of a ticket, changes the count
    rep = build_representation(enumerate_patterns(generic_weight(Pyramid(rows=rows))))
    commutator, calls = SparseMatrix.commutator, [0]

    def counted(self, other):
        calls[0] += 1
        return commutator(self, other)

    monkeypatch.setattr(SparseMatrix, "commutator", counted)
    assert not any(fails for _, _, fails in _families(rep, R, 1))
    assert calls[0] == blocks


def _is_name(name):
    """A name is a tuple of str, int and names."""
    return type(name) is tuple and all(type(part) in (str, int) or _is_name(part)
                                       for part in name)


def test_relation_terms_hold_only_names(monkeypatch):
    # every term _canonical receives is (int coefficient, names): no
    # matrix rides along with a name.  A forked worker that met one would
    # raise, and its ticket would run again here and raise
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    canonical, terms_seen = rep_mod._canonical, [0]

    def guarded(terms, matrix):
        for c, names in terms:
            assert type(c) is int and type(names) is tuple, (c, names)
            assert names and all(map(_is_name, names)), names
        terms_seen[0] += len(terms)
        return canonical(terms, matrix)

    monkeypatch.setattr(rep_mod, "_canonical", guarded)
    assert not any(fails for _, _, fails in _families(rep, 3, 1))
    assert terms_seen[0] > 0  # every family ran in this process
    assert not any(fails for _, _, fails in _families(rep, 3, 2))
    _assert_no_child_left()


def test_bumped_value_on_a_planned_pattern_fails(monkeypatch):
    # one value of e_1^{(3)} at (2,2,3) moves and its pattern stays: the
    # products of e_1^{(3)} run through plans built for e_1^{(1)} and
    # e_1^{(2)}, which must read the new value.  The witnesses are those
    # of the dict-of-rows kernel this one replaced.
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    series = rep_mod.generator_series
    patterns = []

    def mutated_series(rep, R):
        gens = series(rep, R)
        m = gens.e(1, 3)
        i, j, _ = min(m.entries())
        _bump(gens._e[1], 3, i, j)
        patterns.extend([m.pattern, gens.e(1, 3).pattern])
        return gens

    monkeypatch.setattr(rep_mod, "generator_series", mutated_series)
    families = verify_defining_relations(rep, 3).families
    assert patterns[0] is patterns[1]
    failing = {name: len(fails) for name, _, fails in families if fails}
    assert failing == {"[e,f]": 6, "[d,e]": 10, "e same-row": 8, "e adjacent": 4,
                       "Serre e": 14}
    assert families[1][2][0] == (
        "i=1 j=1 r=3 s=1: entry (0,0) differs by 12/11; row pattern "
        "GTPattern[1/3 1/4 | 4/3 5/4 1/3 1/4 | 7/3 9/4 4/3 5/4 1/3 1/4 1/5], column pattern "
        "GTPattern[1/3 1/4 | 4/3 5/4 1/3 1/4 | 7/3 9/4 4/3 5/4 1/3 1/4 1/5]")
    text = "\n".join(fail for _, _, fails in families for fail in fails)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8e5dec051385356830521a01ff0fc20101917e97a660538b64e0758ae8a387f7")


def test_bumped_f_value_fails_on_the_f_side(monkeypatch):
    # one value of f_1^{(1)} at (2,2,3) moves: the families that read f
    # fail, [d,f], f same-row and f adjacent as the transposes of their
    # e-side families; the witnesses are those of the hand-written f side
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    _bump_f1(rep, monkeypatch)
    monkeypatch.setattr(rep_mod, "_default_workers", lambda: 1)
    families = verify_defining_relations(rep, 3).families
    failing = {name: len(fails) for name, _, fails in families if fails}
    assert failing == {"[e,f]": 5, "[d,f]": 4, "f same-row": 5, "f adjacent": 3,
                       "Serre f": 24}
    text = "\n".join(fail for _, _, fails in families for fail in fails)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4aa30d986c1cf0907ec98350ec71772efb8275927953a176d3803e885911c9bd")


@pytest.mark.parametrize("delta", [1, -1], ids=["s12+1", "s12-1"])
def test_a_wrong_shift_entry_fails(monkeypatch, capsys, delta):
    # s_12 moves by one: e_1 is read off B_1 at the wrong power of u, which
    # [e,f] sees, and so does center's T-matrix
    shift = Pyramid.shift

    def moved(pyr, i, j):
        return shift(pyr, i, j) + (delta if (i, j) == (1, 2) else 0)

    monkeypatch.setattr(Pyramid, "shift", moved)
    assert main(["verify", "--rows", "1,2,2", "--rmax", "3"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"] for c in checks if c["status"] == "FAIL"} == {"relations: [e,f]"}
    assert main(["center", "--rows", "1,2,2"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0]["name"] == "generator series and T-matrix"
    assert checks[0]["status"] == "FAIL"


def test_no_pattern_outlives_the_relation_suite():
    # patterns, and the plans hanging off them, die with the matrices of
    # the job: nothing is left for a later job or a warm pass to reuse.
    # Patterns refer to each other by key only, so they die by reference
    # count, before the cycle collector runs.
    gc.collect()
    before = set(sparse._PATTERNS.values())

    def job():
        pyr = Pyramid(rows=(2, 2, 3))
        rep = build_representation(enumerate_patterns(generic_weight(pyr)))
        report = verify_defining_relations(rep, 3)
        # the ladder patterns of rep.B and rep.C carry the plans built
        assert any(p.plans for p in set(sparse._PATTERNS.values()) - before)
        return report

    assert job().ok
    assert not set(sparse._PATTERNS.values()) - before
    gc.collect()
    assert not set(sparse._PATTERNS.values()) - before


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _families(rep, R, workers):
    """verify_defining_relations(rep, R).families on the given number of
    workers."""
    with mock.patch.object(rep_mod, "_default_workers", lambda: workers):
        return verify_defining_relations(rep, R).families


def _serial_and_forked(rep, R):
    serial = _families(rep, R, 1)
    _assert_no_child_left()
    forked = _families(rep, R, 2)
    _assert_no_child_left()
    return serial, forked


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
def test_two_workers_report_what_one_does(weight):
    # counts, witnesses and their order do not depend on which process
    # ran a family, and no child outlives the call
    rep = build_representation(enumerate_patterns(weight))
    serial, forked = _serial_and_forked(rep, 2)
    assert forked == serial


def test_two_workers_report_the_witnesses_one_does(monkeypatch):
    # the bumped e_1^{(3)} of test_bumped_value_on_a_planned_pattern_fails
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    _bump_e1(rep, monkeypatch, 3)
    serial, forked = _serial_and_forked(rep, 3)
    assert forked == serial
    assert [name for name, _, fails in serial if fails] == [
        "[e,f]", "[d,e]", "e same-row", "e adjacent", "Serre e"]


@pytest.mark.parametrize("fault", ["exit", "raise"])
def test_a_family_a_child_drops_is_run_again(monkeypatch, tmp_path, fault):
    # the child dies, or every family it takes raises, in its first family;
    # the parent's first family waits for that, so the parent always has
    # families of the child to run again
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    serial = _families(rep, 3, 1)
    parent, combine, dropped = os.getpid(), rep_mod._combine, tmp_path / "dropped"

    def faulty(*args):
        if os.getpid() != parent:
            dropped.touch()
            if fault == "exit":
                os._exit(1)
            raise RuntimeError("a fault in the child")
        deadline = time.monotonic() + 30
        while not dropped.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return combine(*args)

    monkeypatch.setattr(rep_mod, "_combine", faulty)
    assert _families(rep, 3, 2) == serial
    assert dropped.exists()
    _assert_no_child_left()


def test_a_family_that_raises_raises_as_in_a_serial_run(monkeypatch):
    # five families fail under the bumped e_1^{(3)}, and computing a
    # witness raises with a message of its own in each: whichever process
    # runs them, the first of them in report order, [e,f], raises
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    _bump_e1(rep, monkeypatch, 3)

    def raising(diff, basis):
        raise ValueError("witness %s" % (min(diff.entries()),))

    monkeypatch.setattr(rep_mod, "_first_diff", raising)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"^witness \(0, 0, Fraction\(12, 11\)\)$"):
            _families(rep, 3, workers)
        _assert_no_child_left()


def test_no_fork_to_spare_runs_every_family_here(monkeypatch):
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    serial = _families(rep, 3, 1)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _families(rep, 3, 2) == serial
    _assert_no_child_left()


def test_a_process_with_threads_does_not_fork():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert rep_mod._default_workers() == 1
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert rep_mod._default_workers() == min(len(os.sched_getaffinity(0)),
                                             len(rep_mod._QUEUE))


def test_workers_are_capped_at_the_tickets(monkeypatch):
    # 16 usable cores, 8 tickets: a ninth worker would find the queue empty
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert len(rep_mod._QUEUE) == 8
    assert rep_mod._default_workers() == 8
    # every family is in exactly one ticket
    assert sorted(name for ticket in rep_mod._QUEUE for name in ticket) == sorted(
        RELATION_FAMILIES)
