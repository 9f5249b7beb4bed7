import gc
import hashlib
import itertools
import errno
import os
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from oracles import fraction_build
from random_weights import dominant_weights, small_pyramid_weights

from wrep.arith import UniPoly
from wrep.center import build_t_matrix, central_coefficients, column_determinant
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
    # the CLI names the families from this tuple when the series fail
    assert tuple(names) == RELATION_FAMILIES
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
    rep = build_representation(pyr, weight)
    report = verify_defining_relations(rep, 2)
    assert report.ok, [f for _, _, f in report.families if f]
    T = build_t_matrix(generator_series(rep, max(pyr.rows) + 3))
    scalars = central_coefficients(rep, column_determinant(T, pyr.n))
    assert len(scalars) == pyr.row_block_size(pyr.n)
    assert gamma_commutes(rep)
    fib, singletons = fibers(rep)
    assert singletons and len(fib) == rep.dim
    assert check_fiber_bound(pyr, fib) == (1, True)


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


def test_build_makes_one_lagrange_basis_per_distinct_row(monkeypatch):
    # (2,3,3) has 128 patterns but 9, 32 and 1 distinct l-value rows in
    # rows 1, 2 and 3: one eigenvalue polynomial per distinct row of each
    # A_r, one Lagrange basis (and its master polynomial) per distinct
    # row below the top
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
    pyr = Pyramid(rows=(2, 3, 3))
    rep = build_representation(pyr, generic_weight(pyr))
    distinct = [len({tuple(mu.row_l_values(r)) for mu in rep.basis})
                for r in range(1, pyr.n + 1)]
    assert rep.dim == 128 and distinct == [9, 32, 1]
    assert calls["lagrange"] == 9 + 32
    assert calls["roots"] == (9 + 32 + 1) + calls["lagrange"]


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
    rep = build_representation(pyr, weight)
    assert (rep.A, rep.B, rep.C) == fraction_build(pyr, weight)


def test_build_fraction_work_budget(monkeypatch):
    # Fraction arithmetic of one (2,3,3) build, its basis enumerated
    # beforehand; a build in Fractions makes 12,668 such calls
    pyr = Pyramid(rows=(2, 3, 3))
    weight = generic_weight(pyr)
    basis = enumerate_patterns(weight)
    monkeypatch.setattr(rep_mod, "enumerate_patterns", lambda w: basis)
    calls = [0]

    def counted(op):
        def call(*args):
            calls[0] += 1
            return op(*args)
        return call

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    rep = build_representation(pyr, weight)
    monkeypatch.undo()
    assert rep.dim == 128
    assert calls[0] <= 100


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
        lhs - rhs, rep.basis)


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
        # one comparison, an identity in u, for each of A_1..A_n, B_r and C_r
        assert cross_check(rep) == 3 * pyr.n - 2

    run()


def test_a_inverse_is_checked_on_the_side_series_inverse_did_not_solve(monkeypatch):
    # series_inverse solves a * x = 1 term by term; generator_series checks
    # only x * a = 1, which a wrong a_1^{-1} must still fail
    pyr = Pyramid(rows=(1, 2))
    rep = build_representation(pyr, generic_weight(pyr))
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
    rep = build_representation(pyr, generic_weight(pyr))
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
    # a_1^{-1}, a_2^{-1}, then d_1', d_2', d_3'
    assert len(inverses) == 2 * pyr.n - 1 and all(dense(x) for x in inverses)
    assert all(dense(gens._d[i]) and dense(gens._dprime[i]) for i in range(1, pyr.n + 1))
    # the ladder series move patterns, so they stay general
    assert all(m.diag is None for i in (1, 2) for m in gens._e[i] + gens._f[i])


def _ops(dim, *entry_lists):
    return [SparseMatrix.from_entries(dim, entries) for entries in entry_lists]


def test_canonical_form_of_relation_terms():
    a, b, c, d = _ops(3, [(0, 1, 1)], [(1, 2, 2)], [(2, 0, 3), (0, 0, 1)], [(1, 1, 5)])
    zero = SparseMatrix(3)
    canonical = rep_mod._canonical
    comm, prod = rep_mod._comm, rep_mod._prod
    # [a,b] = -[b,a]: the same sum up to sign
    assert canonical([comm(a, b)], [])[0] == canonical([comm(b, a)], [])[0]
    # a Serre instance (r, s, t) is (s, r, t) with its two terms swapped
    inner_s, inner_r = a.commutator(c), b.commutator(c)
    assert (canonical([comm(a, inner_r), comm(b, inner_s)], [])[0]
            == canonical([comm(b, inner_s), comm(a, inner_r)], [])[0])
    # [a,a], and a product equal on both sides, are formally zero
    assert canonical([comm(a, a)], []) == ((), [])
    assert canonical([prod(a, b)], [prod(a, b)]) == ((), [])
    # a zero operand drops its term
    assert canonical([comm(d, zero), prod(a, b)], []) == canonical([prod(a, b)], [])
    # r = s in Serre: two equal commutators merge into 2[a,b]
    key, terms = canonical([comm(a, b), comm(a, b)], [])
    assert terms == [[2, (a, b)], [-2, (b, a)]]
    assert sorted(coeff for _, coeff in key) == [-2, 2]
    assert key[0][1] > 0


def _unmemoized_report(monkeypatch, rep, R):
    # every instance gets a key of its own, so each one is summed
    canonical, fresh = rep_mod._canonical, itertools.count()

    def unique(lhs, rhs):
        return (next(fresh),), canonical(lhs, rhs)[1]

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


def _bump_e1(rep, monkeypatch, r=1):
    # one bumped entry of e_1^{(r)}, injected after the series are built
    series = rep_mod.generator_series

    def mutated_series(rep, R):
        gens = series(rep, R)
        i, j, _ = min(gens.e(1, r).entries())
        _bump(gens._e[1], r, i, j)
        return gens

    monkeypatch.setattr(rep_mod, "generator_series", mutated_series)


@pytest.mark.parametrize("rows, mutate", [
    ((1, 2), None), ((1, 1, 1), None), ((2, 2, 3), None),
    ((1, 1, 1), _bump_b2), ((1, 2), _bump_a1), ((1, 1, 1), _bump_e1),
], ids=["1-2", "1-1-1", "2-2-3", "B2", "A1", "e1"])
def test_memo_of_canonical_sums_is_invisible_in_the_report(monkeypatch, rows, mutate):
    pyr = Pyramid(rows=rows)
    rep = build_representation(pyr, generic_weight(pyr))
    if mutate:
        mutate(rep, monkeypatch)
    memoized = verify_defining_relations(rep, 3).families
    assert memoized == _unmemoized_report(monkeypatch, rep, 3)
    assert any(fails for _, _, fails in memoized) == (mutate is not None)


def test_relation_suite_work_budget(monkeypatch):
    # Combination.product calls of the whole suite at (2,2,3), rmax 3; a
    # lost dedup of canonical sums (or a second inverse check) exceeds it.
    # Plans built: one per product pattern pair, on its first product; a
    # plan built per call, or a cache that misses, changes the count.  One
    # worker, so that every family runs, and is counted, in this process
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(pyr, generic_weight(pyr))
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
    assert calls[0] <= 1282
    assert plans[0] == 24
    assert [(name, count) for name, count, _ in report.families] == [
        ("[d,d]=0", 81), ("[e,f]", 30), ("[d,e]", 45), ("[d,f]", 54), ("e same-row", 13),
        ("f same-row", 18), ("e adjacent", 6), ("f adjacent", 9), ("distant rows", 0),
        ("Serre e", 30), ("Serre f", 54), ("d_1 vanishing", 4)]


def test_bumped_value_on_a_planned_pattern_fails(monkeypatch):
    # one value of e_1^{(3)} at (2,2,3) moves and its pattern stays: the
    # products of e_1^{(3)} run through plans built for e_1^{(1)} and
    # e_1^{(2)}, which must read the new value.  The witnesses are those
    # of the dict-of-rows kernel this one replaced.
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(pyr, generic_weight(pyr))
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


def test_no_pattern_outlives_the_relation_suite():
    # patterns, and the plans hanging off them, die with the matrices of
    # the job: nothing is left for a later job or a warm pass to reuse.
    # Patterns refer to each other by key only, so they die by reference
    # count, before the cycle collector runs.
    gc.collect()
    before = set(sparse._PATTERNS.values())

    def job():
        pyr = Pyramid(rows=(2, 2, 3))
        rep = build_representation(pyr, generic_weight(pyr))
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
    rep = build_representation(weight.pyramid, weight)
    serial, forked = _serial_and_forked(rep, 2)
    assert forked == serial


def test_two_workers_report_the_witnesses_one_does(monkeypatch):
    # the bumped e_1^{(3)} of test_bumped_value_on_a_planned_pattern_fails
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(pyr, generic_weight(pyr))
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
    rep = build_representation(pyr, generic_weight(pyr))
    serial = _families(rep, 3, 1)
    parent, combine, dropped = os.getpid(), rep_mod._combine, tmp_path / "dropped"

    def faulty(dim, terms):
        if os.getpid() != parent:
            dropped.touch()
            if fault == "exit":
                os._exit(1)
            raise RuntimeError("a fault in the child")
        deadline = time.monotonic() + 30
        while not dropped.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return combine(dim, terms)

    monkeypatch.setattr(rep_mod, "_combine", faulty)
    assert _families(rep, 3, 2) == serial
    assert dropped.exists()
    _assert_no_child_left()


def test_a_family_that_raises_raises_as_in_a_serial_run(monkeypatch):
    # five families fail under the bumped e_1^{(3)}, and computing a
    # witness raises with a message of its own in each: whichever process
    # runs them, the first of them in report order, [e,f], raises
    pyr = Pyramid(rows=(2, 2, 3))
    rep = build_representation(pyr, generic_weight(pyr))
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
    rep = build_representation(pyr, generic_weight(pyr))
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
                                             len(RELATION_FAMILIES))
