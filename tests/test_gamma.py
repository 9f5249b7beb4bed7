import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from oracles import character_of, fraction_character_reader, fraction_fibers
from random_weights import MULTI_DENOMINATOR, small_pyramid_weights

import wrep.gamma as gamma_mod
from wrep.arith import UniPoly
from wrep.errors import InvariantViolation
from wrep.gamma import (
    check_fiber_bound,
    elementary_symmetric,
    fiber_bound,
    fibers,
    gamma_coefficients,
    gamma_commutes,
)
from wrep.patterns import enumerate_patterns, generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import build_representation
from wrep.sparse import SparseMatrix


@pytest.fixture(scope="module")
def reps():
    out = {}
    for rows in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        pyr = Pyramid(rows=rows)
        out[rows] = build_representation(enumerate_patterns(generic_weight(pyr)))
    return out


def test_elementary_symmetric():
    vals = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(vals) == [1, 6, 11, 6]


def test_elementary_symmetric_against_subset_sums():
    rng = random.Random(7)
    for _ in range(40):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(0, 6))]
        want = []
        for k in range(len(vals) + 1):
            total = Fraction(0)
            for subset in combinations(vals, k):
                term = Fraction(1)
                for v in subset:
                    term *= v
                total += term
            want.append(total)
        assert elementary_symmetric(vals) == want


def test_elementary_symmetric_keeps_the_values_type():
    # ints give ints, as UniPoly.from_roots does; e_0 is the int 1 always
    ints = elementary_symmetric([4, -3, 7])
    assert ints == [1, 8, -5, -84]
    assert all(type(e) is int for e in ints)
    fracs = elementary_symmetric([Fraction(1, 2), Fraction(-3), Fraction(5, 7)])
    assert fracs == [1, Fraction(-25, 14), Fraction(-23, 7), Fraction(-15, 14)]
    assert type(fracs[0]) is int
    assert all(type(e) is Fraction for e in fracs[1:])
    assert elementary_symmetric([]) == [1]


def test_coefficient_count(reps):
    rep = reps[(1, 2)]
    # one generator per (r, k): p_1 + (p_1 + p_2) = 1 + 3
    assert len(gamma_coefficients(rep)) == 4


def test_commutativity(reps):
    for rep in reps.values():
        assert gamma_commutes(rep)


def test_off_diagonal_coefficient_detected(reps):
    rep = reps[(2, 2)]
    mutated = copy.copy(rep)
    mutated.A = dict(rep.A)
    coeffs = list(rep.A[2].coeffs)
    coeffs[1] = coeffs[1] + SparseMatrix.from_entries(rep.dim, [(0, 1, 1)])
    mutated.A[2] = UniPoly(coeffs)
    assert not gamma_commutes(mutated)
    assert gamma_commutes(rep)


def test_character_consistency(reps):
    for rep in reps.values():
        for mu in rep.basis:
            chi = character_of(rep, mu)  # raises on mismatch
            assert all(v is not None for v in chi.values())


def test_singleton_fibers(reps):
    for rep in reps.values():
        _, singl = fibers(rep)
        assert singl


def test_fibers_make_one_symmetric_function_list_per_distinct_row(monkeypatch):
    # (2,3,3) has 128 patterns but 9, 32 and 1 distinct l-value rows in
    # rows 1, 2 and 3: one e_k list per distinct row of each row index
    calls = []
    esym = gamma_mod.elementary_symmetric

    def counted(values):
        calls.append(values)
        return esym(values)

    monkeypatch.setattr(gamma_mod, "elementary_symmetric", counted)
    pyr = Pyramid(rows=(2, 3, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    fib, singl = fibers(rep)
    assert rep.dim == 128 and len(fib) == 128 and singl
    assert len(calls) == 9 + 32 + 1


def test_character_mismatch_detected(reps):
    # every pattern shares the top row, so its e_k are computed once; the
    # bumped entry at the last pattern is found only by the per-pattern
    # cross-check
    rep = reps[(1, 2)]
    mutated = copy.copy(rep)
    mutated.A = dict(rep.A)
    coeffs = list(rep.A[2].coeffs)
    coeffs[0] = coeffs[0] + SparseMatrix.diagonal([0] * (rep.dim - 1) + [1])
    mutated.A[2] = UniPoly(coeffs)
    with pytest.raises(InvariantViolation, match="character mismatch"):
        fibers(mutated)
    fibers(rep)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_pyramid_weights())
@example(generic_weight(Pyramid(rows=(2, 3, 3))))
@example(MULTI_DENOMINATOR)
def test_integer_characters_equal_the_fraction_oracle(weight):
    # the value at a_r^{(k)} is the integer character entry over q^k, and
    # the integer keys partition the basis as the Fraction characters do
    rep = build_representation(enumerate_patterns(weight))
    order = sorted(gamma_mod.gamma_coefficients(rep))
    integer = gamma_mod._character_reader(rep)
    oracle = fraction_character_reader(rep)
    for mu in rep.basis:
        chi = integer(mu)
        assert all(type(v) is int for v in chi)
        want = oracle(mu)
        assert {rk: Fraction(v, rep.q ** rk[1]) for rk, v in zip(order, chi)} == want
    fib, singl = fibers(rep)
    assert {frozenset(mu.key() for mu in v) for v in fib.values()} == fraction_fibers(rep)
    assert singl


def test_fibers_fraction_work_budget(monkeypatch):
    # fibers on the built (2,3,3) representation does integer work only;
    # the Fraction reader made 1,458 Fraction operations and 3,840
    # Fraction __eq__ and __hash__ calls here
    pyr = Pyramid(rows=(2, 3, 3))
    rep = build_representation(enumerate_patterns(generic_weight(pyr)))
    calls = {"arithmetic": 0, "compare": 0}

    def counted(kind, op):
        def call(*args):
            calls[kind] += 1
            return op(*args)
        return call

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(Fraction, name, counted("arithmetic", getattr(Fraction, name)))
    for name in ("__eq__", "__hash__"):
        monkeypatch.setattr(Fraction, name, counted("compare", getattr(Fraction, name)))
    fib, singl = fibers(rep)
    monkeypatch.undo()
    assert len(fib) == 128 and singl
    assert calls == {"arithmetic": 0, "compare": 0}


def test_general_coefficient_is_read_on_its_diagonal(reps):
    # a_2^{(1)} made general after the build: an off-diagonal entry alone
    # leaves its diagonal, so the characters and fibers stand (the
    # commutation check is what sees it); a changed diagonal entry of the
    # general matrix is a character mismatch, not a TypeError or
    # AttributeError
    rep = reps[(2, 2)]
    want, _ = fibers(rep)
    for bump, raises in (([(0, 1, 1)], False), ([(0, 1, 1), (3, 3, 1)], True)):
        mutated = copy.copy(rep)
        mutated.A = dict(rep.A)
        coeffs = list(rep.A[2].coeffs)
        coeffs[-2] = coeffs[-2] + SparseMatrix.from_entries(rep.dim, bump)
        assert not coeffs[-2].is_diagonal()
        mutated.A[2] = UniPoly(coeffs)
        assert not gamma_commutes(mutated)
        if raises:
            with pytest.raises(InvariantViolation,
                               match=r"character mismatch at pattern .*, a_2\^\{\(1\)\}"):
                fibers(mutated)
        else:
            assert fibers(mutated)[0] == want


def test_entry_denominator_outside_q_detected(reps):
    # q * l must be an integer at every entry; with q too small for the
    # 1/3 entries of (1,2) the reader stops before any comparison
    rep = reps[(1, 2)]
    mutated = copy.copy(rep)
    mutated.q = rep.q // 3
    with pytest.raises(InvariantViolation, match="does not divide q = 4"):
        fibers(mutated)


def test_fiber_bound():
    assert fiber_bound(Pyramid(rows=(1, 2, 2))) == 6
    assert fiber_bound(Pyramid(rows=(2, 2))) == 2
    for rows in [(1, 1), (2, 2), (1, 2, 2)]:
        pyr = Pyramid(rows=rows)
        rep = build_representation(enumerate_patterns(generic_weight(pyr)))
        fib, _ = fibers(rep)
        biggest, ok = check_fiber_bound(pyr, fib)
        assert ok and biggest == 1
