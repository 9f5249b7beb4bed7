import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest

import wrep.gamma as gamma_mod
from wrep.arith import UniPoly
from wrep.errors import InvariantViolation
from wrep.gamma import (
    character_of,
    check_fiber_bound,
    elementary_symmetric,
    fiber_bound,
    fibers,
    gamma_coefficients,
    gamma_commutes,
)
from wrep.patterns import generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import build_representation
from wrep.sparse import SparseMatrix


@pytest.fixture(scope="module")
def reps():
    out = {}
    for rows in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        pyr = Pyramid(rows=rows)
        out[rows] = build_representation(pyr, generic_weight(pyr))
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
    rep = build_representation(pyr, generic_weight(pyr))
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


def test_fiber_bound():
    assert fiber_bound(Pyramid(rows=(1, 2, 2))) == 6
    assert fiber_bound(Pyramid(rows=(2, 2))) == 2
    for rows in [(1, 1), (2, 2), (1, 2, 2)]:
        pyr = Pyramid(rows=rows)
        rep = build_representation(pyr, generic_weight(pyr))
        fib, _ = fibers(rep)
        biggest, ok = check_fiber_bound(pyr, fib)
        assert ok and biggest == 1
