"""Acceptance suite: one test per criterion, each printing a single
pass/fail line.  All checks are exact (no tolerances)."""

import json
import random
from fractions import Fraction

import pytest

from wrep.gamma import check_fiber_bound, fiber_bound, fibers, gamma_commutes
from wrep.patterns import (
    HighestWeight,
    enumerate_patterns,
    generic_weight,
    weyl_dimension,
)
from wrep.pyramid import (
    Pyramid,
    gamma_generator_count,
    gk_dimension,
    gk_parameters,
    pbw_variable_count,
    shift_group_rank,
)
from wrep.rep import build_representation, generator_series, verify_defining_relations

REFERENCE_SHAPES = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2)]

_REPS = {}


def reference_rep(rows):
    if rows not in _REPS:
        pyr = Pyramid(rows=rows)
        _REPS[rows] = build_representation(pyr, generic_weight(pyr))
    return _REPS[rows]


def emit(num, ok, detail):
    line = "criterion %2d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_defining_relations():
    failures = []
    total = 0
    for rows in REFERENCE_SHAPES:
        rep = reference_rep(rows)
        report = verify_defining_relations(rep, 6)
        total += report.total_instances()
        names = [n for n, _, _ in report.families]
        if "d_1 vanishing" not in names:
            failures.append("%r: missing quotient check" % (rows,))
        for name, _, fails in report.families:
            if fails:
                failures.append("%r %s: %s" % (rows, name, fails[0]))
    emit(1, not failures,
         failures[0] if failures
         else "defining relations + quotient condition, R=6, "
              "%d instances over %d shapes" % (total, len(REFERENCE_SHAPES)))


def test_criterion_02_dimension_oracle():
    problems = []
    pyr = Pyramid(rows=(1, 1, 1))
    d = len(enumerate_patterns(HighestWeight(pyr, [[2], [1], [0]])))
    if d != 8:
        problems.append("one-column (2;1;0) gave %d, expected 8" % d)
    pyr = Pyramid(rows=(1, 1))
    d = len(enumerate_patterns(
        HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])))
    if d != 3:
        problems.append("(5/2;1/2) gave %d, expected 3" % d)
    for top in ([3, 1, 0], [2, 2, 0], [4, 0]):
        pyr = Pyramid(rows=(1,) * len(top))
        d = len(enumerate_patterns(HighestWeight(pyr, [[a] for a in top])))
        if d != weyl_dimension(top):
            problems.append("one-column %r: %d vs %d"
                            % (top, d, weyl_dimension(top)))
    emit(2, not problems,
         problems[0] if problems else "pattern counts match the dimension oracles")


def _random_unimodal_columns(rng):
    length = rng.randint(1, 6)
    vals = sorted(rng.randint(1, 6) for _ in range(length))
    peak = rng.randint(0, length - 1)
    rising = sorted(vals[: peak + 1])
    falling = sorted(vals[peak + 1:], reverse=True)
    return tuple(rising + falling)


def test_criterion_03_parameter_formulas():
    rng = random.Random(20260823)
    problems = []
    for _ in range(100):
        cols = _random_unimodal_columns(rng)
        pyr = Pyramid(cols=cols)
        k, m = gk_parameters(pyr)  # raises on formula disagreement
        if m != sum(cols) or k != sum(q * (q - 1) // 2 for q in cols):
            problems.append("cols %r gave (%d,%d)" % (cols, k, m))
    if gk_parameters(Pyramid(cols=(1, 3, 4, 2, 1))) != (10, 11):
        problems.append("reference pyramid cols (1,3,4,2,1) != (10,11)")
    emit(3, not problems,
         problems[0] if problems
         else "row/column parameter formulas agree on 100 random pyramids "
              "and the reference shape")


def test_criterion_04_dimension_identities():
    rng = random.Random(99)
    problems = []
    shapes = [Pyramid(rows=r) for r in REFERENCE_SHAPES]
    shapes += [Pyramid(cols=_random_unimodal_columns(rng)) for _ in range(50)]
    for pyr in shapes:
        gk = gk_dimension(pyr)  # raises if != PBW count
        split = gamma_generator_count(pyr) + shift_group_rank(pyr)
        if gk != pbw_variable_count(pyr) or gk != split:
            problems.append("rows %r: gk %d, pbw %d, split %d"
                            % (pyr.rows, gk, pbw_variable_count(pyr), split))
    emit(4, not problems,
         problems[0] if problems
         else "growth dimension = generator count = diagonal + shift ranks")


def test_criterion_05_diagonal_subalgebra():
    problems = []
    for rows in REFERENCE_SHAPES:
        rep = reference_rep(rows)
        if not gamma_commutes(rep):
            problems.append("%r: coefficients do not commute" % (rows,))
        _, singl = fibers(rep)  # character_of raises on inconsistency
        if not singl:
            problems.append("%r: non-singleton fiber" % (rows,))
        biggest, ok = check_fiber_bound(rep)
        if not ok:
            problems.append("%r: fiber %d exceeds bound %d"
                            % (rows, biggest, fiber_bound(rep.pyramid)))
    emit(5, not problems,
         problems[0] if problems
         else "commutativity, character consistency, singleton fibers, "
              "factorial bound on all shapes")


def test_criterion_06_central_elements():
    from wrep.center import (build_t_matrix, central_coefficients,
                             column_determinant, quasideterminant_check)

    problems = []
    for rows in REFERENCE_SHAPES:
        rep = reference_rep(rows)
        pyr = rep.pyramid
        gens = generator_series(rep, max(pyr.rows) + 3)
        T = build_t_matrix(gens)
        cdet = column_determinant(T, pyr.n)
        try:
            scalars = central_coefficients(rep, cdet)
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            problems.append("%r: %s" % (rows, exc))
            continue
        if len(scalars) != pyr.row_block_size(pyr.n):
            problems.append("%r: wrong number of central scalars" % (rows,))
        if pyr.n == 2:
            if not quasideterminant_check(T, cdet):
                problems.append("%r: quasideterminant shift mismatch" % (rows,))
    emit(6, not problems,
         problems[0] if problems
         else "determinant coefficients act as central scalars; two-row "
              "shift identity holds")


def test_criterion_07_galois_cross_check():
    from wrep.galois import cross_check

    problems = []
    checks = 0
    for rows in REFERENCE_SHAPES:
        rep = reference_rep(rows)
        try:
            count = cross_check(rep, (0, 7, -3))
        except Exception as exc:  # noqa: BLE001
            problems.append("%r: %s" % (rows, exc))
            continue
        if count < 3:
            problems.append("%r: only %d comparisons" % (rows, count))
        checks += count
    emit(7, not problems,
         problems[0] if problems
         else "skew-model action matches the matrices at 3 points per "
              "generator family (%d comparisons)" % checks)


def test_criterion_08_leading_monomials():
    from wrep.grord import verify_leading_claims

    problems = []
    count = 0
    for rows in [(1, 2), (2, 2), (1, 1, 1), (1, 2, 2)]:
        try:
            count += verify_leading_claims(Pyramid(rows=rows))
        except Exception as exc:  # noqa: BLE001
            problems.append("%r: %s" % (rows, exc))
    emit(8, not problems,
         problems[0] if problems
         else "weighted leading monomials verified for %d coefficient "
              "polynomials" % count)


def test_criterion_09_symmetric_operators():
    from wrep.noether import (WeylElement, check_shift_iso,
                              check_weyl_relations, round_trip)

    problems = []
    for n in (2, 3):
        try:
            check_weyl_relations(n)
            check_shift_iso(n)
        except Exception as exc:  # noqa: BLE001
            problems.append("n=%d relations: %s" % (n, exc))
        ops = []
        e = WeylElement(n, {})
        sd = WeylElement(n, {})
        sx = WeylElement(n, {})
        for i in range(n):
            e = e + WeylElement.x(n, i) * WeylElement.d(n, i)
            sd = sd + WeylElement.d(n, i)
            sx = sx + WeylElement.x(n, i, 2) * WeylElement.d(n, i)
        ops = [("euler", e), ("sum_d", sd), ("sum_x2d", sx)]
        for label, op in ops:
            try:
                round_trip(op)
            except Exception as exc:  # noqa: BLE001
                problems.append("n=%d %s: %s" % (n, label, exc))
    emit(9, not problems,
         problems[0] if problems
         else "algebra relation checks and symmetric-rewrite round trips "
              "at n=2,3")


def test_criterion_10_cli_determinism(tmp_path):
    from wrep.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[pyramid]\nrows = 1 2\n\n[run]\nrmax = 3\npoints = 0 7 -3\n"
    )
    records = []
    ok = True
    for cmd in ("params", "verify", "fibers", "build"):
        outs = []
        for run_idx in (0, 1):
            out = tmp_path / ("%s_%d.json" % (cmd, run_idx))
            code = main([cmd, "--config", str(cfg), "--out", str(out)])
            if code != 0:
                ok = False
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            ok = False
        records.append(cmd)
        json.loads(outs[0])  # well-formed
    emit(10, ok, "byte-identical JSON records for %s" % ", ".join(records))
