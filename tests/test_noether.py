import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from wrep import noether
from wrep.arith import Terms
from wrep.cli import main
from wrep.errors import InvariantViolation, NotInvariant
from wrep.mpoly import MPoly, MRat
from wrep.noether import (
    ShiftAlgebraElement,
    WeylElement,
    check_shift_iso,
    check_weyl_relations,
    derivations,
    elementary_poly,
    falling,
    jacobian_inverse,
    rewrite_in_sigma,
    round_trip,
    shift_algebra_iso,
    symmetric_reduce,
    vandermonde,
    _sigmas,
    _snames,
    _xnames,
)


def euler(n):
    w = WeylElement(n, {})
    for i in range(n):
        w = w + WeylElement.x(n, i) * WeylElement.d(n, i)
    return w


def sum_d(n):
    w = WeylElement(n, {})
    for i in range(n):
        w = w + WeylElement.d(n, i)
    return w


def sum_x2d(n):
    w = WeylElement(n, {})
    for i in range(n):
        w = w + WeylElement.x(n, i, 2) * WeylElement.d(n, i)
    return w


def sum_d2(n):
    w = WeylElement(n, {})
    for i in range(n):
        w = w + WeylElement.d(n, i, 2)
    return w


def sum_xd2(n):
    w = WeylElement(n, {})
    for i in range(n):
        w = w + WeylElement.x(n, i) * WeylElement.d(n, i, 2)
    return w


def sum_d_squared(n):
    return sum_d(n) * sum_d(n)


def euler_squared(n):
    return euler(n) * euler(n)


def test_falling():
    assert falling(5, 3) == 60
    assert falling(2, 3) == 0
    assert falling(-1, 2) == 2
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_relations(n):
    assert check_weyl_relations(n) == n * n


def test_weyl_product_normal_order():
    n = 1
    d = WeylElement.d(n, 0)
    x = WeylElement.x(n, 0)
    assert d * x == x * d + WeylElement.const(n, 1)
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    lhs = d * d * x * x
    rhs = (x * x * d * d) + 4 * (x * d) + WeylElement.const(n, 2)
    assert lhs == rhs


def test_laurent_allowed():
    n = 1
    xinv = WeylElement(n, {(0,): MPoly(_xnames(n), {(-1,): 1})})
    assert WeylElement.x(n, 0) * xinv == WeylElement.const(n, 1)


def test_apply_to_poly():
    n = 2
    names = _xnames(n)
    p = MPoly.var(names, 0) ** 2 * MPoly.var(names, 1)
    out = euler(n).apply_to_poly(p)
    assert out == 3 * p


def test_symmetry_detection():
    assert euler(2).is_symmetric()
    assert not (WeylElement.x(2, 0) * WeylElement.d(2, 0)).is_symmetric()


@pytest.mark.parametrize("n", [2, 3])
def test_shift_iso(n, monkeypatch):
    calls = []
    iso = noether.shift_algebra_iso

    def counted(el):
        calls.append(el)
        return iso(el)

    monkeypatch.setattr(noether, "shift_algebra_iso", counted)
    # 3n generators squared, then n^2 twisted commutations
    assert check_shift_iso(n) == 9 * n * n + n * n
    # each generator is mapped once; each product and each side of a
    # commutation once more
    assert len(calls) == 3 * n + 9 * n * n + 2 * n * n


def _off_by_one_lattice(monkeypatch):
    """Make shift_algebra_iso map each term r(t) m to r(x d) x^(m + e_1)."""
    iso = noether.shift_algebra_iso

    def mutant(el):
        return iso(ShiftAlgebraElement(el.n, {(m[0] + 1,) + m[1:]: r
                                             for m, r in el.terms.items()}))

    monkeypatch.setattr(noether, "shift_algebra_iso", mutant)


def test_off_by_one_lattice_monomial_fails_shift_iso(monkeypatch, capsys):
    _off_by_one_lattice(monkeypatch)
    with pytest.raises(InvariantViolation, match="not multiplicative"):
        check_shift_iso(2)
    assert main(["noether-demo"]) == 1
    err = capsys.readouterr().err
    assert "FAIL shift-algebra embedding (n=2)" in err
    assert "PASS Weyl relations (n=2)" in err


def _recording(fn, calls):
    def recorded(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return recorded


@pytest.mark.parametrize("n", [2, 3])
def test_equality_across_powers_of_det(n, monkeypatch):
    w = euler(n)
    lifted = [w, w.lift(1), w.lift(2)]
    assert [u.k for u in lifted] == [0, 1, 2]
    calls = []
    monkeypatch.setattr(Terms, "__add__", _recording(Terms.__add__, calls))
    monkeypatch.setattr(Terms, "__neg__", _recording(Terms.__neg__, calls))
    for a in lifted:
        for b in lifted:
            assert a == b
    # the numerators are compared over a common power of det: no
    # difference is built
    assert calls == []
    monkeypatch.undo()
    for u in lifted:
        b, q = min(u.terms.items())
        e = min(q.terms)
        bumped = WeylElement(n, {**u.terms, b: q + MPoly(q.names, {e: 1})}, u.k)
        for a in lifted:
            assert bumped != a and a != bumped


def test_shift_algebra_twisted_product():
    n = 2
    s = ShiftAlgebraElement.sigma(n, 0)
    t = ShiftAlgebraElement.t(n, 0)
    lhs = s * t
    rhs = (t - ShiftAlgebraElement.const(n, 1)) * s
    assert lhs == rhs
    # image check: x_1 (x_1 d_1) = (x_1 d_1 - 1) x_1
    assert shift_algebra_iso(lhs) == shift_algebra_iso(rhs)


def test_jacobian_determinant():
    for n in (1, 2, 3):
        _, det = jacobian_inverse(n)
        delta = vandermonde(_xnames(n))
        assert det == delta or det == -delta
    # the 1 x 1 cofactor is the determinant of the empty minor
    assert jacobian_inverse(1)[0] == [[MPoly.const(_xnames(1), 1)]]


def test_symmetric_reduce_power_sum():
    names = _xnames(2)
    p = MPoly.var(names, 0) ** 2 + MPoly.var(names, 1) ** 2
    s = symmetric_reduce(p)
    sn = _snames(2)
    assert s == MPoly.var(sn, 0) ** 2 - 2 * MPoly.var(sn, 1)


def test_symmetric_reduce_rejects_asymmetric():
    names = _xnames(2)
    with pytest.raises(NotInvariant):
        symmetric_reduce(MPoly.var(names, 0))


def test_rewrite_rejects_asymmetric():
    with pytest.raises(NotInvariant):
        rewrite_in_sigma(WeylElement.d(2, 0))


def test_euler_rewrite_n2():
    data = rewrite_in_sigma(euler(2))
    sn = _snames(2)
    assert data[(1, 0)] == MPoly.var(sn, 0)
    assert data[(0, 1)] == 2 * MPoly.var(sn, 1)
    assert set(data) == {(1, 0), (0, 1)}


def test_sum_d_rewrite():
    # sum of derivatives -> sum_j (n - j + 1) sigma_{j-1} D_j
    for n in (2, 3):
        data = rewrite_in_sigma(sum_d(n))
        sn = _snames(n)
        for j in range(1, n + 1):
            beta = tuple(1 if i == j - 1 else 0 for i in range(n))
            want = MPoly.const(sn, n - j + 1) if j == 1 else \
                (n - j + 1) * MPoly.var(sn, j - 2)
            assert data[beta] == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make", [euler, sum_d, sum_x2d, sum_d2, sum_xd2,
                                  sum_d_squared, euler_squared])
def test_round_trips(n, make):
    round_trip(make(n))


def test_round_trips_build_the_derivations_once_per_n(monkeypatch):
    calls = []
    inverse = noether.jacobian_inverse

    def counted(n):
        calls.append(n)
        return inverse(n)

    monkeypatch.setattr(noether, "jacobian_inverse", counted)
    noether._sigma_derivations.cache_clear()
    noether._det_power.cache_clear()
    round_trip(euler(3))
    round_trip(sum_d2(3))
    # D_1 .. D_n and det J come from one jacobian_inverse(3)
    assert calls == [3]


def _bump_first_part(monkeypatch):
    """Make rewrite_in_sigma add 1 to its lowest sigma-coefficient."""
    rewrite = noether.rewrite_in_sigma

    def bumped(w):
        data = rewrite(w)
        beta = min(data)
        data[beta] = data[beta] + 1
        return data

    monkeypatch.setattr(noether, "rewrite_in_sigma", bumped)


@pytest.mark.parametrize("make", [euler, sum_d2])
def test_bumped_sigma_coefficient_fails_round_trip(monkeypatch, make):
    _bump_first_part(monkeypatch)
    with pytest.raises(InvariantViolation, match="round trip"):
        round_trip(make(3))


def test_bumped_sigma_coefficient_fails_noether_demo(monkeypatch, capsys):
    _bump_first_part(monkeypatch)
    assert main(["noether-demo"]) == 1
    err = capsys.readouterr().err
    assert "FAIL symmetric rewrite round trip: euler (n=2)" in err
    assert "PASS Weyl relations (n=2)" in err


def test_ratop_composition():
    n = 2
    op = euler(n).lift(1)
    sq = op * op
    want = euler(n) * euler(n)
    assert sq == want


def _random_ratop(rng, n, k):
    names = _xnames(n)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        b = tuple(rng.randint(0, 1) for _ in range(n))
        q = MPoly(names, {tuple(rng.randint(0, 2) for _ in range(n)):
                          rng.randint(-3, 3) for _ in range(3)})
        terms[b] = terms[b] + q if b in terms else q
    return WeylElement(n, terms, k)


def _mrat_compose(a, b):
    """Leibniz composition with every coefficient an MRat: the reference
    for WeylElement's quotient rule over powers of det."""
    n = a.n
    det = jacobian_inverse(n)[1]
    out = {}
    for b1, q1 in a.terms.items():
        c1 = MRat(q1, det ** a.k)
        for b2, q2 in b.terms.items():
            for t in product(*(range(x + 1) for x in b1)):
                g = MRat(q2, det ** b.k)
                factor = 1
                for i in range(n):
                    factor *= comb(b1[i], t[i])
                    for _ in range(t[i]):
                        g = g.derivative(i)
                key = tuple(b1[i] - t[i] + b2[i] for i in range(n))
                term = c1 * g * factor
                out[key] = out[key] + term if key in out else term
    return {key: c for key, c in out.items() if c}


def test_ratop_composition_against_mrat_oracle():
    # n = 2: at n = 3 the MRat side costs about 1 s a sample; the
    # second-order round trips cover the quotient rule there
    n = 2
    rng = random.Random(n)
    det = jacobian_inverse(n)[1]
    for _ in range(10):
        # a right factor over det^1 takes the quotient rule wherever the
        # left one differentiates it
        a = _random_ratop(rng, n, rng.randint(0, 1))
        b = _random_ratop(rng, n, 1)
        got = a * b
        want = _mrat_compose(a, b)
        assert set(got.terms) == set(want)
        for key, q in got.terms.items():
            # q / det^k == num / den, cross-multiplied
            assert q * want[key].den == want[key].num * det ** got.k


def _weyl_pair_failures(D, n):
    """The (i, j) with [D_i, D_j] != 0 and those with [D_i, sigma_j] !=
    delta_ij: d/dsigma_j and sigma_j are Weyl pairs."""
    sigma = [WeylElement(n, {(0,) * n: s}) for s in _sigmas(n)]
    zero = WeylElement(n)
    dd = {(i, j) for i in range(n) for j in range(n)
          if D[i].commutator(D[j]) != zero}
    ds = {(i, j) for i in range(n) for j in range(n)
          if D[i].commutator(sigma[j]) != WeylElement.const(n, int(i == j))}
    return dd, ds


@pytest.mark.parametrize("n", [2, 3])
def test_pushed_forward_derivations_are_weyl_pairs(n):
    assert _weyl_pair_failures(derivations(jacobian_inverse(n)[0]), n) == (set(), set())


@pytest.mark.parametrize("n", [2, 3])
def test_bumped_cofactor_breaks_both_weyl_pair_families(n):
    adj = [list(row) for row in jacobian_inverse(n)[0]]
    adj[0][n - 1] = adj[0][n - 1] + 1
    dd, ds = _weyl_pair_failures(derivations(adj), n)
    assert dd and ds


def test_laurent_only_over_det_power_zero():
    n = 1
    laurent = {(0,): MPoly(_xnames(n), {(-1,): 1})}
    assert WeylElement(n, laurent) * WeylElement.x(n, 0) == WeylElement.const(n, 1)
    with pytest.raises(ValueError, match="Laurent"):
        WeylElement(n, laurent, 1)


def test_symmetry_over_det_power():
    # det J is alternating, so a symmetric operator over det^1 has an
    # alternating numerator
    assert euler(2).lift(1).is_symmetric()
    assert euler(3).lift(1).is_symmetric()
    assert not (WeylElement.x(2, 0) * WeylElement.d(2, 0)).lift(1).is_symmetric()
    with pytest.raises(ValueError, match="det\\^0"):
        euler(2).lift(1).apply_to_poly(MPoly.var(_xnames(2), 0))
