from fractions import Fraction

import pytest

from wrep.errors import NotInvariant
from wrep.mpoly import MPoly
from wrep.noether import (
    RatOp,
    ShiftAlgebraElement,
    WeylElement,
    check_shift_iso,
    check_weyl_relations,
    elementary_poly,
    falling,
    jacobian_inverse,
    rewrite_in_sigma,
    round_trip,
    shift_algebra_iso,
    symmetric_reduce,
    vandermonde,
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
    xinv = WeylElement(n, {((-1,), (0,)): Fraction(1)})
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
def test_shift_iso(n):
    assert check_shift_iso(n) > 0


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
    assert jacobian_inverse(1)[0] == [[1]]


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
    assert data.parts[(1, 0)] == (MPoly.var(sn, 0), 0)
    assert data.parts[(0, 1)] == (2 * MPoly.var(sn, 1), 0)
    assert set(data.parts) == {(1, 0), (0, 1)}


def test_sum_d_rewrite():
    # sum of derivatives -> sum_j (n - j + 1) sigma_{j-1} D_j
    for n in (2, 3):
        data = rewrite_in_sigma(sum_d(n))
        sn = _snames(n)
        for j in range(1, n + 1):
            beta = tuple(1 if i == j - 1 else 0 for i in range(n))
            want = MPoly.const(sn, n - j + 1) if j == 1 else \
                (n - j + 1) * MPoly.var(sn, j - 2)
            assert data.parts[beta] == (want, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make", [euler, sum_d, sum_x2d])
def test_round_trips(n, make):
    round_trip(make(n))


def test_ratop_composition():
    n = 2
    op = RatOp.from_weyl(euler(n))
    sq = op * op
    want = RatOp.from_weyl(euler(n) * euler(n))
    assert sq == want
