from fractions import Fraction

import pytest

from wrep.errors import NotInvariant
from wrep.galois import (
    GaloisModel,
    SkewElement,
    act_on_basis,
    cross_check,
    orbit_sum,
    orbit_sum_identity,
    t_image_a,
    t_image_b,
    t_image_c,
)
from wrep.mpoly import MPoly, MRat
from wrep.patterns import HighestWeight, generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import build_representation
from wrep.sparse import SparseMatrix


def gl2():
    pyr = Pyramid(rows=(1, 1))
    w = HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])
    return build_representation(pyr, w)


def test_variable_order():
    model = GaloisModel(Pyramid(rows=(1, 2)))
    assert model.names[0] == "u"
    assert model.names[1] == "x_1_1_1"
    assert set(model.delta_slots) == {(1, 1, 1)}


def test_gl2_raising_coefficient():
    rep = gl2()
    model = GaloisModel(rep.pyramid)
    img = t_image_b(model, 1)
    assert len(img.terms) == 1
    ((d, a),) = img.terms.items()
    assert d == (1,)
    # X^+ = -(x_{2,1} - x_{1,1})(x_{2,2} - x_{1,1}); at the lowest pattern
    # the l-values are x_11 = 1/2, x_21 = 5/2, x_22 = -1/2, giving 2
    val = a.evaluate([Fraction(0), Fraction(1, 2), Fraction(5, 2), Fraction(-1, 2)])
    assert val == 2


def test_invariance_of_images():
    model = GaloisModel(Pyramid(rows=(1, 2)))
    assert t_image_a(model, 2).is_invariant()
    assert t_image_b(model, 1).is_invariant()
    assert t_image_c(model, 1).is_invariant()


def test_non_invariant_detected():
    model = GaloisModel(Pyramid(rows=(2, 2)))
    lone = SkewElement(
        model, {model.zero_delta: MRat.from_poly(model.x(1, 1, 1))}
    )
    assert not lone.is_invariant()


def test_orbit_sum_identity():
    for rows in [(1, 2), (2, 2), (1, 1, 1)]:
        model = GaloisModel(Pyramid(rows=rows))
        for r in range(1, model.pyramid.n):
            assert orbit_sum_identity(model, r)


def test_orbit_sum_ill_defined():
    model = GaloisModel(Pyramid(rows=(2, 2)))
    # coefficient not invariant under the stabilizer of the zero shift
    with pytest.raises(NotInvariant):
        orbit_sum(model, MRat.from_poly(model.x(1, 1, 1)), model.zero_delta)


def test_action_matches_matrices_gl2():
    rep = gl2()
    model = GaloisModel(rep.pyramid)
    zero = SparseMatrix(rep.dim)
    for u0 in (0, 7, -3):
        got = act_on_basis(model, rep, t_image_b(model, 1), u0)
        assert got == rep.B[1](u0, zero)
        got = act_on_basis(model, rep, t_image_a(model, 2), u0)
        assert got == rep.A[2](u0, zero)


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2)])
def test_cross_check(rows):
    pyr = Pyramid(rows=rows)
    rep = build_representation(pyr, generic_weight(pyr))
    assert cross_check(rep) >= 3 * (2 * pyr.n - 1)
