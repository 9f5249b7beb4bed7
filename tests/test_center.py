from fractions import Fraction

import pytest

from wrep.center import (
    build_t_matrix,
    cdet_vs_top_row,
    central_coefficients,
    column_determinant,
    quasideterminant_check,
)
from wrep.errors import InvariantViolation
from wrep.patterns import HighestWeight, generic_weight
from wrep.pyramid import Pyramid
from wrep.rep import build_representation, generator_series
from wrep.sparse import SparseMatrix


def make(rows, weight=None):
    """Representation, T matrix and column determinant for a shape."""
    pyr = Pyramid(rows=rows)
    w = weight if weight is not None else generic_weight(pyr)
    rep = build_representation(pyr, w)
    T = build_t_matrix(generator_series(rep, max(pyr.rows) + 3))
    return rep, T, column_determinant(T, pyr.n)


def test_t_matrix_polynomial_degrees():
    rep, T, _ = make((1, 2))
    assert T[(1, 1)].degree == 1
    assert T[(2, 2)].degree == 2
    # diagonal entries are monic
    assert T[(1, 1)].coeffs[-1] == SparseMatrix.identity(rep.dim)


@pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2), (1, 1, 1)])
def test_central_scalars(rows):
    rep, _, cdet = make(rows)
    scalars = central_coefficients(rep, cdet)
    assert len(scalars) == rep.pyramid.row_block_size(rep.n)
    assert cdet.coeffs[-1] == SparseMatrix.identity(rep.dim)


def test_gl2_quasideterminant():
    pyr = Pyramid(rows=(1, 1))
    w = HighestWeight(pyr, [[Fraction(5, 2)], [Fraction(1, 2)]])
    rep, T, cdet = make((1, 1), w)
    assert quasideterminant_check(T, cdet)
    # for the one-column weight, cdet(u) = (u + 5/2)(u - 1/2) acts as A_2
    assert cdet == rep.A[2]


@pytest.mark.parametrize("rows", [(1, 2), (2, 2)])
def test_quasideterminant_two_rows(rows):
    _, T, cdet = make(rows)
    assert quasideterminant_check(T, cdet)


def test_ratio_recorded():
    rep, _, cdet = make((1, 2))
    out = cdet_vs_top_row(rep, cdet)
    assert len(out) == 3
    for u0, cval, aval, ratio in out:
        assert cval is not None and aval is not None
        # observed (not asserted in the library): the ratio is 1 here
        assert ratio == 1


def test_column_determinant_n1():
    _, T, _ = make((1, 1))
    one = column_determinant({(1, 1): T[(1, 1)]}, 1)
    assert one == T[(1, 1)]


def test_off_diagonal_cdet_coefficient_detected():
    rep, _, cdet = make((1, 2))
    lower = cdet.coeffs[0]
    cdet.coeffs[0] = lower + SparseMatrix.from_entries(rep.dim, [(0, 1, 1)])
    with pytest.raises(InvariantViolation, match="not scalar"):
        central_coefficients(rep, cdet)
