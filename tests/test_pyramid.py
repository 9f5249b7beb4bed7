import pytest
from hypothesis import given, strategies as st

from wrep.errors import ShapeError
from wrep.pyramid import (
    Pyramid,
    columns_from_rows,
    gamma_generator_count,
    gk_dimension,
    gk_parameters,
    pbw_variable_count,
    rows_from_columns,
    shift_group_rank,
)


def unimodal_columns():
    return st.lists(st.integers(1, 6), min_size=1, max_size=6).map(
        lambda xs: tuple(sorted(xs[: len(xs) // 2 + 1]) + sorted(xs[len(xs) // 2 + 1 :], reverse=True))
    )


def test_reference_shape():
    pyr = Pyramid(cols=(1, 3, 4, 2, 1))
    assert pyr.rows == (1, 2, 3, 5)
    assert gk_parameters(pyr) == (10, 11)


def test_row_column_duality():
    assert rows_from_columns((2, 2)) == (2, 2)
    assert columns_from_rows((1, 2, 2)) == (3, 2)
    assert rows_from_columns((3, 2)) == (1, 2, 2)


def test_shape_errors():
    with pytest.raises(ShapeError):
        Pyramid(cols=(1, 3, 1, 3))
    with pytest.raises(ShapeError):
        Pyramid(rows=(2, 1))
    with pytest.raises(ShapeError):
        Pyramid()
    with pytest.raises(ShapeError):
        Pyramid(rows=(1,), cols=(1,))


@given(unimodal_columns())
def test_parameter_formulas_agree(cols):
    pyr = Pyramid(cols=cols)
    k, m = gk_parameters(pyr)
    assert m == sum(cols)
    assert k == sum(q * (q - 1) // 2 for q in cols)
    assert gk_dimension(pyr) == pbw_variable_count(pyr)
    assert gk_dimension(pyr) == gamma_generator_count(pyr) + shift_group_rank(pyr)
