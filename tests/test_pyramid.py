import pytest
from hypothesis import given, strategies as st

from wrep.errors import ShapeError
from wrep.grord import variable_slots
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


def test_row_index_outside_the_pyramid_is_a_shape_error():
    # rows[i - 1] would read p_n at i = 0 and index past the end at n + 1
    pyr = Pyramid(rows=(1, 2, 2))
    assert [pyr.p(i) for i in (1, 2, 3)] == [1, 2, 2]
    for i in (-1, 0, 4):
        with pytest.raises(ShapeError, match="outside 1..3"):
            pyr.p(i)
    for i, j in ((0, 1), (1, 0), (4, 2)):
        with pytest.raises(ShapeError):
            pyr.shift(i, j)


@given(unimodal_columns())
def test_parameter_formulas_agree(cols):
    pyr = Pyramid(cols=cols)
    k, m = gk_parameters(pyr)
    assert m == sum(cols)
    assert k == sum(q * (q - 1) // 2 for q in cols)
    assert gk_dimension(pyr) == pbw_variable_count(pyr)
    assert gk_dimension(pyr) == gamma_generator_count(pyr) + shift_group_rank(pyr)


def _pyramids_up_to(boxes):
    """Every pyramid with at most the given number of boxes."""
    def rows(total, least):
        yield ()
        for p in range(least, total + 1):
            for rest in rows(total - p, p):
                yield (p,) + rest
    return [Pyramid(rows=r) for r in rows(boxes, 1) if r]


def test_one_shift_matrix():
    pyramids = _pyramids_up_to(7)
    assert len(pyramids) == 44  # the partitions of 1, ..., 7
    for pyr in pyramids:
        n = pyr.n
        for i in range(1, n + 1):
            assert pyr.shift(i, i) == 0
            assert all(pyr.shift(i, j) == 0 for j in range(1, i))
            for j in range(i, n + 1):
                for k in range(j, n + 1):
                    assert pyr.shift(i, j) + pyr.shift(j, k) == pyr.shift(i, k)
        assert len(variable_slots(pyr)) == pbw_variable_count(pyr) == gk_dimension(pyr)
