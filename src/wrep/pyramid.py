"""Pyramid combinatorics and the numeric parameters attached to a shape."""

from .errors import InvariantViolation, ShapeError


def _is_unimodal(q):
    k = 0
    while k + 1 < len(q) and q[k] <= q[k + 1]:
        k += 1
    while k + 1 < len(q) and q[k] >= q[k + 1]:
        k += 1
    return k == len(q) - 1


def rows_from_columns(q):
    """Row lengths p_i = #{j : q_j >= i}, sorted ascending."""
    q = tuple(int(x) for x in q)
    if not q or any(x <= 0 for x in q):
        raise ShapeError("columns must be a nonempty tuple of positive integers")
    if not _is_unimodal(q):
        raise ShapeError("column tuple %r is not unimodal" % (q,))
    n = max(q)
    p = [sum(1 for x in q if x >= i) for i in range(1, n + 1)]
    return tuple(sorted(p))


def columns_from_rows(p):
    """Left-justified column tuple of the pyramid with the given rows."""
    p = tuple(int(x) for x in p)
    if not p or any(x <= 0 for x in p):
        raise ShapeError("rows must be a nonempty tuple of positive integers")
    if any(p[i] > p[i + 1] for i in range(len(p) - 1)):
        raise ShapeError("row tuple %r is not nondecreasing" % (p,))
    return tuple(sum(1 for r in p if r >= j) for j in range(1, p[-1] + 1))


class Pyramid:
    """Unimodal column diagram; canonical form is the row tuple."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows=None, cols=None):
        if (rows is None) == (cols is None):
            raise ShapeError("give exactly one of rows= or cols=")
        if cols is not None:
            self.rows = rows_from_columns(cols)
            self.cols = tuple(int(x) for x in cols)
        else:
            self.rows = tuple(int(x) for x in rows)
            self.cols = columns_from_rows(rows)  # validates too

    @property
    def n(self):
        return len(self.rows)

    @property
    def m(self):
        return sum(self.rows)

    def p(self, i):
        """Row length p_i, 1-based; ShapeError outside 1..n."""
        if not 0 < i <= len(self.rows):
            raise ShapeError("row index %r is outside 1..%d" % (i, len(self.rows)))
        return self.rows[i - 1]

    def shift(self, i, j):
        """Shift matrix entry s_ij = max(p_j - p_i, 0): t_ij^{(r)} exists
        for r > s_ij, so e_i starts at s_{i,i+1} + 1 and f_i at
        s_{i+1,i} + 1 = 1."""
        return max(self.p(j) - self.p(i), 0)

    def row_block_size(self, r):
        """p_1 + ... + p_r."""
        return sum(self.rows[:r])

    def __eq__(self, other):
        return isinstance(other, Pyramid) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Pyramid(rows=%r)" % (self.rows,)


def gk_parameters(pyr):
    """(k, m) with k the brick leg-length sum, m the brick count.

    Evaluates both the column formula sum q_i(q_i-1)/2 and the row formula
    (n-1)p_1 + ... + p_{n-1}; they must agree.
    """
    k_cols = sum(q * (q - 1) // 2 for q in pyr.cols)
    n = pyr.n
    k_rows = sum((n - i) * pyr.rows[i - 1] for i in range(1, n + 1))
    if k_cols != k_rows:
        raise InvariantViolation(
            "leg-length count disagrees: columns give %d, rows give %d"
            % (k_cols, k_rows)
        )
    return k_cols, pyr.m


def pbw_variable_count(pyr):
    """Number of graded generators t_{ij}^{(r)}, s_ij < r <= p_j."""
    n = pyr.n
    return sum(pyr.p(j) - pyr.shift(i, j)
               for i in range(1, n + 1) for j in range(1, n + 1))


def gk_dimension(pyr):
    """sum_i (2(n-i)+1) p_i, cross-checked against the PBW variable count."""
    n = pyr.n
    dim = sum((2 * (n - i) + 1) * pyr.rows[i - 1] for i in range(1, n + 1))
    if dim != pbw_variable_count(pyr):
        raise InvariantViolation(
            "GK dimension %d disagrees with the PBW variable count %d"
            % (dim, pbw_variable_count(pyr))
        )
    return dim


def gamma_generator_count(pyr):
    """Number of x-variables: sum_r (p_1+...+p_r)."""
    return sum(pyr.row_block_size(r) for r in range(1, pyr.n + 1))


def shift_group_rank(pyr):
    """Rank of the free abelian shift group: sum_{r<n} (p_1+...+p_r)."""
    return sum(pyr.row_block_size(r) for r in range(1, pyr.n))
