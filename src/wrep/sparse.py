"""Exact sparse square matrices over the rationals.

Storage is dict-of-rows {row: {col: Fraction}} with zero entries and empty
rows never stored, so equal matrices have equal dicts.
"""

from fractions import Fraction

from .errors import SingularLead

# Reported by tools that print the arithmetic backend; there is only one.
KERNEL_BACKEND = "python"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparseMatrix:
    """Square matrix with Fraction entries, zero entries not stored."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim, rows=None, _clean=False):
        self.dim = dim
        if rows is None:
            self.rows = {}
        elif _clean:
            self.rows = rows
        else:
            self.rows = {}
            for i, row in rows.items():
                r = {j: Fraction(v) for j, v in row.items() if v}
                if r:
                    self.rows[i] = r

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from an iterable of (row, col, value), summing duplicates."""
        rows = {}
        for i, j, v in entries:
            row = rows.setdefault(i, {})
            row[j] = row.get(j, _ZERO) + Fraction(v)
        return cls(dim, rows)

    @classmethod
    def identity(cls, dim):
        return cls(dim, {i: {i: _ONE} for i in range(dim)}, _clean=True)

    @classmethod
    def diagonal(cls, values):
        values = [Fraction(v) for v in values]
        rows = {i: {i: v} for i, v in enumerate(values) if v}
        return cls(len(values), rows, _clean=True)

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def zero_like(self):
        return SparseMatrix(self.dim)

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, _ZERO)

    def entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def __add__(self, other):
        self._check(other)
        out = {i: dict(row) for i, row in self.rows.items()}
        for i, brow in other.rows.items():
            row = out.setdefault(i, {})
            for j, bv in brow.items():
                if j in row:
                    s = row[j] + bv
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                else:
                    row[j] = bv
            if not row:
                del out[i]
        return SparseMatrix(self.dim, out, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._scaled(Fraction(-1))

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return self._scaled(Fraction(other))
        self._check(other)
        brows = other.rows
        out = {}
        for i, arow in self.rows.items():
            acc = {}
            for k, av in arow.items():
                brow = brows.get(k)
                if not brow:
                    continue
                for j, bv in brow.items():
                    prod = av * bv
                    if j in acc:
                        acc[j] += prod
                    else:
                        acc[j] = prod
            acc = {j: v for j, v in acc.items() if v}
            if acc:
                out[i] = acc
        return SparseMatrix(self.dim, out, _clean=True)

    def __rmul__(self, other):
        return self._scaled(Fraction(other))

    def _scaled(self, c):
        if not c:
            return SparseMatrix(self.dim)
        rows = {i: {j: v * c for j, v in row.items()} for i, row in self.rows.items()}
        return SparseMatrix(self.dim, rows, _clean=True)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))

    def commutator(self, other):
        return self * other - other * self

    def scalar_part(self):
        """Return c if the matrix equals c * identity, else None."""
        diag = self.get(0, 0)
        if self.nnz() != (self.dim if diag else 0):
            return None
        for i in range(self.dim):
            if self.get(i, i) != diag:
                return None
        return diag

    def is_diagonal(self):
        return all(i == j for i, j, _ in self.entries())

    def inverse(self):
        """Exact inverse by Gaussian elimination; SingularLead if singular."""
        n = self.dim
        a = [[self.get(i, j) for j in range(n)] for i in range(n)]
        inv = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise SingularLead("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return SparseMatrix.from_entries(
            n, ((i, j, v) for i, row in enumerate(inv) for j, v in enumerate(row) if v)
        )

    def __repr__(self):
        return "SparseMatrix(dim=%d, nnz=%d)" % (self.dim, self.nnz())
