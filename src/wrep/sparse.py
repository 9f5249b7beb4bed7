"""Exact sparse square matrices over the rationals.

Storage is dict-of-rows {row: {col: Fraction}} with zero entries and empty
rows never stored, so equal matrices have equal dicts.  Scaled sums of
matrices, products and commutators are summed in integer
numerator/denominator pairs by a ``Combination``, which holds the one
product loop; ``finish`` builds one Fraction per nonzero entry, and
``is_zero`` decides whether the sum vanishes without building any.
"""

from fractions import Fraction
from math import gcd

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
            if not isinstance(v, Fraction):
                v = Fraction(v)
            row = rows.setdefault(i, {})
            cur = row.get(j)
            row[j] = v if cur is None else cur + v
        clean = {}
        for i, row in rows.items():
            row = {j: v for j, v in row.items() if v}
            if row:
                clean[i] = row
        return cls(dim, clean, _clean=True)

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
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, subtract):
        """self + other, or self - other when ``subtract``."""
        self._check(other)
        out = {i: dict(row) for i, row in self.rows.items()}
        for i, brow in other.rows.items():
            row = out.setdefault(i, {})
            for j, bv in brow.items():
                if subtract:
                    bv = -bv
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

    def __neg__(self):
        rows = {i: {j: -v for j, v in row.items()} for i, row in self.rows.items()}
        return SparseMatrix(self.dim, rows, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return self._scaled(Fraction(other))
        return Combination(self.dim).product(self, other).finish()

    @classmethod
    def sum_products(cls, pairs):
        """The sum of a*b over a nonempty list of (a, b) pairs, normalised
        once per entry."""
        comb = Combination(pairs[0][0].dim)
        for a, b in pairs:
            comb.product(a, b)
        return comb.finish()

    @classmethod
    def sum_scaled(cls, pairs):
        """The sum of a*f over a nonempty list of (a, f) pairs, each f a
        scalar, normalised once per entry."""
        comb = Combination(pairs[0][0].dim)
        for a, f in pairs:
            comb.add(a, f)
        return comb.finish()

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
        """self*other - other*self, summed before any entry is normalised."""
        return Combination(self.dim).commutator(self, other).finish()

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
        """Exact inverse: entrywise reciprocals for a diagonal matrix,
        Gaussian elimination otherwise; SingularLead if singular."""
        n = self.dim
        if self.is_diagonal():
            if len(self.rows) != n:
                raise SingularLead("matrix is singular")
            return SparseMatrix(n, {i: {i: 1 / self.rows[i][i]} for i in range(n)},
                                _clean=True)
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


class Combination:
    """A sum of scaled matrices and signed products and commutators,
    accumulated in plain ints as {i: {j: [num, den]}}.

    A term over the running denominator of its entry adds without a gcd;
    otherwise the running denominator becomes the lcm.  Nothing is reduced
    while terms are added: ``finish`` normalises each entry once, and
    ``is_zero`` tests the sum without building a Fraction.  Each term
    method returns the combination, so calls chain.
    """

    __slots__ = ("dim", "out")

    def __init__(self, dim):
        self.dim = dim
        self.out = {}

    def _check(self, m):
        if m.dim != self.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, m.dim))

    def product(self, a, b, sign=1):
        """Add sign * a*b; the one product loop."""
        self._check(a)
        self._check(b)
        out, brows = self.out, b.rows
        for i, arow in a.rows.items():
            acc = None
            for k, av in arow.items():
                brow = brows.get(k)
                if not brow:
                    continue
                if acc is None:
                    acc = out.get(i)
                    if acc is None:
                        acc = out[i] = {}
                an = sign * av.numerator
                ad = av.denominator
                for j, bv in brow.items():
                    num = an * bv.numerator
                    den = ad * bv.denominator
                    cur = acc.get(j)
                    if cur is None:
                        acc[j] = [num, den]
                    elif cur[1] == den:
                        cur[0] += num
                    else:
                        g = gcd(cur[1], den)
                        cur[0] = cur[0] * (den // g) + num * (cur[1] // g)
                        cur[1] = cur[1] // g * den
        return self

    def commutator(self, a, b, sign=1):
        """Add sign * (a*b - b*a)."""
        return self.product(a, b, sign).product(b, a, -sign)

    def add(self, a, factor=1):
        """Add factor * a, for an int or Fraction factor."""
        self._check(a)
        out = self.out
        fn, fd = factor.numerator, factor.denominator
        for i, row in a.rows.items():
            acc = out.get(i)
            if acc is None:
                acc = out[i] = {}
            for j, v in row.items():
                num = fn * v.numerator
                den = fd * v.denominator
                cur = acc.get(j)
                if cur is None:
                    acc[j] = [num, den]
                elif cur[1] == den:
                    cur[0] += num
                else:
                    g = gcd(cur[1], den)
                    cur[0] = cur[0] * (den // g) + num * (cur[1] // g)
                    cur[1] = cur[1] // g * den
        return self

    def is_zero(self):
        """Whether the sum vanishes: every numerator is 0 (denominators
        are never 0), so no entry needs normalising."""
        return not any(cur[0] for acc in self.out.values() for cur in acc.values())

    def finish(self):
        """The matrix of the sum: one Fraction per nonzero entry."""
        rows = {}
        for i, acc in self.out.items():
            row = {j: Fraction(num, den) for j, (num, den) in acc.items() if num}
            if row:
                rows[i] = row
        return SparseMatrix(self.dim, rows, _clean=True)
