"""Exact sparse square matrices over the rationals.

A matrix is integer entries over one common denominator: the value at
(i, j) is rows[i][j] / den.  The form is canonical: den > 0, den and the
numerators share no factor, zero entries and empty rows are never
stored, and the zero matrix has den == 1; so equal matrices have equal
(dim, den, rows).  Every sum, scaled sum, product and commutator is
accumulated by a ``Combination`` over one running denominator, so its
product loop does integer multiply-adds only; ``finish`` divides out the
content once, and ``is_zero`` decides whether the sum vanishes without
reducing anything.  Fractions appear only at the boundary: ``get``,
``entries``, ``scalar_part`` and ``inverse`` return reduced Fractions,
and ``from_entries`` and ``diagonal`` accept them.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularLead

# Reported by tools that print the arithmetic backend; there is only one.
KERNEL_BACKEND = "python"

_ZERO = Fraction(0)


class SparseMatrix:
    """Square matrix of integer numerators over one denominator; build
    one with ``from_entries``, ``diagonal`` or ``identity``, since the
    constructor takes ``rows`` and ``den`` as given (already canonical)."""

    __slots__ = ("dim", "den", "rows")

    def __init__(self, dim, rows=None, den=1):
        self.dim = dim
        self.den = den
        self.rows = {} if rows is None else rows

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from an iterable of (row, col, value), summing duplicates;
        the nonzero sums go over the lcm of their denominators, which
        leaves no common factor."""
        rows = {}
        for i, j, v in entries:
            if v.__class__ is not Fraction:
                v = Fraction(v)
            row = rows.setdefault(i, {})
            cur = row.get(j)
            row[j] = v if cur is None else cur + v
        den = 1
        kept = {}
        for i, row in rows.items():
            row = {j: v for j, v in row.items() if v}
            if row:
                kept[i] = row
                for v in row.values():
                    den = lcm(den, v.denominator)
        return cls(dim, {i: {j: v.numerator * (den // v.denominator) for j, v in row.items()}
                         for i, row in kept.items()}, den)

    @classmethod
    def identity(cls, dim):
        return cls(dim, {i: {i: 1} for i in range(dim)})

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        return cls.from_entries(len(values), ((i, i, v) for i, v in enumerate(values)))

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.rows == other.rows

    def zero_like(self):
        return SparseMatrix(self.dim)

    def get(self, i, j):
        v = self.rows.get(i, {}).get(j)
        return _ZERO if v is None else Fraction(v, self.den)

    def entries(self):
        den = self.den
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, Fraction(v, den)

    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def __add__(self, other):
        return Combination(self.dim).add(self).add(other).finish()

    def __sub__(self, other):
        return Combination(self.dim).add(self).add(other, -1).finish()

    def __neg__(self):
        rows = {i: {j: -v for j, v in row.items()} for i, row in self.rows.items()}
        return SparseMatrix(self.dim, rows, self.den)

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return Combination(self.dim).add(self, Fraction(other)).finish()
        return Combination(self.dim).product(self, other).finish()

    __rmul__ = __mul__

    @classmethod
    def sum_products(cls, pairs):
        """The sum of a*b over a nonempty list of (a, b) pairs, reduced
        once."""
        comb = Combination(pairs[0][0].dim)
        for a, b in pairs:
            comb.product(a, b)
        return comb.finish()

    @classmethod
    def sum_scaled(cls, pairs):
        """The sum of a*f over a nonempty list of (a, f) pairs, each f a
        scalar, reduced once."""
        comb = Combination(pairs[0][0].dim)
        for a, f in pairs:
            comb.add(a, f)
        return comb.finish()

    def commutator(self, other):
        """self*other - other*self, summed before it is reduced."""
        return Combination(self.dim).commutator(self, other).finish()

    def scalar_part(self):
        """Return c if the matrix equals c * identity, else None."""
        if not self.rows:
            return _ZERO
        c = self.rows.get(0, {}).get(0)
        if c is None or self.nnz() != self.dim:
            return None
        if any(self.rows.get(i, {}).get(i) != c for i in range(self.dim)):
            return None
        return Fraction(c, self.den)

    def is_diagonal(self):
        return all(len(row) == 1 and i in row for i, row in self.rows.items())

    def inverse(self):
        """Exact inverse: entrywise reciprocals for a diagonal matrix,
        Gaussian elimination otherwise; SingularLead if singular."""
        n = self.dim
        if self.is_diagonal():
            if len(self.rows) != n:
                raise SingularLead("matrix is singular")
            return SparseMatrix.diagonal(Fraction(self.den, self.rows[i][i]) for i in range(n))
        a = [[self.get(i, j) for j in range(n)] for i in range(n)]
        inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
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
    accumulated as integer numerators {i: {j: int}} over one running
    denominator ``den``.

    A term whose denominator does not divide ``den`` raises it to the lcm
    and rescales the accumulated numerators in one pass; otherwise the
    term adds with integer multiply-adds only.  Nothing is reduced while
    terms are added: ``finish`` divides out the content once, and
    ``is_zero`` tests the sum as it stands.  Each term method returns the
    combination, so calls chain.
    """

    __slots__ = ("dim", "den", "out")

    def __init__(self, dim):
        self.dim = dim
        self.den = 1
        self.out = {}

    def _check(self, m):
        if m.dim != self.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, m.dim))

    def _over(self, d):
        """The factor that puts a term over denominator d onto the running
        denominator, first raised to the lcm when d does not divide it."""
        if self.den % d:
            m = d // gcd(self.den, d)
            for acc in self.out.values():
                for j in acc:
                    acc[j] *= m
            self.den *= m
        return self.den // d

    def product(self, a, b, sign=1):
        """Add sign * a*b; the one product loop."""
        self._check(a)
        self._check(b)
        scale = sign * self._over(a.den * b.den)
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
                    get = acc.get
                an = scale * av
                for j, bv in brow.items():
                    acc[j] = get(j, 0) + an * bv
        return self

    def commutator(self, a, b, sign=1):
        """Add sign * (a*b - b*a)."""
        return self.product(a, b, sign).product(b, a, -sign)

    def add(self, a, factor=1):
        """Add factor * a, for an int or Fraction factor."""
        self._check(a)
        if not factor or not a.rows:
            return self
        scale = factor.numerator * self._over(factor.denominator * a.den)
        out = self.out
        for i, row in a.rows.items():
            acc = out.setdefault(i, {})
            get = acc.get
            for j, v in row.items():
                acc[j] = get(j, 0) + scale * v
        return self

    def is_zero(self):
        """Whether the sum vanishes: every numerator is 0."""
        return not any(v for acc in self.out.values() for v in acc.values())

    def finish(self):
        """The matrix of the sum, in canonical form; the accumulator is
        left as it was."""
        rows = {}
        g = self.den
        for i, acc in self.out.items():
            row = {j: v for j, v in acc.items() if v}
            if row:
                rows[i] = row
                if g != 1:
                    g = gcd(g, *row.values())
        if not rows:
            return SparseMatrix(self.dim)
        if g != 1:
            rows = {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}
        return SparseMatrix(self.dim, rows, self.den // g)
