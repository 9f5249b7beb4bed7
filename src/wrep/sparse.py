"""Exact sparse square matrices over the rationals.

A matrix is integer numerators over one common denominator ``den``, in
one of two storage forms:

- dense diagonal: a nonzero matrix whose entries all lie on the diagonal
  keeps them as one list ``diag`` of ``dim`` numerators (zeros included);
- general: every other matrix keeps ``{i: {j: numerator}}``, with zero
  entries and empty rows never stored; the zero matrix is general, with
  no rows and den == 1.

The form is canonical: den > 0, den and the numerators share no factor,
and a matrix is stored dense exactly when it is nonzero and diagonal.
One reduction, ``from_numerators``, brings integer numerators over any
positive denominator to this form: it merges a dict part and a dense
part, applies the dense-diagonal rule and divides out the content.
``diagonal``, ``identity``, ``from_entries``, ``Combination.finish`` and
the integer build of the pattern-basis matrices (``rep``) all reach it,
so equal matrices have equal (dim, den, diag, rows), and ``is_diagonal``
reads the form.  ``rows`` of a dense matrix is a view
built on demand, for tests and for comparing a hand-built general matrix.

The dense form is there because the Gelfand-Tsetlin subalgebra acts by
characters: on the pattern basis the A coefficients, the a_i and a_i^{-1}
series and the d_i and d_i' series are all diagonal, and they are the
operands of most products.

Every sum, scaled sum, product and commutator is accumulated by a
``Combination`` over one running denominator, so it does integer
multiply-adds only.  Each term takes a path from its operands' forms:
diagonal times diagonal is one pass over two lists into a dense
accumulator; diagonal times general scales rows and general times
diagonal scales columns into the dict accumulator; general times general
is the row-by-row loop.  ``finish`` hands the two accumulators to
``from_numerators``, and ``is_zero`` decides whether the merged
sum vanishes without reducing anything.  Fractions appear only at the
boundary: ``get``, ``entries``, ``scalar_part`` and ``inverse`` return
reduced Fractions, and ``from_entries`` and ``diagonal`` accept them.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .errors import SingularLead

# Reported by tools that print the arithmetic backend; there is only one.
KERNEL_BACKEND = "python"

_ZERO = Fraction(0)


class SparseMatrix:
    """Square matrix of integer numerators over one denominator; build
    one with ``from_entries``, ``diagonal`` or ``identity``, since the
    constructor takes ``rows`` or ``diag`` and ``den`` as given (already
    canonical)."""

    __slots__ = ("dim", "den", "_rows", "diag")

    def __init__(self, dim, rows=None, den=1, diag=None):
        self.dim = dim
        self.den = den
        self.diag = diag
        self._rows = {} if rows is None and diag is None else rows

    @classmethod
    def from_numerators(cls, dim, den, rows=None, diag=None):
        """The canonical matrix of integer numerators over ``den`` > 0: the
        entries of ``rows`` {i: {j: int}} plus the dense list ``diag`` of
        dim diagonal numerators, either one may be None and zeros may be
        stored.  This is the one reduction every constructor reaches: the
        two parts merge, the sum is stored dense when it is nonzero and
        diagonal, and the content gcd(den, numerators) is divided out.
        Neither argument is changed."""
        if diag is not None:
            diag = list(diag)
        kept = {}
        for i, acc in (rows or {}).items():
            row = {j: v for j, v in acc.items() if v}
            if diag is not None:
                diag[i] += row.pop(i, 0)
            if row:
                kept[i] = row
        if diag is None and kept and all(row.keys() == {i} for i, row in kept.items()):
            diag = [0] * dim
            for i, row in kept.items():
                diag[i] = row[i]
            kept = {}
        if diag is not None and not any(diag):
            diag = None
        g = den
        if kept:
            if diag is not None:
                for i, v in enumerate(diag):
                    if v:
                        kept.setdefault(i, {})[i] = v
            for row in kept.values():
                if g == 1:
                    break
                g = gcd(g, *row.values())
            if g != 1:
                kept = {i: {j: v // g for j, v in row.items()} for i, row in kept.items()}
            return cls(dim, kept, den // g)
        if diag is None:
            return cls(dim)
        if g != 1:
            g = gcd(g, *diag)
            if g != 1:
                diag = [v // g for v in diag]
        return cls(dim, den=den // g, diag=diag)

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from an iterable of (row, col, value), int or Fraction
        values, summing duplicates; the sums go over the lcm of their
        denominators."""
        rows = {}
        for i, j, v in entries:
            row = rows.setdefault(i, {})
            cur = row.get(j)
            row[j] = v if cur is None else cur + v
        den = lcm(*(v.denominator for row in rows.values() for v in row.values()))
        return cls.from_numerators(
            dim, den, {i: {j: v.numerator * (den // v.denominator) for j, v in row.items()}
                       for i, row in rows.items()})

    @classmethod
    def identity(cls, dim):
        return cls.from_numerators(dim, 1, diag=[1] * dim)

    @classmethod
    def diagonal(cls, values):
        """The diagonal matrix of int or Fraction values."""
        values = list(values)
        den = lcm(*(v.denominator for v in values))
        return cls.from_numerators(
            len(values), den, diag=[v.numerator * (den // v.denominator) for v in values])

    @property
    def rows(self):
        """{i: {j: numerator}}; for a dense diagonal, a view built on demand."""
        d = self.diag
        if d is None:
            return self._rows
        return {i: {i: v} for i, v in enumerate(d) if v}

    def __bool__(self):
        return self.diag is not None or bool(self._rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.diag is None) != (other.diag is None):
            return self.dim == other.dim and self.den == other.den and self.rows == other.rows
        return (self.dim == other.dim and self.den == other.den
                and self.diag == other.diag and self._rows == other._rows)

    def zero_like(self):
        return SparseMatrix(self.dim)

    def get(self, i, j):
        d = self.diag
        if d is not None:
            return Fraction(d[i], self.den) if i == j else _ZERO
        v = self._rows.get(i, {}).get(j)
        return _ZERO if v is None else Fraction(v, self.den)

    def entries(self):
        den = self.den
        d = self.diag
        if d is not None:
            for i, v in enumerate(d):
                if v:
                    yield i, i, Fraction(v, den)
            return
        for i, row in self._rows.items():
            for j, v in row.items():
                yield i, j, Fraction(v, den)

    def nnz(self):
        d = self.diag
        if d is not None:
            return len(d) - d.count(0)
        return sum(len(r) for r in self._rows.values())

    def __add__(self, other):
        return Combination(self.dim).add(self).add(other).finish()

    def __sub__(self, other):
        return Combination(self.dim).add(self).add(other, -1).finish()

    def __neg__(self):
        d = self.diag
        if d is not None:
            return SparseMatrix(self.dim, den=self.den, diag=[-v for v in d])
        rows = {i: {j: -v for j, v in row.items()} for i, row in self._rows.items()}
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
        d = self.diag
        if d is None:
            return None if self._rows else _ZERO
        if d.count(d[0]) != len(d):
            return None
        return Fraction(d[0], self.den)

    def is_diagonal(self):
        return self.diag is not None or not self._rows

    def inverse(self):
        """Exact inverse: entrywise reciprocals for a diagonal matrix,
        Gaussian elimination otherwise; SingularLead if singular."""
        n = self.dim
        d = self.diag
        if d is not None:
            if not all(d):
                raise SingularLead("matrix is singular")
            return SparseMatrix.diagonal(Fraction(self.den, v) for v in d)
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
    accumulated as integer numerators over one running denominator
    ``den``: terms on the diagonal alone go to the dense list ``diag``
    (None until the first such term), all others to the dict ``out``
    {i: {j: int}}.

    A term whose denominator does not divide ``den`` raises it to the lcm
    and rescales both accumulators in one pass; otherwise the term adds
    with integer multiply-adds only.  Nothing is reduced while terms are
    added: ``finish`` merges the accumulators and divides out the content
    once, and ``is_zero`` tests the merged sum as it stands.  No list
    held in ``diag`` is changed in place, so it may be shared with a
    matrix.  Each term method returns the combination, so calls chain.
    """

    __slots__ = ("dim", "den", "out", "diag")

    def __init__(self, dim):
        self.dim = dim
        self.den = 1
        self.out = {}
        self.diag = None

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
            if self.diag is not None:
                self.diag = [v * m for v in self.diag]
            self.den *= m
        return self.den // d

    def _add_diag(self, values, scale):
        """Add scale times the numerator list (or iterator) ``values`` to
        the dense accumulator."""
        if scale != 1:
            values = map(scale.__mul__, values)
        acc = self.diag
        self.diag = list(values) if acc is None else list(map(add, acc, values))

    def product(self, a, b, sign=1):
        """Add sign * a*b; the path follows the operands' storage forms."""
        self._check(a)
        self._check(b)
        scale = sign * self._over(a.den * b.den)
        out, ad, bd = self.out, a.diag, b.diag
        if ad is not None and bd is not None:
            self._add_diag(map(mul, ad, bd), scale)
        elif ad is not None:
            # row i of a*b is ad[i] times row i of b
            for i, brow in b._rows.items():
                an = scale * ad[i]
                if not an:
                    continue
                acc = out.get(i)
                if acc is None:
                    out[i] = {j: an * v for j, v in brow.items()}
                else:
                    get = acc.get
                    for j, v in brow.items():
                        acc[j] = get(j, 0) + an * v
        elif bd is not None:
            # column j of a*b is column j of a times bd[j]
            if scale != 1:
                bd = [scale * v for v in bd]
            for i, arow in a._rows.items():
                acc = out.get(i)
                if acc is None:
                    out[i] = {j: v * bd[j] for j, v in arow.items()}
                else:
                    get = acc.get
                    for j, v in arow.items():
                        acc[j] = get(j, 0) + v * bd[j]
        else:
            brows = b._rows
            for i, arow in a._rows.items():
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
        if not factor or not a:
            return self
        scale = factor.numerator * self._over(factor.denominator * a.den)
        if a.diag is not None:
            self._add_diag(a.diag, scale)
            return self
        out = self.out
        for i, row in a._rows.items():
            acc = out.setdefault(i, {})
            get = acc.get
            for j, v in row.items():
                acc[j] = get(j, 0) + scale * v
        return self

    def is_zero(self):
        """Whether the sum vanishes: every numerator of the merged
        accumulators is 0."""
        out, diag = self.out, self.diag
        if diag is None:
            return not any(v for acc in out.values() for v in acc.values())
        diag = list(diag)
        for i, acc in out.items():
            for j, v in acc.items():
                if v:
                    if j != i:
                        return False
                    diag[i] += v
        return not any(diag)

    def finish(self):
        """The matrix of the sum, in canonical form; the accumulators are
        left as they were."""
        return SparseMatrix.from_numerators(self.dim, self.den, self.out, self.diag)
