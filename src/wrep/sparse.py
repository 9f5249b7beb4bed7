"""Exact sparse square matrices over the rationals.

A matrix is integer numerators over one common denominator ``den``, in
one of two storage forms:

- dense diagonal: a nonzero matrix whose entries all lie on the diagonal
  keeps them as one list ``diag`` of ``dim`` numerators (zeros included);
- general: every other matrix is a ``Pattern``, its sorted nonzero
  positions, and the aligned tuple ``vals`` of their numerators; the zero
  matrix is general, with the empty pattern and den == 1.

The form is canonical: den > 0, den and the numerators share no factor,
no stored general numerator is 0, and a matrix is stored dense exactly
when it is nonzero and diagonal.  One reduction, ``_reduce``, brings
integer numerators on a pattern over any positive denominator to this
form: it drops the zeros, applies the dense-diagonal rule and divides out
the content.  General numerators come in one way, through
``from_positions`` (numerators at flat positions, the form the integer
build of the pattern-basis matrices in ``rep`` emits; ``from_entries``
sums its entries into that form), and ``Combination.finish`` reduces its
sums the same way.  ``diagonal`` and ``identity`` go straight to the
dense-diagonal step, ``_dense``, and ``SparseMatrix(dim)`` is the zero
matrix and takes nothing else.  So equal matrices have equal (dim, den,
diag, pattern, vals), which is what ``__eq__`` compares, and
``is_diagonal`` reads the form.  ``rows`` ({i: {j: numerator}}) is a
view built on demand, for tests.

Patterns are interned: equal position sets are one ``Pattern`` object,
keyed by the bytes of its flat indices and held weakly by the registry
``_PATTERNS``, so a pattern lives exactly as long as some matrix or
accumulator refers to it.  A finished sum that keeps all its entries
reuses its pattern object.  The ladder matrices e_i^(r) and f_i^(r) move
a pattern by one slot of row i whatever r is, so the products of a
relation check meet few pattern pairs many times.

The dense form is there because the Gelfand-Tsetlin subalgebra acts by
characters: on the pattern basis the A coefficients, the a_i and a_i^{-1}
series and the d_i and d_i' series are all diagonal, and they are the
operands of most products.  A character takes few distinct values, so
``compress_diagonals`` turns a list of such series into diagonal
matrices with one position per distinct column of numerators, on which
the same arithmetic runs, and expands a result back to the full
dimension with one gather.

Every sum, scaled sum, product and commutator is accumulated by a
``Combination`` over one running denominator, so it does integer
multiply-adds only.  Each term takes a path from its operands' forms:
diagonal times diagonal is one pass over two lists into a dense
accumulator; diagonal times general gathers the diagonal by the
pattern's row indices, general times diagonal by its column indices, and
one ``map(mul)`` gives the values on the general operand's pattern.
General times general is split into a symbolic and a numeric phase
(Gustavson).  The first product of a pattern pair builds its ``_Plan``, in
a few passes in C, and caches it on the left pattern under the right
one's key, and every later product of the pair reads it: a relation check
or a T-matrix meets few pairs, nearly all of them many times.  A plan
holds the output pattern and, for each contribution layer t, the gather
lists of the t-th multiplicand pair of every output with more than t
contributions; the outputs are sorted by their number of contributions,
so each layer is a prefix, and the numeric phase is a few ``map(mul)``
and ``map(add)`` passes.  The combination keeps one value list per
output pattern, and a term on a pattern it holds adds with one
``map(add)``.  ``is_zero`` and ``finish`` sum distinct patterns (and
the dense diagonal) by one direct pass and keep no plan: a relation
check merges 63 times against its 546 general products, and cached
merge plans measured no faster.  ``is_zero`` tests the sums alone, and
only ``finish`` sorts their positions and interns the pattern.  Plans
hang off their left pattern and name other patterns by key only, so no
reference cycle keeps a pattern alive, and no plan outlives the matrices
of a run.
Fractions appear only at the boundary: ``get``, ``entries`` and
``scalar_part`` return reduced Fractions, and ``from_entries`` and
``diagonal`` accept them.  ``inverse`` inverts only a diagonal matrix, the
only kind a run inverts, on integers: entry i is ``den * (L // d_i)``
over ``L``, the lcm of the diagonal numerators d_i.
"""

import weakref
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, mod, mul, neg, sub

from .errors import SingularLead

# Reported by tools that print the arithmetic backend; there is only one.
KERNEL_BACKEND = "python"

_ZERO = Fraction(0)

# (dim, key) -> Pattern, for every pattern some object still refers to.
_PATTERNS = weakref.WeakValueDictionary()


def _DEAD():
    """A weak reference whose referent is gone."""
    return None


def _gather(indices):
    """A function from a sequence to the tuple of its items at indices."""
    if len(indices) == 1:
        k = indices[0]
        return lambda seq: (seq[k],)
    return itemgetter(*indices)


class Pattern:
    """The nonzero positions of a general matrix, as flat indices
    i * dim + j in increasing order (``flat``, a view of the bytes the
    registry keys it by), with their row and column index arrays (built
    on first use, since most finished sums are never an operand).  Build
    one with ``Pattern.of``, which interns it.

    Caches that live as long as the pattern: the gathers of a dense
    diagonal by the row or column indices, the row starts (the per-row
    index), the transposed key with its value gather and ``plans`` {key
    of the right pattern: _Plan}.  A pattern refers to other patterns
    only by their keys, so patterns form no reference cycle and each one
    dies, with its caches, as soon as nothing refers to it."""

    __slots__ = ("dim", "key", "flat", "_ri", "_ci", "is_diag", "_by_row", "_by_col",
                 "_starts", "_transposed", "plans", "__weakref__")

    def __init__(self, dim, key):
        self.dim = dim
        self.key = key
        self.flat = flat = memoryview(key).cast("q")
        # i * dim + i is a multiple of dim + 1; the scan stops at the
        # first position off the diagonal
        self.is_diag = not any(map(mod, flat, repeat(dim + 1)))
        self._ri = self._ci = self._by_row = self._by_col = self._starts = self._transposed = None
        self.plans = {}

    @property
    def ri(self):
        """The row index of each position, built on first use."""
        if self._ri is None:
            self._ri = array("i", map(floordiv, self.flat, repeat(self.dim)))
        return self._ri

    @property
    def ci(self):
        """The column index of each position, built on first use."""
        if self._ci is None:
            self._ci = array("i", map(mod, self.flat, repeat(self.dim)))
        return self._ci

    @staticmethod
    def of(dim, flat):
        """The interned pattern of the increasing flat indices ``flat``."""
        return Pattern.interned(dim, array("q", flat).tobytes())

    @staticmethod
    def interned(dim, key):
        """The interned pattern whose flat indices are the bytes ``key``."""
        p = _PATTERNS.get((dim, key))
        if p is None:
            p = _PATTERNS[(dim, key)] = Pattern(dim, key)
        return p

    @staticmethod
    def diagonal(dim):
        return Pattern.of(dim, range(0, dim * dim, dim + 1))

    def by_row(self, diag):
        """diag[i] for the row i of each position."""
        if self._by_row is None:
            self._by_row = _gather(self.ri)
        return self._by_row(diag)

    def by_col(self, diag):
        """diag[j] for the column j of each position."""
        if self._by_col is None:
            self._by_col = _gather(self.ci)
        return self._by_col(diag)

    def starts(self):
        """Row i holds positions starts[i] to starts[i + 1] - 1."""
        if self._starts is None:
            counts = [0] * (self.dim + 1)
            for i in self.ri:
                counts[i + 1] += 1
            self._starts = array("i", accumulate(counts))
        return self._starts

    def transposed(self):
        """(key, order): the key of the transposed positions j * dim + i,
        and the gather that puts values on this pattern in their order (a
        stable sort by column, since the positions are sorted by row)."""
        if self._transposed is None:
            ri, ci = self.ri, self.ci
            order = _gather(sorted(range(len(ci)), key=ci.__getitem__))
            flat = map(add, map(mul, order(ci), repeat(self.dim)), order(ri))
            self._transposed = array("q", flat).tobytes(), order
        return self._transposed

    def __len__(self):
        return len(self.flat)

    def __repr__(self):
        return "Pattern(dim=%d, nnz=%d)" % (self.dim, len(self.flat))


class _Plan:
    """How to compute the values of a product of two general patterns on
    ``out()``, the output pattern, from the operands' value lists.

    ``layers`` lists (n, gather of the left values, gather of the right
    values): layer t gives the t-th multiplicand pair of the first n
    outputs, in order of falling contribution count, so every layer is a
    prefix; ``order`` gathers that order back to the order of the output
    pattern (None when they agree).  The plan holds the output pattern
    weakly and its key strongly, and ``out()`` interns it anew once it
    has died."""

    __slots__ = ("dim", "out_key", "_out", "layers", "order")

    def __init__(self, left, right):
        # term c lands at position flat[c] and multiplies left value ka[c]
        # by right value kb[c]; each step after the first loop is a pass in
        # C, none a Python loop over the terms
        starts, rci = right.starts(), right.ci
        index = list(range(len(rci)))  # one int object per right position
        self.dim = dim = left.dim
        flat, ka, kb = [], [], []
        for k_left, (i, k) in enumerate(zip(left.ri, left.ci)):
            lo, hi = starts[k], starts[k + 1]
            if lo < hi:
                flat += map((i * dim).__add__, rci[lo:hi])
                ka += repeat(k_left, hi - lo)
                kb += index[lo:hi]
        self._out = _DEAD
        self.layers = []
        self.order = None
        if not flat:
            self.out_key = b""
            return
        by_out = _gather(sorted(range(len(flat)), key=flat.__getitem__))
        ka, kb = by_out(ka), by_out(kb)
        counts = Counter(by_out(flat))  # keys in increasing order
        self.out_key = array("q", counts).tobytes()
        count = list(counts.values())
        first = list(accumulate(chain((0,), count)))  # of each output's terms
        ranked = sorted(range(len(count)), key=count.__getitem__, reverse=True)
        count = _gather(ranked)(count)
        first = _gather(ranked)(first)
        n = len(ranked)
        for t in range(count[0]):
            while count[n - 1] <= t:
                n -= 1
            terms = _gather(list(map(add, first[:n], repeat(t))))
            self.layers.append((n, _gather(terms(ka)), _gather(terms(kb))))
        if ranked != list(range(len(ranked))):
            self.order = _gather(sorted(range(len(ranked)), key=ranked.__getitem__))

    def out(self):
        """The output pattern."""
        p = self._out()
        if p is None:
            p = Pattern.interned(self.dim, self.out_key)
            self._out = weakref.ref(p)
        return p

    def multiply(self, a, b):
        """Values of the product of value lists a and b on ``out()``, for a
        plan with at least one layer (a nonempty output)."""
        (_, ga, gb), *rest = self.layers
        acc = list(map(mul, ga(a), gb(b)))
        for n, ga, gb in rest:
            acc[:n] = map(add, acc, map(mul, ga(a), gb(b)))
        return acc if self.order is None else self.order(acc)


def _summed(parts):
    """{flat position: value} of the sum of [(flat positions, values)], by
    one pass."""
    (f, v), *rest = parts
    out = dict(zip(f, v))
    get = out.get
    for f, v in rest:
        for i, x in zip(f, v):
            out[i] = get(i, 0) + x
    return out


class SparseMatrix:
    """Square matrix of integer numerators over one denominator.
    ``SparseMatrix(dim)`` is the zero matrix; build any other with
    ``from_positions``, ``from_entries``, ``diagonal`` or ``identity``."""

    __slots__ = ("dim", "den", "diag", "pattern", "vals")

    def __init__(self, dim):
        self.dim = dim
        self.den = 1
        self.diag = None
        self.pattern = Pattern.of(dim, ())
        self.vals = ()

    @classmethod
    def _of(cls, dim, den, diag, pattern=None, vals=None):
        """The matrix of these fields, taken as given (already canonical)."""
        m = cls.__new__(cls)
        m.dim, m.den, m.diag, m.pattern, m.vals = dim, den, diag, pattern, vals
        return m

    @classmethod
    def _dense(cls, dim, den, diag):
        """The canonical matrix of the dense diagonal numerators diag over
        den; the list is kept, or replaced if the content divides out."""
        if not any(diag):
            return cls(dim)
        g = gcd(den, *diag)
        if g != 1:
            diag = [v // g for v in diag]
        return cls._of(dim, den // g, diag)

    @classmethod
    def _reduce(cls, dim, den, pattern, vals):
        """The canonical matrix of the numerators vals on pattern over
        den > 0: zeros drop, a diagonal result is stored dense and the
        content gcd(den, numerators) is divided out."""
        if not all(vals):
            pattern = Pattern.of(dim, compress(pattern.flat, vals))
            vals = tuple(compress(vals, vals))
        if pattern.is_diag:
            if len(vals) == dim:
                return cls._dense(dim, den, list(vals))
            diag = [0] * dim
            for i, v in zip(pattern.ri, vals):
                diag[i] = v
            return cls._dense(dim, den, diag)
        g = gcd(den, *vals)
        if g != 1:
            vals = map(floordiv, vals, repeat(g))
        return cls._of(dim, den // g, None, pattern, tuple(vals))

    @classmethod
    def from_positions(cls, dim, den, flat, vals):
        """The canonical matrix of the integer numerators ``vals`` over
        ``den`` > 0 at the distinct flat positions i * dim + j in ``flat``,
        in any order; zeros may be stored.  Neither list is changed."""
        if not flat:
            return cls(dim)
        order = _gather(sorted(range(len(flat)), key=flat.__getitem__))
        return cls._reduce(dim, den, Pattern.of(dim, order(flat)), order(vals))

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from an iterable of (row, col, value), int or Fraction
        values, summing duplicates; the sums go over the lcm of their
        denominators."""
        sums = {}
        for i, j, v in entries:
            f = i * dim + j
            sums[f] = sums.get(f, 0) + v
        den = lcm(*(v.denominator for v in sums.values()))
        return cls.from_positions(dim, den, list(sums),
                                  [v.numerator * (den // v.denominator) for v in sums.values()])

    @classmethod
    def identity(cls, dim):
        return cls._dense(dim, 1, [1] * dim)

    @classmethod
    def diagonal(cls, values, den=1):
        """The diagonal matrix of int or Fraction values, each divided by
        the positive integer den."""
        values = list(values)
        common = lcm(*(v.denominator for v in values))
        return cls._dense(len(values), common * den,
                          [v.numerator * (common // v.denominator) for v in values])

    @property
    def rows(self):
        """{i: {j: numerator}}, built on demand."""
        d = self.diag
        if d is not None:
            return {i: {i: v} for i, v in enumerate(d) if v}
        out = {}
        for i, j, v in zip(self.pattern.ri, self.pattern.ci, self.vals):
            out.setdefault(i, {})[j] = v
        return out

    def __bool__(self):
        return self.diag is not None or bool(self.vals)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.dim == other.dim and self.den == other.den and self.diag == other.diag
                and self.pattern is other.pattern and self.vals == other.vals)

    def zero_like(self):
        return SparseMatrix(self.dim)

    def get(self, i, j):
        d = self.diag
        if d is not None:
            return Fraction(d[i], self.den) if i == j else _ZERO
        flat = self.pattern.flat
        f = i * self.dim + j
        k = bisect_left(flat, f)
        if k < len(flat) and flat[k] == f:
            return Fraction(self.vals[k], self.den)
        return _ZERO

    def entries(self):
        den = self.den
        d = self.diag
        if d is not None:
            for i, v in enumerate(d):
                if v:
                    yield i, i, Fraction(v, den)
            return
        for i, j, v in zip(self.pattern.ri, self.pattern.ci, self.vals):
            yield i, j, Fraction(v, den)

    def nnz(self):
        d = self.diag
        if d is not None:
            return len(d) - d.count(0)
        return len(self.vals)

    def __add__(self, other):
        return Combination(self.dim).add(self).add(other).finish()

    def __sub__(self, other):
        return Combination(self.dim).add(self).add(other, -1).finish()

    def __neg__(self):
        d = self.diag
        if d is not None:
            return SparseMatrix._of(self.dim, self.den, [-v for v in d])
        return SparseMatrix._of(self.dim, self.den, None, self.pattern, tuple(map(neg, self.vals)))

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
            return None if self.vals else _ZERO
        if d.count(d[0]) != len(d):
            return None
        return Fraction(d[0], self.den)

    def is_diagonal(self):
        return self.diag is not None or not self.vals

    def diagonal_numerators(self):
        """The dim numerators over ``den`` on the diagonal, in either
        storage form: the dense list itself (not to be changed) or, for a
        general matrix, a new list with 0 where no position is stored."""
        d = self.diag
        if d is not None:
            return d
        d = [0] * self.dim
        step = self.dim + 1
        for f, v in zip(self.pattern.flat, self.vals):
            if not f % step:
                d[f // step] = v
        return d

    def transpose(self):
        """The transposed matrix: a diagonal one, zero included, is its
        own, and a general one moves to the interned transposed pattern."""
        if self.is_diagonal():
            return self
        key, order = self.pattern.transposed()
        return SparseMatrix._of(self.dim, self.den, None, Pattern.interned(self.dim, key),
                                order(self.vals))

    def inverse(self):
        """Exact inverse of a diagonal matrix, entrywise; SingularLead if
        it is singular.  No command inverts any other matrix."""
        d = self.diag
        if d is None and self.vals:
            raise NotImplementedError("inverse of a matrix that is not diagonal")
        if d is None or not all(d):
            raise SingularLead("matrix is singular")
        # entry i is den / d[i] = den * (L // d[i]) / L over L = lcm(d)
        L = lcm(*d)
        return SparseMatrix._dense(self.dim, L, [self.den * (L // v) for v in d])

    def __repr__(self):
        return "SparseMatrix(dim=%d, nnz=%d)" % (self.dim, self.nnz())


def diagonal_gauge(pairs):
    """Integer numerators s, over one common denominator, of a diagonal S
    with S^{-1} X S == Y for every pair (X, Y) of a list of matrices of
    one dimension, or None when no such S exists; an empty list gives [].

    S^{-1} X S is X with entry (a, b) scaled by S_b / S_a.  So a diagonal
    X (the zero matrix included) must equal its Y, and a general X must
    sit on Y's pattern.  S is read from the ratios Y[a,b] / X[a,b] off
    the diagonal, of one pair per distinct pattern, along a spanning
    forest of those positions, each tree rooted at 1.  Every entry of
    every pair is then checked by cross-multiplication."""
    general = [(x, y) for x, y in pairs if not x.is_diagonal()]
    if any(y.pattern is not x.pattern for x, y in general) or any(
            x != y for x, y in pairs if x.is_diagonal()):
        return None
    dim = pairs[0][0].dim if pairs else 0
    adjacent = [[] for _ in range(dim)]  # a -> [(b, x, y)] with S_b / S_a = x / y
    for p, (x, y) in {x.pattern: (x, y) for x, y in general}.items():
        for a, b, xv, yv in zip(p.ri, p.ci, map(mul, x.vals, repeat(y.den)),
                                map(mul, y.vals, repeat(x.den))):
            if a != b:
                adjacent[a].append((b, yv, xv))
                adjacent[b].append((a, xv, yv))
    S = [None] * dim  # (num, den) of each S_a, in lowest terms
    for root in range(dim):
        if S[root] is None:
            S[root] = (1, 1)
            stack = [root]
            while stack:
                a = stack.pop()
                na, da = S[a]
                for b, x, y in adjacent[a]:
                    if S[b] is None:
                        num, den = na * x, da * y
                        g = gcd(num, den) if den > 0 else -gcd(num, den)
                        S[b] = num // g, den // g
                        stack.append(b)
    L = lcm(*(den for _, den in S))
    s = [num * (L // den) for num, den in S]
    for x, y in general:
        p = x.pattern
        if list(map(mul, map(mul, y.vals, p.by_row(s)), repeat(x.den))) != list(
                map(mul, map(mul, x.vals, p.by_col(s)), repeat(y.den))):
            return None
    return s


def compress_diagonals(series):
    """(compressed, expand) for a list of coefficient lists of diagonal
    matrices of one dimension dim.

    Positions i and j are in one class when every matrix of every list
    has equal numerators at i and at j; the classes are read from the
    numerators alone, so an entry that differs from its neighbours is a
    class of its own.  ``compressed`` holds the lists again, each matrix
    k x k with one position per class (its first position), and ``expand``
    maps a k x k diagonal matrix back to dim, the value of each class at
    each of its positions, by one gather.  Diagonal arithmetic is
    entrywise, so any sum, product or inverse of compressed matrices,
    expanded, is that of the originals; and each compressed matrix holds
    every distinct numerator of the original, so its content, and with it
    every denominator, is the same.  With k == dim, or when some matrix is
    not diagonal, the lists come back unchanged and ``expand`` is the
    identity."""
    dim = series[0][0].dim
    diags = [m.diag for coeffs in series for m in coeffs if m.diag is not None]
    if not diags or any(m.diag is None and m.vals for coeffs in series for m in coeffs):
        return series, _same
    first = {}  # column of numerators -> its first position
    firsts = list(map(first.setdefault, zip(*diags), range(dim)))
    if len(first) == dim:
        return series, _same
    reps = list(first.values())
    k = len(reps)
    classes = _gather(list(map(dict(zip(reps, range(k))).__getitem__, firsts)))
    pick = _gather(reps)

    def compress(m):
        return SparseMatrix._of(k, m.den, list(pick(m.diag))) if m else SparseMatrix(k)

    def expand(m):
        return SparseMatrix._of(dim, m.den, list(classes(m.diag))) if m else SparseMatrix(dim)

    return [list(map(compress, coeffs)) for coeffs in series], expand


def _same(m):
    return m


class Combination:
    """A sum of scaled matrices and signed products and commutators,
    accumulated as integer numerators over one running denominator
    ``den``: terms on the diagonal alone go to the dense list ``diag``
    (None until the first such term), all others to ``parts``
    {pattern: values}, one value list per pattern met.

    A term whose denominator does not divide ``den`` raises it to the lcm
    and rescales every list in one pass; otherwise the term adds with
    integer multiply-adds only.  Nothing is reduced while terms are added:
    ``finish`` merges the lists and reduces once, and ``is_zero`` tests
    their summed numerators as they stand.  No list held is changed in place, so it
    may be shared with a matrix.  Each term method returns the
    combination, so calls chain.
    """

    __slots__ = ("dim", "den", "parts", "diag")

    def __init__(self, dim):
        self.dim = dim
        self.den = 1
        self.parts = {}
        self.diag = None

    def _check(self, m):
        if m.dim != self.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, m.dim))

    def _over(self, d):
        """The factor that puts a term over denominator d onto the running
        denominator, first raised to the lcm when d does not divide it."""
        if self.den % d:
            m = d // gcd(self.den, d)
            parts = self.parts
            for p, v in parts.items():
                parts[p] = list(map(m.__mul__, v))
            if self.diag is not None:
                self.diag = list(map(m.__mul__, self.diag))
            self.den *= m
        return self.den // d

    def _add_diag(self, values, scale):
        """Add scale times the numerator list (or iterator) ``values`` to
        the dense accumulator."""
        if scale != 1:
            values = map(scale.__mul__, values)
        acc = self.diag
        self.diag = list(values) if acc is None else list(map(add, acc, values))

    def _add_part(self, pattern, values, scale):
        """Add scale times ``values`` on ``pattern``."""
        acc = self.parts.get(pattern)
        if scale == 1:
            self.parts[pattern] = values if acc is None else list(map(add, acc, values))
        elif scale == -1:
            self.parts[pattern] = (list(map(neg, values)) if acc is None
                                   else list(map(sub, acc, values)))
        else:
            values = map(scale.__mul__, values)
            self.parts[pattern] = list(values) if acc is None else list(map(add, acc, values))

    def product(self, a, b, sign=1):
        """Add sign * a*b; the path follows the operands' storage forms."""
        self._check(a)
        self._check(b)
        scale = sign * self._over(a.den * b.den)
        ad, bd = a.diag, b.diag
        if ad is not None and bd is not None:
            self._add_diag(map(mul, ad, bd), scale)
        elif ad is not None:
            if b.vals:
                self._add_part(b.pattern, list(map(mul, b.pattern.by_row(ad), b.vals)), scale)
        elif bd is not None:
            if a.vals:
                self._add_part(a.pattern, list(map(mul, a.vals, a.pattern.by_col(bd))), scale)
        elif a.vals and b.vals:
            plans, key = a.pattern.plans, b.pattern.key
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _Plan(a.pattern, b.pattern)
            if plan.layers:
                self._add_part(plan.out(), plan.multiply(a.vals, b.vals), scale)
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
        else:
            self._add_part(a.pattern, a.vals, scale)
        return self

    def _flat_parts(self):
        """[(flat positions, values)] of every accumulator, the dense
        diagonal last."""
        parts = [(p.flat, v) for p, v in self.parts.items()]
        if self.diag is not None:
            parts.append((range(0, self.dim * self.dim, self.dim + 1), self.diag))
        return parts

    def is_zero(self):
        """Whether the sum vanishes: every numerator of the summed
        accumulators is 0.  Only the sums are formed; no pattern is
        sorted or interned."""
        parts = self._flat_parts()
        if len(parts) == 1:
            return not any(parts[0][1])
        return not parts or not any(_summed(parts).values())

    def finish(self):
        """The matrix of the sum, in canonical form; the accumulators are
        left as they were.  A single general part keeps its pattern;
        otherwise the sums of _summed go on the interned pattern of their
        sorted positions."""
        if not self.parts:
            if self.diag is None:
                return SparseMatrix(self.dim)
            return SparseMatrix._dense(self.dim, self.den, self.diag)
        if self.diag is None and len(self.parts) == 1:
            (pattern, vals), = self.parts.items()
        else:
            out = _summed(self._flat_parts())
            flat = sorted(out)
            pattern, vals = Pattern.of(self.dim, flat), _gather(flat)(out)
        return SparseMatrix._reduce(self.dim, self.den, pattern, vals)
