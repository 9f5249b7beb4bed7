"""Exact scalar / polynomial / truncated-series arithmetic.

Coefficients are either Fraction scalars or objects exposing the same
arithmetic protocol (SparseMatrix, MPoly): +, -, *, unary -, truthiness
for zero-testing.  Polynomials are coefficient lists in ascending powers
of u (UniPoly); a truncated series c_0 + c_1 u^{-1} + ... + c_R u^{-R} is
the plain list [c_0, ..., c_R], and series_product is its one truncated
product.  poly_to_inv_series turns p(u) u^{-k} into such a list by reading
p's coefficients off, and poly_shift is the one argument shift: a series
in a shifted argument is read off the shifted polynomial.  Each output
coefficient of a product, shift or series inverse is one sum, taken by
_sum_products (sums of a*b) or, in poly_shift only, _sum_scaled (sums of
a*f, f a scalar); a type with a fused sum_products / sum_scaled
(SparseMatrix) normalises each entry once, others add term by term.
UniPoly and MPoly have fused sum_products too, so a sum of their
products sums each output coefficient once.  from_roots and lagrange_basis
work on scalar coefficient lists in O(p^2) and in the scalars' own type:
nothing is coerced to Fraction, so int roots or nodes give int
coefficients, and lagrange_basis returns each basis polynomial as an
undivided (numerator, denominator) pair.  UniPoly.__call__ evaluates in
the same way.  Terms is the shared base of
the sparse linear combinations (MPoly and the skew and operator algebras),
and leading_minors the one determinant: one prefix recursion in column
order, so the entries need not commute, which forms every leading minor
(rows and columns 0..c) on its way up and hands back that chain;
column_det is the chain's last element.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ArityError, DegenerateNodes, SingularLead


def _zero_like(x):
    if isinstance(x, (int, Fraction)):
        return type(x)(0)
    return x.zero_like()


def _sum_products(pairs):
    """The sum of a*b over a nonempty list of (a, b) pairs.  A type with a
    fused ``sum_products`` sums each output coefficient once (SparseMatrix
    normalises each entry once, UniPoly takes one sum per power of u);
    other types add the products one by one."""
    a, b = pairs[0]
    fused = getattr(type(a), "sum_products", None)
    if fused is not None and type(b) is type(a):
        return fused(pairs)
    acc = a * b
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


def _sum_scaled(pairs):
    """The sum of a*f over a nonempty list of (a, f) pairs, each f a scalar.
    A coefficient type with a fused ``sum_scaled`` (SparseMatrix) normalises
    each entry of the sum once; other types scale and add term by term."""
    a, f = pairs[0]
    fused = getattr(type(a), "sum_scaled", None)
    if fused is not None:
        return fused(pairs)
    acc = a * f
    for a, f in pairs[1:]:
        acc = acc + a * f
    return acc


def _invert(x):
    if isinstance(x, (int, Fraction)):
        if not x:
            raise SingularLead("scalar leading coefficient is zero")
        return 1 / Fraction(x)
    return x.inverse()


class UniPoly:
    """Dense polynomial in one variable u, ascending coefficient list."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def from_roots(cls, roots):
        """Monic scalar polynomial prod (u - r): after each root r, every
        coefficient c_k becomes c_{k-1} - r c_k.  The coefficients are of
        the roots' type (ints from ints); the leading one is the int 1."""
        c = [1]
        for r in roots:
            c.append(c[-1])
            for k in range(len(c) - 2, 0, -1):
                c[k] = c[k - 1] - r * c[k]
            c[0] = -r * c[0]
        return cls(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return None  # caller supplies its own zero when needed

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        return UniPoly.sum_products([(self, other)])

    @classmethod
    def sum_products(cls, pairs):
        """The sum of a*b over a list of (a, b) polynomial pairs: the
        coefficient of u^m is one sum of a_i b_{m-i} over every pair."""
        pairs = [(a.coeffs, b.coeffs) for a, b in pairs if a.coeffs and b.coeffs]
        if not pairs:
            return UniPoly([])
        terms = [[] for _ in range(max(len(a) + len(b) for a, b in pairs) - 1)]
        for a, b in pairs:
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    terms[i + j].append((x, y))
        return UniPoly([_sum_products(t) for t in terms])

    def __rmul__(self, other):
        return UniPoly([other * c for c in self.coeffs])

    def __call__(self, u0):
        """Exact evaluation at a scalar point (Horner), in the arithmetic of
        the coefficients and the point: ints at an int point stay ints."""
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * u0 + c
        return acc


def poly_shift(p, c):
    """P(u) -> P(u + c), exact binomial expansion.  An integral c stays an
    int, so the binomial weights are ints and int coefficients give int
    coefficients; a Fraction is built only for a c that is not integral."""
    if not isinstance(c, int):
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    a = p.coeffs
    n = len(a)
    if n == 0 or not c:
        return UniPoly(list(a))
    pw = [1]
    for _ in range(1, n):
        pw.append(pw[-1] * c)
    # coefficient of u^j: sum_{k >= j} binom(k, j) c^{k-j} a_k
    return UniPoly([_sum_scaled([(a[k], comb(k, j) * pw[k - j]) for k in range(j, n)])
                    for j in range(n)])


def lagrange_basis(nodes):
    """Scalar Lagrange basis as one (numerator, denominator) pair per node:
    L_j = num_j / den_j, num_j(nodes[m]) = [j == m] * den_j.

    num_j = prod_{m != j} (u - x_m) is the master polynomial prod_m (u - x_m)
    divided by (u - x_j) synthetically, and den_j = prod_{m != j} (x_j - x_m).
    Nothing is divided, so int nodes give int numerators and denominators."""
    if len(set(nodes)) != len(nodes):
        raise DegenerateNodes("interpolation nodes must be pairwise distinct")
    master = UniPoly.from_roots(nodes).coeffs
    p = len(nodes)
    pairs = []
    for j, xj in enumerate(nodes):
        num = [None] * p
        num[p - 1] = master[p]
        for k in range(p - 1, 0, -1):
            num[k - 1] = master[k] + xj * num[k]
        den = 1
        for m, xm in enumerate(nodes):
            if m != j:
                den *= xj - xm
        pairs.append((UniPoly(num), den))
    return pairs


def perm_sign(sigma):
    """Sign of a permutation given as a sequence of distinct comparables."""
    sgn = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sgn = -sgn
    return sgn


def leading_minors(n, entry):
    """The chain of leading minors of the n x n array entry(i, c), n >= 1:
    element c is the column determinant of rows and columns 0..c, so the
    last element is column_det(n, entry).

    Prefix recursion in column order: the minor on row set S and columns
    0..|S|-1 is sum_{i in S} (-1)^{#{s in S: s > i}} minor(S - i)
    entry(i, |S|-1), each product taken left to right, so the entries need
    not commute.  Level c forms c + 1 products for each (c+1)-subset below
    the top level and n for the full set at the top, n(2^(n-1) - 1)
    products in all, and each minor is one sum of its products; the
    leading minor of level c is the one on rows 0..c, formed on the way
    up."""
    minors = {(i,): entry(i, 0) for i in range(n)}
    chain = [minors[(0,)]]
    for c in range(1, n):
        column = [entry(i, c) for i in range(n)]
        signed = (column, [-x for x in column])
        nxt = {}
        for rows in combinations(range(n), c + 1) if c < n - 1 else [tuple(range(n))]:
            # the row at position p of S has c - p larger rows in S
            nxt[rows] = _sum_products(
                [(minors[rows[:p] + rows[p + 1:]], signed[(c - p) & 1][i])
                 for p, i in enumerate(rows)])
        minors = nxt
        chain.append(minors[tuple(range(c + 1))])
    return chain


def column_det(n, entry):
    """sum over permutations sigma of sgn(sigma) entry(sigma(0), 0) ...
    entry(sigma(n-1), n-1) for n >= 1, each product taken left to right in
    column order, so the entries need not commute: the last element of
    leading_minors(n, entry)."""
    return leading_minors(n, entry)[-1]


class Terms:
    """Sparse linear combination: a dict {key: coefficient} that never
    stores a zero coefficient.  Subclasses supply _new(terms), which
    builds a sibling in the same context (variables, rank, model)."""

    __slots__ = ("terms",)

    def _new(self, terms):
        raise NotImplementedError

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


def series_product(a, b):
    """The truncated product of two series in u^{-1}, as long as the
    shorter: the coefficient of u^{-m} is one sum of a_t b_{m-t}."""
    return [_sum_products([(a[t], b[m - t]) for t in range(m + 1)])
            for m in range(min(len(a), len(b)))]


def series_inverse(s):
    """Two-sided inverse of s, as long as s."""
    c0inv = _invert(s[0])
    out = [c0inv]
    for r in range(1, len(s)):
        acc = _sum_products([(s[t], out[r - t]) for t in range(1, r + 1)])
        out.append(-(c0inv * acc))
    return out


def poly_to_inv_series(p, k, order):
    """The series p(u) u^{-k} through u^{-order}: its u^{-m} coefficient is
    the u^{k-m} one of p, read off with nothing divided.  Requires
    deg p <= k, so that the series has no positive power of u."""
    if p.degree > k:
        raise ArityError("degree %d exceeds the power %d of u" % (p.degree, k))
    zero = _zero_like(p.coeffs[0]) if p.coeffs else Fraction(0)
    return [zero if c is None else c for c in map(p.coeff, range(k, k - order - 1, -1))]
