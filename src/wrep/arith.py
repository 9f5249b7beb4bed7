"""Exact scalar / polynomial / truncated-series arithmetic.

Coefficients are either Fraction scalars or objects exposing the same
arithmetic protocol (SparseMatrix, MPoly): +, -, *, unary -, truthiness
for zero-testing.  Polynomials are coefficient lists in ascending powers
of u; inverse series are truncated expansions c_0 + c_1 u^{-1} + ... up
to a stated order.  Terms is the shared base of the sparse linear
combinations (MPoly and the skew and operator algebras), and leibniz_det
the one permutation-sum determinant.
"""

from fractions import Fraction
from itertools import permutations
from math import comb

from .errors import ArityError, DegenerateNodes, SingularLead


def _zero_like(x):
    if isinstance(x, Fraction):
        return Fraction(0)
    return x.zero_like()


def _sum_products(pairs):
    """The sum of a*b over a nonempty list of (a, b) pairs.  A coefficient
    type with a fused ``sum_products`` (SparseMatrix) normalises each entry
    of the sum once; other types add the products one by one."""
    a, b = pairs[0]
    fused = getattr(type(a), "sum_products", None)
    if fused is not None and type(b) is type(a):
        return fused(pairs)
    acc = a * b
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


def _invert(x):
    if isinstance(x, Fraction):
        if not x:
            raise SingularLead("scalar leading coefficient is zero")
        return 1 / x
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
        """Monic scalar polynomial prod (u - r)."""
        p = cls([Fraction(1)])
        for r in roots:
            p = p * cls([-Fraction(r), Fraction(1)])
        return p

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
        if not self.coeffs or not other.coeffs:
            return UniPoly([])
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        z = _zero_like(self.coeffs[0] * other.coeffs[0])
        return UniPoly([z if c is None else c for c in out])

    def __rmul__(self, other):
        return UniPoly([other * c for c in self.coeffs])

    def __call__(self, u0, zero=Fraction(0)):
        """Exact evaluation at a scalar point (Horner); the zero polynomial
        evaluates to ``zero``, which matrix-valued callers pass."""
        u0 = Fraction(u0)
        if not self.coeffs:
            return zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * u0 + c
        return acc


def poly_shift(p, c):
    """P(u) -> P(u + c), exact binomial expansion."""
    c = Fraction(c)
    n = len(p.coeffs)
    if n == 0 or not c:
        return UniPoly(list(p.coeffs))
    out = [_zero_like(p.coeffs[0]) for _ in range(n)]
    for k, a in enumerate(p.coeffs):
        if not a:
            continue
        pw = Fraction(1)
        for j in range(k, -1, -1):
            out[j] = out[j] + a * (comb(k, k - j) * pw)
            pw *= c
    return UniPoly(out)


def lagrange_basis(nodes):
    """Scalar Lagrange basis polynomials L_j, L_j(nodes[m]) = [j == m]."""
    if len(set(nodes)) != len(nodes):
        raise DegenerateNodes("interpolation nodes must be pairwise distinct")
    polys = []
    for j, xj in enumerate(nodes):
        num = UniPoly([Fraction(1)])
        den = Fraction(1)
        for m, xm in enumerate(nodes):
            if m == j:
                continue
            num = num * UniPoly([-xm, Fraction(1)])
            den *= xj - xm
        polys.append(UniPoly([c / den for c in num.coeffs]))
    return polys


def perm_sign(sigma):
    """Sign of a permutation given as a sequence of distinct comparables."""
    sgn = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sgn = -sgn
    return sgn


def leibniz_det(n, entry):
    """sum over permutations sigma of sgn(sigma) entry(sigma(0), 0) ...
    entry(sigma(n-1), n-1) for n >= 1.

    Each product is taken left to right in column order, so the entries
    need not commute (column determinants of matrix-valued entries)."""
    total = None
    for sigma in permutations(range(n)):
        prod = entry(sigma[0], 0)
        for c in range(1, n):
            prod = prod * entry(sigma[c], c)
        if perm_sign(sigma) < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


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


class InvSeries:
    """Truncated series c_0 + c_1 u^{-1} + ... + c_R u^{-R}."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ArityError("series order must be >= 0")
        if len(coeffs) != order + 1:
            raise ArityError("coefficient list must have order+1 entries")
        self.order = order
        self.coeffs = coeffs

    def coeff(self, r):
        return self.coeffs[r]

    def __eq__(self, other):
        return (
            isinstance(other, InvSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        r = min(self.order, other.order)
        return InvSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(r + 1)], r
        )

    def __neg__(self):
        return InvSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, InvSeries):
            return InvSeries([c * other for c in self.coeffs], self.order)
        r = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return InvSeries(
            [_sum_products([(a[t], b[m - t]) for t in range(m + 1)])
             for m in range(r + 1)], r)

    def __rmul__(self, other):
        return InvSeries([other * c for c in self.coeffs], self.order)


def series_inverse(s):
    """Two-sided inverse of s through its order."""
    c0inv = _invert(s.coeffs[0])
    out = [c0inv]
    for r in range(1, s.order + 1):
        acc = _sum_products([(s.coeffs[t], out[r - t]) for t in range(1, r + 1)])
        out.append(-(c0inv * acc))
    return InvSeries(out, s.order)


def series_arg_shift(s, c):
    """s(u) -> series of s(v + c) in v^{-1}, same truncation order."""
    c = Fraction(c)
    R = s.order
    if not c:
        return InvSeries(list(s.coeffs), R)
    out = [s.coeffs[0]]
    for m in range(1, R + 1):
        acc = None
        for r in range(1, m + 1):
            t = m - r
            factor = Fraction((-1) ** t * comb(r + t - 1, t)) * c**t
            if not factor:
                continue
            term = s.coeffs[r] * factor
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else _zero_like(s.coeffs[0]))
    return InvSeries(out, R)


def poly_to_inv_series(p, prefactor_roots, order):
    """Series r(u) with P(u) = prod (u - c)^m * r(u) through the order.

    prefactor_roots is a list of (root, multiplicity); requires
    deg P <= total multiplicity so the quotient is a genuine series in
    u^{-1} (equality in the monic case, strict for the B/C prefactors).
    """
    roots = []
    for c, m in prefactor_roots:
        roots.extend([Fraction(c)] * m)
    mult = len(roots)
    if p.degree > mult:
        raise ArityError("prefactor multiplicity smaller than the degree")
    den = UniPoly.from_roots(roots)
    # numerator/denominator coefficients relative to u^{mult}
    if p.coeffs:
        zero = _zero_like(p.coeffs[0])
    else:
        zero = Fraction(0)
    num = []
    for r in range(order + 1):
        k = mult - r
        c = p.coeff(k) if k >= 0 else None
        num.append(c if c is not None else zero)
    dcoeffs = [
        den.coeffs[mult - r] if mult - r >= 0 else Fraction(0)
        for r in range(order + 1)
    ]
    # divide by the monic scalar denominator series
    out = []
    for m in range(order + 1):
        acc = num[m]
        for t in range(1, m + 1):
            if dcoeffs[t]:
                acc = acc - out[m - t] * dcoeffs[t]
        out.append(acc)
    return InvSeries(out, order)
