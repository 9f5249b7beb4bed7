"""Multivariate polynomials and rational functions over exact rationals.

MPoly is a sparse dict {exponent tuple: coefficient} tied to a fixed tuple
of variable names (exponents may be negative, but evaluate raises on them).
A coefficient keeps the type it is given: int input gives int
coefficients, and a Fraction appears only where a division happens (MRat,
exact_div, gcd); no operation yields a float.
MPoly.evaluate is the one substitution: at scalar points it evaluates,
at MPoly points it changes variables (noether's shift twist and its
passage between sigma- and x-polynomials), at operator points it
substitutes (noether's t_k -> x_k d_k).  MPoly.sum_products is the one
product: each output coefficient of a sum of products is one sum.

MRat is a reduced quotient of two MPoly; lowest-terms cancellation is
delegated to sympy's sparse polynomial rings, and the canonical form makes
the denominator's lex-leading coefficient 1.

No wrep command uses MRat, MPoly.gcd or MPoly.exact_div: they are the
reference the tests compare galois's factored coefficients and noether's
operators against, and sympy is imported only when they run.  They stay
here while the benchmark's tracer (perfbench/tracer.py) binds MPoly.gcd
and MRat.__eq__; every other test-only reference lives in tests/oracles.py.
"""

from fractions import Fraction
from operator import add

from .arith import Terms
from .errors import EvaluationError

_RING_CACHE = {}


def _sympy_ring(names):
    ring = _RING_CACHE.get(names)
    if ring is None:
        from sympy import QQ
        from sympy.polys.rings import ring as make_ring

        ring = make_ring(list(names), QQ)[0]
        _RING_CACHE[names] = ring
    return ring


class MPoly(Terms):
    __slots__ = ("names",)

    def __init__(self, names, terms=None, _clean=False):
        self.names = tuple(names)
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {tuple(e): c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, names):
        return cls(names)

    @classmethod
    def const(cls, names, c):
        if not c:
            return cls(names)
        return cls(names, {(0,) * len(names): c}, _clean=True)

    @classmethod
    def var(cls, names, index, power=1):
        e = [0] * len(names)
        e[index] = power
        return cls(names, {tuple(e): 1}, _clean=True)

    def zero_like(self):
        return MPoly(self.names)

    def _new(self, terms):
        return MPoly(self.names, terms, _clean=True)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.names == other.names
            and self.terms == other.terms
        )

    def _chk(self, other):
        if self.names != other.names:
            raise ValueError("mixed variable sets: %r vs %r" % (self.names, other.names))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.names, other)
        self._chk(other)
        return super().__add__(other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly(self.names)
            return MPoly(
                self.names, {e: v * other for e, v in self.terms.items()}, _clean=True
            )
        return MPoly.sum_products([(self, other)])

    __rmul__ = __mul__

    @classmethod
    def sum_products(cls, pairs):
        """The sum of a*b over a nonempty list of (a, b) pairs over one
        variable set: each output coefficient is one sum over every pair."""
        first = pairs[0][0]
        out = {}
        for a, b in pairs:
            first._chk(a)
            first._chk(b)
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = tuple(map(add, e1, e2))
                    s = out.get(e)
                    out[e] = c1 * c2 if s is None else s + c1 * c2
        return cls(first.names, {e: c for e, c in out.items() if c}, _clean=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        acc = MPoly.const(self.names, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.names), 0)

    def evaluate(self, point):
        """Substitute point[i] for the i-th variable.  The points are all
        scalars (ints or Fractions), giving a scalar in the arithmetic of
        the coefficients and the points (ints at int points stay ints), or
        all MPolys over one variable set,
        giving an MPoly in those variables (also when self is constant or
        zero), or commuting operators (noether's x_k d_k), giving an
        operator.  Each variable's powers are formed once per call; a term
        starts from its first power and is multiplied by its coefficient
        unless that is the int 1.  A Laurent term (a negative exponent)
        raises ValueError."""
        if point and not isinstance(point[0], (int, Fraction)):
            acc = point[0].zero_like()
        else:
            acc = 0
        powers = [[1, p] for p in point]  # powers[i][k] == point[i] ** k
        for e, c in self.terms.items():
            v = None
            for idx, k in enumerate(e):
                if k:
                    if k < 0:
                        raise ValueError("negative exponent in %r" % (e,))
                    pw = powers[idx]
                    while len(pw) <= k:
                        pw.append(pw[-1] * point[idx])
                    v = pw[k] if v is None else v * pw[k]
            if v is None:
                v = c
            elif c != 1 or type(c) is not int:
                v = v * c
            acc = acc + v
        return acc

    def permute_vars(self, perm):
        """perm maps old variable index -> new variable index."""
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(e)
            for idx, k in enumerate(e):
                e2[perm[idx]] = k
            out[tuple(e2)] = c
        return MPoly(self.names, out, _clean=True)

    def derivative(self, index):
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if not k:
                continue
            e2 = e[:index] + (k - 1,) + e[index + 1 :]
            out[e2] = out.get(e2, 0) + c * k
        return MPoly(self.names, out, _clean=True)

    def lex_leading(self):
        """(exponent, coefficient) of the lex-greatest monomial."""
        e = max(self.terms)
        return e, self.terms[e]

    def _to_sympy(self):
        ring = _sympy_ring(self.names)
        dom = ring.domain
        return ring.from_dict(
            {e: dom(c.numerator, c.denominator) for e, c in self.terms.items()}
        )

    @classmethod
    def _from_sympy(cls, names, el):
        terms = {
            tuple(e): Fraction(int(c.numerator), int(c.denominator))
            for e, c in el.terms()
        }
        return cls(names, terms, _clean=True)

    def gcd(self, other):
        self._chk(other)
        if not self:
            return other
        if not other:
            return self
        g = self._to_sympy().gcd(other._to_sympy())
        return MPoly._from_sympy(self.names, g)

    def exact_div(self, other):
        """Exact quotient self / other; raises if the division is not exact."""
        self._chk(other)
        q, r = divmod(self._to_sympy(), other._to_sympy())
        if r:
            raise ValueError("division is not exact")
        return MPoly._from_sympy(self.names, q)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                "%s^%d" % (n, k) if k > 1 else n
                for n, k in zip(self.names, e)
                if k
            )
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return " + ".join(bits)


class MRat:
    """Reduced quotient of two MPoly with a canonical denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = MPoly.const(num.names, 1)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num, den):
        if not num:
            return num, MPoly.const(num.names, 1)
        g = num.gcd(den)
        if not (g.is_constant() and g.constant_value() == 1):
            num = num.exact_div(g)
            den = den.exact_div(g)
        _, lead = den.lex_leading()
        if lead != 1:
            inv = Fraction(1, lead)
            num = num * inv
            den = den * inv
        return num, den

    @classmethod
    def from_poly(cls, p):
        return cls(p, MPoly.const(p.names, 1), _reduced=True)

    @classmethod
    def const(cls, names, c):
        return cls.from_poly(MPoly.const(names, c))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MRat.const(self.num.names, other)
        if not isinstance(other, MRat):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MRat.const(self.num.names, other)
        return MRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return MRat(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MRat.const(self.num.names, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MRat(self.num * other, self.den)
        if isinstance(other, MPoly):
            other = MRat.from_poly(other)
        return MRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MRat.const(self.num.names, other)
        if isinstance(other, MPoly):
            other = MRat.from_poly(other)
        return MRat(self.num * other.den, self.den * other.num)

    def evaluate(self, point):
        d = self.den.evaluate(point)
        if not d:
            raise EvaluationError("denominator vanishes at the evaluation point")
        return Fraction(self.num.evaluate(point), d)

    def permute_vars(self, perm):
        return MRat(self.num.permute_vars(perm), self.den.permute_vars(perm))

    def derivative(self, index):
        # quotient rule; reduction happens in the constructor
        return MRat(
            self.num.derivative(index) * self.den
            - self.num * self.den.derivative(index),
            self.den * self.den,
        )

    def __repr__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den)
