"""Symmetric differential operators and the skew group algebra of shifts.

WeylElement models the algebra generated by x_i (Laurent allowed) and
partial derivatives with the relation d_i x_j - x_j d_i = delta_ij.
ShiftAlgebraElement models polynomials in t_1..t_n twisted by an integer
lattice whose k-th generator shifts t_k by -1; the isomorphism sends the
k-th lattice generator to x_k and t_k to x_k d_k.

rewrite_in_sigma expresses a symmetric operator in terms of the
elementary symmetric polynomials and the pushed-forward derivations
D_j = sum_i (J^{-1})_{ij} d_i: a dict {beta: coefficient of D^beta as a
polynomial in the sigma}.  The shift twist and every passage between
sigma- and x-polynomials is one MPoly.evaluate call.  Every entry of
J^{-1} is a cofactor over det J, so RatOp keeps its coefficients as
polynomials over one power of det J; its composition rebuilds the
operator from the sigma data for an exact round-trip check with no
rational-function gcd."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

from .arith import Terms, column_det
from .errors import NotInvariant, InvariantViolation
from .mpoly import MPoly


def falling(c, t):
    """Falling factorial c (c-1) ... (c-t+1); t a nonnegative integer."""
    acc = Fraction(1)
    for s in range(t):
        acc *= c - s
    return acc


def _xnames(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def _snames(n):
    return tuple("s%d" % (i + 1) for i in range(n))


class WeylElement(Terms):
    """Normal-ordered sum of terms c * x^a d^b; a may have negative parts."""

    __slots__ = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def const(cls, n, c):
        z = (0,) * n
        return cls(n, {(z, z): Fraction(c)})

    @classmethod
    def x(cls, n, i, power=1):
        a = [0] * n
        a[i] = power
        return cls(n, {(tuple(a), (0,) * n): Fraction(1)})

    @classmethod
    def d(cls, n, i, power=1):
        b = [0] * n
        b[i] = power
        return cls(n, {((0,) * n, tuple(b)): Fraction(1)})

    def _new(self, terms):
        return WeylElement(self.n, terms)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return WeylElement(
                self.n, {k: c * other for k, c in self.terms.items()}
            )
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                # d^b1 x^a2 = sum_t prod binom(b1,t) falling(a2,t) x^{a2-t} d^{b1-t}
                ranges = [range(min(b, max(a, 0)) + 1) if a >= 0 else range(b + 1)
                          for a, b in zip(a2, b1)]
                for t in product(*ranges):
                    f = c1 * c2
                    for i in range(self.n):
                        f *= comb(b1[i], t[i]) * falling(a2[i], t[i])
                    if not f:
                        continue
                    a = tuple(a1[i] + a2[i] - t[i] for i in range(self.n))
                    b = tuple(b1[i] + b2[i] - t[i] for i in range(self.n))
                    out[(a, b)] = out.get((a, b), 0) + f
        return WeylElement(self.n, out)

    __rmul__ = __mul__

    def commutator(self, other):
        return self * other - other * self

    def permute(self, perm):
        """Simultaneous permutation of x- and d-indices; perm maps old
        index -> new index."""
        out = {}
        for (a, b), c in self.terms.items():
            a2 = [0] * self.n
            b2 = [0] * self.n
            for i in range(self.n):
                a2[perm[i]] = a[i]
                b2[perm[i]] = b[i]
            out[(tuple(a2), tuple(b2))] = c
        return WeylElement(self.n, out)

    def is_symmetric(self):
        for a in range(self.n - 1):
            perm = list(range(self.n))
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
            if self.permute(perm) != self:
                return False
        return True

    def d_order(self):
        return max((sum(b) for (_, b) in self.terms), default=0)

    def apply_to_poly(self, p):
        """Image of an MPoly in the x-variables under the operator."""
        names = p.names
        out = MPoly.zero(names)
        for (a, b), c in self.terms.items():
            for e, ce in p.terms.items():
                f = c * ce
                ok = True
                newe = []
                for i in range(self.n):
                    f *= falling(e[i], b[i])
                    if not f:
                        ok = False
                        break
                    ne = e[i] - b[i] + a[i]
                    if ne < 0:
                        raise InvariantViolation(
                            "operator image leaves the polynomial ring"
                        )
                    newe.append(ne)
                if ok and f:
                    out = out + MPoly(names, {tuple(newe): f})
        return out


def check_weyl_relations(n):
    """d_i x_j - x_j d_i = delta_ij for all i, j; returns the check count."""
    count = 0
    for i in range(n):
        for j in range(n):
            lhs = WeylElement.d(n, i).commutator(WeylElement.x(n, j))
            want = WeylElement.const(n, 1 if i == j else 0)
            if lhs != want:
                raise InvariantViolation("Weyl relation fails at (%d,%d)" % (i, j))
            count += 1
    return count


class ShiftAlgebraElement(Terms):
    """Sum of terms r(t) * m with m in the integer lattice; the product
    twists by (r1 m1)(r2 m2) = r1 * r2^{m1} (m1 + m2), where r^{m} shifts
    t_k to t_k - m_k."""

    __slots__ = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for m, r in terms.items():
                if r:
                    self.terms[m] = r

    @classmethod
    def t(cls, n, k, power=1):
        p = MPoly.var(_tnames(n), k) ** power
        return cls(n, {(0,) * n: p})

    @classmethod
    def sigma(cls, n, k, power=1):
        m = [0] * n
        m[k] = power
        return cls(n, {tuple(m): MPoly.const(_tnames(n), 1)})

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: MPoly.const(_tnames(n), c)})

    def _new(self, terms):
        return ShiftAlgebraElement(self.n, terms)

    def __eq__(self, other):
        return (
            isinstance(other, ShiftAlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __mul__(self, other):
        out = {}
        t = [MPoly.var(_tnames(self.n), k) for k in range(self.n)]
        for m1, r1 in self.terms.items():
            shift = [t[k] - m1[k] for k in range(self.n)]
            for m2, r2 in other.terms.items():
                m = tuple(m1[k] + m2[k] for k in range(self.n))
                prod = r1 * (r2.evaluate(shift) if any(m1) else r2)
                s = out.get(m)
                out[m] = prod if s is None else s + prod
        return ShiftAlgebraElement(self.n, out)


def _tnames(n):
    return tuple("t%d" % (i + 1) for i in range(n))


@lru_cache(maxsize=None)
def _xd(n):
    """x_k d_k for k < n, built once per n."""
    return tuple(WeylElement.x(n, k) * WeylElement.d(n, k) for k in range(n))


def shift_algebra_iso(el):
    """The embedding sending the k-th lattice generator to x_k and t_k to
    x_k d_k (monomials t^a m map to (x d)^a x^m)."""
    n = el.n
    xd = _xd(n)
    out = WeylElement(n, {})
    for m, r in el.terms.items():
        for e, c in r.terms.items():
            w = WeylElement.const(n, c)
            for k, power in enumerate(e):
                for _ in range(power):
                    w = w * xd[k]
            w = w * WeylElement(
                n, {(m, (0,) * n): Fraction(1)}
            )
            out = out + w
    return out


def check_shift_iso(n):
    """The map respects the twisted product on all generator pairs and the
    defining commutation sigma_k t_m = (t_m - delta_km) sigma_k."""
    gens = [ShiftAlgebraElement.t(n, k) for k in range(n)]
    gens += [ShiftAlgebraElement.sigma(n, k) for k in range(n)]
    gens += [ShiftAlgebraElement.sigma(n, k, -1) for k in range(n)]
    images = [shift_algebra_iso(g) for g in gens]
    count = 0
    for a, image_a in zip(gens, images):
        for b, image_b in zip(gens, images):
            if shift_algebra_iso(a * b) != image_a * image_b:
                raise InvariantViolation("the shift-algebra map is not multiplicative")
            count += 1
    for k in range(n):
        for m in range(n):
            lhs = ShiftAlgebraElement.sigma(n, k) * ShiftAlgebraElement.t(n, m)
            rhs = (ShiftAlgebraElement.t(n, m)
                   - ShiftAlgebraElement.const(n, 1 if k == m else 0)) \
                * ShiftAlgebraElement.sigma(n, k)
            if lhs != rhs:
                raise InvariantViolation("twisted commutation fails at (%d,%d)" % (k, m))
            if shift_algebra_iso(lhs) != shift_algebra_iso(rhs):
                raise InvariantViolation("image of the twisted commutation fails")
            count += 1
    return count


def elementary_poly(names, j):
    """j-th elementary symmetric polynomial of the variables (j >= 0)."""
    n = len(names)
    return MPoly(names, {tuple(int(i in combo) for i in range(n)): 1
                         for combo in combinations(range(n), j)})


@lru_cache(maxsize=None)
def _sigmas(n):
    """sigma_1 .. sigma_n of the x-variables, built once per n."""
    names = _xnames(n)
    return tuple(elementary_poly(names, j + 1) for j in range(n))


def vandermonde(names):
    acc = MPoly.const(names, 1)
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            acc = acc * (MPoly.var(names, i) - MPoly.var(names, j))
    return acc


def jacobian_inverse(n):
    """The adjugate of J, J_{ij} = d sigma_i / d x_j, and det J, so that
    J^{-1} = adj / det J; det J must be +/- the Vandermonde factor."""
    names = _xnames(n)
    J = [[sig.derivative(j) for j in range(n)] for sig in _sigmas(n)]
    det = column_det(n, lambda i, j: J[i][j])
    delta = vandermonde(names)
    if det != delta and det != -delta:
        raise InvariantViolation("det J is not +/- the Vandermonde factor")
    adj = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            # cofactor expansion: adj_{ji} = (-1)^{i+j} minor_{ij}
            minor = [
                [J[a][b] for b in range(n) if b != j]
                for a in range(n) if a != i
            ]
            if n == 1:  # the empty minor's determinant
                cof = MPoly.const(names, 1)
            else:
                cof = column_det(n - 1, lambda a, b: minor[a][b])
            adj[j][i] = cof * (-1) ** (i + j)
    return adj, det


class RatOp(Terms):
    """Differential operator sum_b (Q_b / det^k) d^b over one power k of a
    fixed nonzero polynomial det: dict {derivative multi-index: MPoly
    numerator Q_b}."""

    __slots__ = ("n", "det", "k")

    def __init__(self, n, det, k=0, terms=None):
        self.n = n
        self.det = det
        self.k = k
        self.terms = {}
        if terms:
            for b, q in terms.items():
                if q:
                    self.terms[b] = q

    @classmethod
    def from_weyl(cls, w, det):
        names = _xnames(w.n)
        out = {}
        for (a, b), c in w.terms.items():
            if any(e < 0 for e in a):
                raise InvariantViolation("Laurent term has no RatOp image")
            mono = MPoly(names, {a: c})
            out[b] = out[b] + mono if b in out else mono
        return cls(w.n, det, 0, out)

    def _new(self, terms):
        return RatOp(self.n, self.det, self.k, terms)

    def lift(self, k):
        """The same operator written over det^k, for k >= self.k."""
        if k == self.k:
            return self
        f = self.det ** (k - self.k)
        return RatOp(self.n, self.det, k, {b: q * f for b, q in self.terms.items()})

    def __add__(self, other):
        k = max(self.k, other.k)
        return Terms.__add__(self.lift(k), other.lift(k))

    def __eq__(self, other):
        # det is nonzero, so over a common power the numerators decide
        k = max(self.k, other.k)
        return self.lift(k).terms == other.lift(k).terms

    def __mul__(self, other):
        """Operator composition via the Leibniz rule.  A coefficient's
        derivative stays over a power of det by the quotient rule
        d_i(Q / det^m) = (d_i Q * det - m * Q * d_i det) / det^(m+1)."""
        n, det = self.n, self.det
        out = RatOp(n, det, self.k + other.k)
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                for t in product(*(range(x + 1) for x in b1)):
                    g, m = c2, other.k
                    factor = 1
                    for i in range(n):
                        factor *= comb(b1[i], t[i])
                        for _ in range(t[i]):
                            if m:
                                g = g.derivative(i) * det - g * det.derivative(i) * m
                                m += 1
                            else:
                                g = g.derivative(i)
                    b = tuple(b1[i] - t[i] + b2[i] for i in range(n))
                    out = out + RatOp(n, det, self.k + m, {b: c1 * g * factor})
        return out


def rewrite_in_sigma(w):
    """Express a symmetric WeylElement as sum_beta c_beta(sigma) D^beta:
    the dict {beta: c_beta}, each c_beta a nonzero MPoly in the s-names.

    The coefficients are recovered by applying the operator to sigma
    powers in graded order: c_beta is w(sigma^beta) minus polynomial
    multiples of the earlier c_gamma, divided by an integer factorial, so
    it is a polynomial, rewritten in the sigma by symmetric_reduce."""
    n = w.n
    if not w.is_symmetric():
        raise NotInvariant("the operator is not symmetric")
    sig, snames = _sigmas(n), _snames(n)
    maxord = w.d_order()

    betas = sorted(
        (b for b in product(range(maxord + 1), repeat=n) if sum(b) <= maxord),
        key=lambda b: (sum(b), b),
    )
    coeffs = {}
    for beta in betas:
        rhs = w.apply_to_poly(MPoly(snames, {beta: 1}).evaluate(sig))
        for gamma in betas:
            if gamma == beta:
                break
            if any(g > b for g, b in zip(gamma, beta)):
                continue
            f = Fraction(1)
            for j in range(n):
                f *= falling(beta[j], gamma[j])
            if not f:
                continue
            rest = MPoly(snames, {tuple(b - g for b, g in zip(beta, gamma)): f})
            rhs = rhs - coeffs[gamma] * rest.evaluate(sig)
        fact = 1
        for j in range(n):
            fact *= factorial(beta[j])
        coeffs[beta] = rhs * Fraction(1, fact)
    return {beta: symmetric_reduce(c) for beta, c in coeffs.items() if c}


def symmetric_reduce(p):
    """Rewrite a symmetric polynomial in the x-variables as a polynomial
    in the elementary symmetric polynomials (classical leading-term
    elimination)."""
    n = len(p.names)
    sig, snames = _sigmas(n), _snames(n)
    out = MPoly.zero(snames)
    work = p
    while work:
        e, c = work.lex_leading()
        if any(e[i] < e[i + 1] for i in range(n - 1)):
            raise NotInvariant("polynomial is not symmetric")
        sexp = tuple(
            e[i] - (e[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        term = MPoly(snames, {sexp: c})
        out = out + term
        work = work - term.evaluate(sig)
    return out


def round_trip(w):
    """Rewrite the operator in sigma-data, rebuild it and compare.

    Returns the dict {beta: sigma-polynomial} of rewrite_in_sigma when the
    composed RatOp equals the original."""
    n = w.n
    data = rewrite_in_sigma(w)
    adj, det = jacobian_inverse(n)
    D = []
    for j in range(n):
        terms = {}
        for i in range(n):
            b = [0] * n
            b[i] = 1
            # dx_i/dsigma_j = (J^{-1})_{ij} = adj_{ij} / det
            terms[tuple(b)] = adj[i][j]
        D.append(RatOp(n, det, 1, terms))
    total = RatOp(n, det)
    for beta, sp in data.items():
        op = RatOp(n, det, 0, {(0,) * n: sp.evaluate(_sigmas(n))})
        for j in range(n):
            for _ in range(beta[j]):
                op = op * D[j]
        total = total + op
    if total != RatOp.from_weyl(w, det):
        raise InvariantViolation("round trip does not reproduce the operator")
    return data
