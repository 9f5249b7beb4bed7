"""Symmetric differential operators and the skew group algebra of shifts.

WeylElement models the algebra generated by x_i (Laurent allowed) and
partial derivatives with the relation d_i x_j - x_j d_i = delta_ij.
ShiftAlgebraElement models polynomials in t_1..t_n twisted by an integer
lattice whose k-th generator shifts t_k by -1; the isomorphism sends the
k-th lattice generator to x_k and t_k to x_k d_k.

rewrite_in_sigma expresses a symmetric operator in terms of the
elementary symmetric polynomials and the pushed-forward derivations
D_j = sum_i (J^{-1})_{ji} d_i, with coefficients that are polynomials in
the sigma divided by a power of the discriminant; RatOp composition
rebuilds the operator from that data for a round-trip identity check."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .arith import Terms, leibniz_det
from .errors import NotInvariant, InvariantViolation
from .mpoly import MPoly, MRat


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


# Largest discriminant power rewrite_in_sigma tries when clearing the
# denominator of a coefficient.
MAX_DISC_POWER = 6


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
        for m1, r1 in self.terms.items():
            for m2, r2 in other.terms.items():
                shifted = r2
                for k in range(self.n):
                    if m1[k]:
                        shifted = _tshift(shifted, k, -m1[k])
                m = tuple(m1[k] + m2[k] for k in range(self.n))
                prod = r1 * shifted
                s = out.get(m)
                out[m] = prod if s is None else s + prod
        return ShiftAlgebraElement(self.n, out)


def _tnames(n):
    return tuple("t%d" % (i + 1) for i in range(n))


def _tshift(p, k, step):
    """Substitute t_k -> t_k + step in an MPoly."""
    names = p.names
    out = MPoly.zero(names)
    tk = MPoly.var(names, k) + MPoly.const(names, step)
    for e, c in p.terms.items():
        term = MPoly.const(names, c)
        for idx, power in enumerate(e):
            if not power:
                continue
            base = tk if idx == k else MPoly.var(names, idx)
            term = term * base**power
        out = out + term
    return out


def shift_algebra_iso(el):
    """The embedding sending the k-th lattice generator to x_k and t_k to
    x_k d_k (monomials t^a m map to (x d)^a x^m)."""
    n = el.n
    out = WeylElement(n, {})
    for m, r in el.terms.items():
        for e, c in r.terms.items():
            w = WeylElement.const(n, c)
            for k in range(n):
                xd = WeylElement.x(n, k) * WeylElement.d(n, k)
                for _ in range(e[k]):
                    w = w * xd
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
    count = 0
    for a in gens:
        for b in gens:
            if shift_algebra_iso(a * b) != shift_algebra_iso(a) * shift_algebra_iso(b):
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
    out = MPoly.zero(names) if j else MPoly.const(names, 1)
    if j == 0:
        return out
    from itertools import combinations

    for combo in combinations(range(n), j):
        e = [0] * n
        for idx in combo:
            e[idx] = 1
        out = out + MPoly(names, {tuple(e): Fraction(1)})
    return out


def vandermonde(names):
    acc = MPoly.const(names, 1)
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            acc = acc * (MPoly.var(names, i) - MPoly.var(names, j))
    return acc


def jacobian_inverse(n):
    """The matrix J^{-1} over MRat, with J_{ij} = d sigma_i / d x_j; also
    returns det J, which must be +/- the Vandermonde factor."""
    names = _xnames(n)
    J = [[elementary_poly(names, i + 1).derivative(j) for j in range(n)]
         for i in range(n)]
    det = leibniz_det(n, lambda i, j: J[i][j])
    delta = vandermonde(names)
    if det != delta and det != -delta:
        raise InvariantViolation("det J is not +/- the Vandermonde factor")
    inv = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            # cofactor expansion: (J^{-1})_{ji} = cof_{ij} / det
            minor = [
                [J[a][b] for b in range(n) if b != j]
                for a in range(n) if a != i
            ]
            if n == 1:  # the empty minor's determinant
                cof = MPoly.const(names, 1)
            else:
                cof = leibniz_det(n - 1, lambda a, b: minor[a][b])
            sign = Fraction((-1) ** (i + j))
            inv[j][i] = MRat(cof * sign, det)
    return inv, det


class RatOp(Terms):
    """Differential operator with rational-function coefficients:
    dict {derivative multi-index: MRat in the x-variables}."""

    __slots__ = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for b, c in terms.items():
                if c:
                    self.terms[b] = c

    @classmethod
    def from_weyl(cls, w):
        names = _xnames(w.n)
        out = {}
        for (a, b), c in w.terms.items():
            if any(e < 0 for e in a):
                raise InvariantViolation("Laurent term has no RatOp image")
            mono = MRat.from_poly(MPoly(names, {a: c}))
            s = out.get(b)
            s = mono if s is None else s + mono
            out[b] = s
        return cls(w.n, {b: c for b, c in out.items() if c})

    @classmethod
    def coefficient(cls, n, c):
        return cls(n, {(0,) * n: c})

    def _new(self, terms):
        return RatOp(self.n, terms)

    def __eq__(self, other):
        return self.terms == other.terms

    def __mul__(self, other):
        """Operator composition via the Leibniz rule."""
        out = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                for t in product(*(range(x + 1) for x in b1)):
                    factor = Fraction(1)
                    for i in range(self.n):
                        factor *= comb(b1[i], t[i])
                    g = c2
                    for i in range(self.n):
                        for _ in range(t[i]):
                            g = g.derivative(i)
                    if not g:
                        continue
                    b = tuple(b1[i] - t[i] + b2[i] for i in range(self.n))
                    term = c1 * g * factor
                    s = out.get(b)
                    out[b] = term if s is None else s + term
        return RatOp(self.n, out)


class SymData:
    """Result of rewriting a symmetric operator: for each derivation
    multi-index beta, a polynomial in the sigma plus the discriminant
    power N_beta with coefficient sigma_poly / Delta^N."""

    __slots__ = ("n", "parts")

    def __init__(self, n, parts):
        self.n = n
        self.parts = parts  # {beta: (MPoly in s-names, int N)}


def rewrite_in_sigma(w):
    """Express a symmetric WeylElement as sum_beta c_beta(sigma) D^beta.

    The coefficients are recovered by applying the operator to sigma
    powers in graded order; each rational coefficient is then cleared by
    the smallest discriminant power and reduced to a sigma-polynomial."""
    n = w.n
    if not w.is_symmetric():
        raise NotInvariant("the operator is not symmetric")
    names = _xnames(n)
    sig = [elementary_poly(names, j + 1) for j in range(n)]
    maxord = w.d_order()

    betas = sorted(
        (b for b in product(range(maxord + 1), repeat=n) if sum(b) <= maxord),
        key=lambda b: (sum(b), b),
    )
    coeffs = {}
    for beta in betas:
        sp = MPoly.const(names, 1)
        for j in range(n):
            sp = sp * sig[j] ** beta[j]
        rhs = MRat.from_poly(w.apply_to_poly(sp))
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
            rest = MPoly.const(names, 1)
            for j in range(n):
                rest = rest * sig[j] ** (beta[j] - gamma[j])
            rhs = rhs - coeffs[gamma] * rest * f
        fact = Fraction(1)
        for j in range(n):
            fact *= factorial(beta[j])
        coeffs[beta] = rhs / fact

    delta2 = vandermonde(names) ** 2
    parts = {}
    for beta, c in coeffs.items():
        if not c:
            continue
        cleared = None
        power = None
        cand = c
        for N in range(MAX_DISC_POWER + 1):
            if N:
                cand = cand * delta2
            if cand.is_polynomial():
                cleared = cand.num * (Fraction(1) / cand.den.constant_value())
                power = N
                break
        if cleared is None:
            raise InvariantViolation(
                "coefficient at %r is not a sigma-polynomial over a "
                "discriminant power" % (beta,)
            )
        parts[beta] = (symmetric_reduce(cleared), power)
    return SymData(n, parts)


def symmetric_reduce(p):
    """Rewrite a symmetric polynomial in the x-variables as a polynomial
    in the elementary symmetric polynomials (classical leading-term
    elimination)."""
    names = p.names
    n = len(names)
    snames = _snames(n)
    sig = [elementary_poly(names, j + 1) for j in range(n)]
    out = MPoly.zero(snames)
    work = p
    while work:
        e, c = work.lex_leading()
        if any(e[i] < e[i + 1] for i in range(n - 1)):
            raise NotInvariant("polynomial is not symmetric")
        sexp = tuple(
            e[i] - (e[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        out = out + MPoly(snames, {sexp: c})
        sub = MPoly.const(names, c)
        for j in range(n):
            sub = sub * sig[j] ** sexp[j]
        work = work - sub
    return out


def sigma_expand(sp, n):
    """Evaluate a sigma-polynomial at the elementary symmetric polynomials,
    returning an MPoly in the x-variables."""
    names = _xnames(n)
    sig = [elementary_poly(names, j + 1) for j in range(n)]
    out = MPoly.zero(names)
    for e, c in sp.terms.items():
        term = MPoly.const(names, c)
        for j in range(n):
            term = term * sig[j] ** e[j]
        out = out + term
    return out


def round_trip(w):
    """Rewrite the operator in sigma-data, rebuild it and compare.

    Returns the SymData when the composed RatOp equals the original."""
    n = w.n
    data = rewrite_in_sigma(w)
    jinv, _ = jacobian_inverse(n)
    D = []
    for j in range(n):
        terms = {}
        for i in range(n):
            b = [0] * n
            b[i] = 1
            # dx_i/dsigma_j = (J^{-1})_{ij}
            terms[tuple(b)] = jinv[i][j]
        D.append(RatOp(n, terms))
    delta2 = MRat.from_poly(vandermonde(_xnames(n)) ** 2)
    total = RatOp(n, {})
    for beta, (sp, power) in data.parts.items():
        c = MRat.from_poly(sigma_expand(sp, n))
        for _ in range(power):
            c = c / delta2
        op = RatOp.coefficient(n, c)
        for j in range(n):
            for _ in range(beta[j]):
                op = op * D[j]
        total = total + op
    if total != RatOp.from_weyl(w):
        raise InvariantViolation("round trip does not reproduce the operator")
    return data
