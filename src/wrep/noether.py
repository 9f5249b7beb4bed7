"""Symmetric differential operators and the skew group algebra of shifts.

WeylElement is the one operator type, sum_b (Q_b / det^k) d^b: a dict
{derivative multi-index b: MPoly numerator Q_b in the x-names} over one
power k >= 0 of det J, J the Jacobian of the elementary symmetric
polynomials sigma_1 .. sigma_n.  At k = 0 it is a Weyl algebra element
(d_i x_j - x_j d_i = delta_ij), and only there may a numerator be Laurent.
ShiftAlgebraElement models polynomials in t_1..t_n twisted by an integer
lattice whose k-th generator shifts t_k by -1; the isomorphism sends the
k-th lattice generator to x_k and t_k to x_k d_k.

rewrite_in_sigma expresses a symmetric operator in terms of the
elementary symmetric polynomials and the pushed-forward derivations
D_j = sum_i (J^{-1})_{ij} d_i: a dict {beta: coefficient of D^beta as a
polynomial in the sigma}.  The shift twist and every passage between
sigma- and x-polynomials is one MPoly.evaluate call.  Every entry of
J^{-1} is a cofactor over det J, so each D_j is an operator over det^1,
and round_trip rebuilds the operator for an exact comparison with no
rational-function gcd."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod

from .arith import Terms, column_det, perm_sign
from .errors import NotInvariant, InvariantViolation
from .mpoly import MPoly


def falling(c, t):
    """Falling factorial c (c-1) ... (c-t+1), t a nonnegative integer, in
    the type of c: an int from an int."""
    acc = 1
    for s in range(t):
        acc *= c - s
    return acc


def _xnames(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def _snames(n):
    return tuple("s%d" % (i + 1) for i in range(n))


class WeylElement(Terms):
    """Differential operator sum_b (Q_b / det^k) d^b; numerators may be
    Laurent only at k = 0."""

    __slots__ = ("n", "k")

    def __init__(self, n, terms=None, k=0):
        self.n = n
        self.k = k
        self.terms = {b: q for b, q in terms.items() if q} if terms else {}
        if k and any(min(e) < 0 for q in self.terms.values() for e in q.terms):
            raise ValueError("Laurent coefficients are allowed only over det^0")

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: MPoly.const(_xnames(n), c)})

    @classmethod
    def x(cls, n, i, power=1):
        return cls(n, {(0,) * n: MPoly.var(_xnames(n), i, power)})

    @classmethod
    def d(cls, n, i, power=1):
        b = [0] * n
        b[i] = power
        return cls(n, {tuple(b): MPoly.const(_xnames(n), 1)})

    def _new(self, terms):
        return WeylElement(self.n, terms, self.k)

    def zero_like(self):
        return WeylElement(self.n)

    def lift(self, k):
        """The same operator written over det^k, for k >= self.k."""
        if k == self.k:
            return self
        f = _det_power(self.n, k - self.k)
        return WeylElement(self.n, {b: q * f for b, q in self.terms.items()}, k)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.const(self.n, other)
        k = max(self.k, other.k)
        return Terms.__add__(self.lift(k), other.lift(k))

    def __eq__(self, other):
        # det is nonzero, so the numerators over a common power of det decide
        if not (isinstance(other, WeylElement) and self.n == other.n):
            return False
        k = max(self.k, other.k)
        return self.lift(k).terms == other.lift(k).terms

    def __mul__(self, other):
        """Composition by the Leibniz rule, (Q1 d^b1)(Q2 d^b2) =
        sum_{t <= b1} binom(b1, t) Q1 d^t(Q2) d^(b1 - t + b2).  Over
        det^m, m > 0, a derivative stays over a power of det by the quotient
        rule d_i(Q / det^m) = (d_i Q * det - m * Q * d_i det) / det^(m+1).
        Each output coefficient is one sum: of the products at the top
        power of det, and of each lower (power, b) group's sum lifted once
        to the top."""
        if isinstance(other, (int, Fraction)):
            return self._new({b: q * other for b, q in self.terms.items()})
        n = self.n
        sums = {}  # (power of det, b) -> [(Q1 binom(b1, t), d^t-numerator)]
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                for t in product(*(range(x + 1) for x in b1)):
                    g, m = c2, other.k
                    for i, x in enumerate(t):
                        for _ in range(x):
                            if m:
                                det = _det_power(n, 1)
                                g, m = g.derivative(i) * det - g * det.derivative(i) * m, m + 1
                            else:
                                g = g.derivative(i)
                    b = tuple(x - y + z for x, y, z in zip(b1, t, b2))
                    f = prod(map(comb, b1, t))
                    sums.setdefault((m, b), []).append((c1 * f if f != 1 else c1, g))
        if not sums:
            return WeylElement(n)
        top = max(m for m, _ in sums)
        lifted = {}  # b -> the top group's pairs, and (group sum, det^(top - m)) below it
        for (m, b), pairs in sums.items():
            if m < top:
                pairs = [(MPoly.sum_products(pairs), _det_power(n, top - m))]
            lifted.setdefault(b, []).extend(pairs)
        return WeylElement(n, {b: MPoly.sum_products(groups) for b, groups in lifted.items()},
                           self.k + top)

    __rmul__ = __mul__

    def commutator(self, other):
        return self * other - other * self

    def permute(self, perm):
        """Simultaneous permutation of x- and d-indices; perm maps old
        index -> new index.  det J, +/- the Vandermonde factor, takes the
        sign of perm."""
        sign = perm_sign(perm) ** self.k
        out = {}
        for b, q in self.terms.items():
            b2 = [0] * self.n
            for i in range(self.n):
                b2[perm[i]] = b[i]
            out[tuple(b2)] = q.permute_vars(perm) * sign
        return WeylElement(self.n, out, self.k)

    def is_symmetric(self):
        for a in range(self.n - 1):
            perm = list(range(self.n))
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
            if self.permute(perm) != self:
                return False
        return True

    def apply_to_poly(self, p):
        """Image sum_b Q_b d^b(p) of an MPoly in the x-variables under an
        operator over det^0."""
        if self.k:
            raise ValueError("apply_to_poly acts with operators over det^0 only")
        pairs = []
        for b, q in self.terms.items():
            g = p
            for i, x in enumerate(b):
                for _ in range(x):
                    g = g.derivative(i)
            pairs.append((q, g))
        out = MPoly.sum_products(pairs) if pairs else p.zero_like()
        if any(min(e) < 0 for e in out.terms):
            raise InvariantViolation("operator image leaves the polynomial ring")
        return out


def check_weyl_relations(n):
    """[d_i, x_j] = delta_ij and, through the binomial of the Leibniz rule,
    [d_i^2, x_j] = 2 delta_ij d_i for all i, j; returns the (i, j) count."""
    for i in range(n):
        for j in range(n):
            x, delta = WeylElement.x(n, j), int(i == j)
            if (WeylElement.d(n, i).commutator(x) != WeylElement.const(n, delta)
                    or WeylElement.d(n, i, 2).commutator(x) != WeylElement.d(n, i) * 2 * delta):
                raise InvariantViolation("Weyl relation fails at (%d,%d)" % (i, j))
    return n * n


class ShiftAlgebraElement(Terms):
    """Sum of terms r(t) * m with m in the integer lattice; the product
    twists by (r1 m1)(r2 m2) = r1 * r2^{m1} (m1 + m2), where r^{m} shifts
    t_k to t_k - m_k."""

    __slots__ = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {m: r for m, r in terms.items() if r} if terms else {}

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
        sums = {}  # lattice point -> [(r1, shifted r2)], one sum each
        t = _tvars(self.n)
        for m1, r1 in self.terms.items():
            shift = [t[k] - m1[k] for k in range(self.n)]
            for m2, r2 in other.terms.items():
                m = tuple(m1[k] + m2[k] for k in range(self.n))
                sums.setdefault(m, []).append((r1, r2.evaluate(shift) if any(m1) else r2))
        return ShiftAlgebraElement(self.n, {m: MPoly.sum_products(pairs)
                                            for m, pairs in sums.items()})


def _tnames(n):
    return tuple("t%d" % (i + 1) for i in range(n))


@lru_cache(maxsize=None)
def _tvars(n):
    """t_1 .. t_n, built once per n."""
    names = _tnames(n)
    return tuple(MPoly.var(names, k) for k in range(n))


@lru_cache(maxsize=None)
def _xd(n):
    """x_k d_k for k < n, built once per n."""
    return tuple(WeylElement.x(n, k) * WeylElement.d(n, k) for k in range(n))


def shift_algebra_iso(el):
    """The embedding sending the k-th lattice generator to x_k and t_k to
    x_k d_k (monomials t^a m map to (x d)^a x^m, x^m one operator)."""
    n = el.n
    out = WeylElement(n)
    for m, r in el.terms.items():
        w = r.evaluate(_xd(n))
        if any(m):
            w = w * WeylElement(n, {(0,) * n: MPoly(_xnames(n), {m: 1}, _clean=True)})
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
    maxord = max(map(sum, w.terms), default=0)

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
            # zero unless gamma <= beta: falling(b, g) = 0 for g > b >= 0
            f = prod(map(falling, beta, gamma))
            if not f:
                continue
            rest = MPoly(snames, {tuple(b - g for b, g in zip(beta, gamma)): f})
            rhs = rhs - coeffs[gamma] * rest.evaluate(sig)
        coeffs[beta] = rhs * Fraction(1, prod(map(factorial, beta)))
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


def derivations(adj):
    """D_1 .. D_n over det^1, D_j = sum_i adj_ij / det J d_i: the
    derivations d/dsigma_j in the x-coordinates, since dx_i/dsigma_j =
    (J^{-1})_{ij} = adj_ij / det J."""
    n = len(adj)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [WeylElement(n, {unit[i]: adj[i][j] for i in range(n)}, 1)
            for j in range(n)]


@lru_cache(maxsize=None)
def _sigma_derivations(n):
    """(D_1 .. D_n, det J) in the n x-variables, built once per n."""
    adj, det = jacobian_inverse(n)
    return tuple(derivations(adj)), det


@lru_cache(maxsize=None)
def _det_power(n, j):
    """(det J)^j in the n x-variables, built once per (n, j)."""
    return _sigma_derivations(n)[1] if j == 1 else _det_power(n, 1) ** j


def round_trip(w):
    """Rewrite the operator in sigma-data, rebuild it and compare.

    Returns the dict {beta: sigma-polynomial} of rewrite_in_sigma when the
    rebuilt operator sum_beta c_beta(sigma) D^beta equals the original."""
    n = w.n
    data = rewrite_in_sigma(w)
    D = _sigma_derivations(n)[0]
    total = WeylElement(n)
    for beta, sp in data.items():
        op = WeylElement(n, {(0,) * n: sp.evaluate(_sigmas(n))})
        for j in range(n):
            for _ in range(beta[j]):
                op = op * D[j]
        total = total + op
    if total != w:
        raise InvariantViolation("round trip does not reproduce the operator")
    return data
