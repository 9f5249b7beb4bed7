"""Explicit matrices for the generator polynomials and exhaustive
verification of the defining relations on the pattern basis.

A_r(u) acts diagonally; B_r(u) and C_r(u) are rebuilt column by column from
their values at each pattern's own nodes u = -l_{ri}^{(k)} by Lagrange
interpolation (one term per node, zero when the shifted array fails
interlacing).
"""

from fractions import Fraction

from .arith import (
    UniPoly,
    lagrange_basis,
    poly_to_inv_series,
    series_arg_shift,
    series_inverse,
)
from .errors import DegenerateNodes, InvariantViolation, OrderError
from .patterns import entry_slots, enumerate_patterns, shift_pattern
from .sparse import Combination, SparseMatrix


class Representation:
    """Pattern basis plus the polynomial generator matrices."""

    def __init__(self, pyramid, weight, basis, A, B, C):
        self.pyramid = pyramid
        self.weight = weight
        self.basis = basis
        self.index = {mu.key(): idx for idx, mu in enumerate(basis)}
        self.dim = len(basis)
        self.A = A  # A[r] for r=1..n, UniPoly over SparseMatrix
        self.B = B  # B[r] for r=1..n-1
        self.C = C

    @property
    def n(self):
        return self.pyramid.n

    def a_coefficient(self, r, k):
        """Matrix a_r^{(k)}: coefficient of u^{(p_1+...+p_r)-k} in A_r(u)."""
        block = self.pyramid.row_block_size(r)
        c = self.A[r].coeff(block - k)
        return c if c is not None else SparseMatrix(self.dim)


def build_representation(pyramid, weight):
    """Construct the pattern basis and the A/B/C polynomial matrices."""
    basis = enumerate_patterns(weight)
    index = {mu.key(): idx for idx, mu in enumerate(basis)}
    N = len(basis)
    n = pyramid.n

    A = {}
    for r in range(1, n + 1):
        block = pyramid.row_block_size(r)
        coeff_entries = [dict() for _ in range(block + 1)]
        for col, mu in enumerate(basis):
            # eigenvalue prod_i lambda_{ri}(u-i+1) = prod_slots (u + l)
            eig = UniPoly.from_roots([-l for l in mu.row_l_values(r)])
            for d, c in enumerate(eig.coeffs):
                if c:
                    coeff_entries[d][(col, col)] = c
        A[r] = UniPoly(
            [SparseMatrix(N, {i: {j: v} for (i, j), v in ent.items()})
             for d, ent in enumerate(coeff_entries)]
        )

    B, C = {}, {}
    for r in range(1, n):
        block = pyramid.row_block_size(r)
        bco = [dict() for _ in range(block)]
        cco = [dict() for _ in range(block)]
        for col, mu in enumerate(basis):
            nodes = [-l for l in mu.row_l_values(r)]
            try:
                lag = lagrange_basis(nodes)
            except DegenerateNodes:
                raise DegenerateNodes(
                    "repeated l-values in row %d of pattern %r" % (r, mu)
                ) from None
            for slot_idx, (i, k) in enumerate(entry_slots(pyramid, r)):
                u0 = nodes[slot_idx]
                up = shift_pattern(mu, r, i, k, +1)
                if up is not None:
                    coeff = Fraction(-1)
                    for j in range(1, r + 2):
                        coeff *= mu.lam(r + 1, j, u0 - j + 1)
                    if coeff:
                        tgt = index[up.key()]
                        for d, c in enumerate(lag[slot_idx].coeffs):
                            if c:
                                key = (tgt, col)
                                bco[d][key] = bco[d].get(key, Fraction(0)) + coeff * c
                down = shift_pattern(mu, r, i, k, -1)
                if down is not None:
                    coeff = Fraction(1)
                    for j in range(1, r):
                        coeff *= mu.lam(r - 1, j, u0 - j + 1)
                    if coeff:
                        tgt = index[down.key()]
                        for d, c in enumerate(lag[slot_idx].coeffs):
                            if c:
                                key = (tgt, col)
                                cco[d][key] = cco[d].get(key, Fraction(0)) + coeff * c
        B[r] = UniPoly([SparseMatrix.from_entries(
            N, ((i, j, v) for (i, j), v in ent.items())) for ent in bco])
        C[r] = UniPoly([SparseMatrix.from_entries(
            N, ((i, j, v) for (i, j), v in ent.items())) for ent in cco])

    rep = Representation(pyramid, weight, basis, A, B, C)
    _sanity_check(rep)
    return rep


def _sanity_check(rep):
    pyr = rep.pyramid
    for r in range(1, pyr.n + 1):
        block = pyr.row_block_size(r)
        if rep.A[r].degree != block:
            raise InvariantViolation("deg A_%d = %d, expected %d"
                                     % (r, rep.A[r].degree, block))
        if rep.A[r].coeffs[-1] != SparseMatrix.identity(rep.dim):
            raise InvariantViolation("A_%d is not monic" % r)
        if not all(m.is_diagonal() for m in rep.A[r].coeffs):
            raise InvariantViolation("A_%d is not diagonal" % r)
    for r in range(1, pyr.n):
        bound = pyr.row_block_size(r) - 1
        for name, p in (("B", rep.B[r]), ("C", rep.C[r])):
            if p.degree > bound:
                raise InvariantViolation(
                    "deg %s_%d = %d exceeds the bound %d" % (name, r, p.degree, bound)
                )


class SeriesGenerators:
    """Matrices of the series generators through a truncation order."""

    def __init__(self, rep, order, d, dprime, e, f):
        self.rep = rep
        self.order = order
        self._d = d          # {i: [M_0..M_R]}
        self._dprime = dprime
        self._e = e          # {i: [M_0..M_R]}, zeros below the start index
        self._f = f
        self._zero = SparseMatrix(rep.dim)

    def _get(self, table, i, r):
        if r < 0:
            return self._zero
        if r > self.order:
            raise OrderError("index %d beyond the verified order %d" % (r, self.order))
        return table[i][r]

    def d(self, i, r):
        return self._get(self._d, i, r)

    def dprime(self, i, r):
        return self._get(self._dprime, i, r)

    def e(self, i, r):
        return self._get(self._e, i, r)

    def f(self, i, r):
        return self._get(self._f, i, r)

    def e_start(self, i):
        p = self.rep.pyramid
        return p.p(i + 1) - p.p(i) + 1


def generator_series(rep, R):
    """Recover d_i, d_i', e_i, f_i coefficient matrices through order R."""
    if R < 1:
        raise OrderError("truncation order must be >= 1")
    pyr = rep.pyramid
    n = pyr.n
    N = rep.dim
    ident = SparseMatrix.identity(N)

    a = {}
    for i in range(1, n + 1):
        roots = [(j, pyr.p(j + 1)) for j in range(i)]
        a[i] = poly_to_inv_series(rep.A[i], roots, R)
        if a[i].coeffs[0] != ident:
            raise InvariantViolation("a_%d(u) does not start at the identity" % i)

    d = {}
    ainv = {}
    for i in range(1, n + 1):
        ainv[i] = series_inverse(a[i])
        x, y = ainv[i].coeffs, a[i].coeffs
        if _inverse_defect(x, y) is not None or _inverse_defect(y, x) is not None:
            raise InvariantViolation("a_%d inverse is not two-sided" % i)
        if i == 1:
            d[1] = a[1]
        else:
            d[i] = series_arg_shift(ainv[i - 1] * a[i], i - 1)

    dprime = {i: series_inverse(d[i]) for i in range(1, n + 1)}

    e, f = {}, {}
    for i in range(1, n):
        eroots = [(j, pyr.p(j + 1)) for j in range(i - 1)] + [(i - 1, pyr.p(i + 1))]
        eraw = poly_to_inv_series(rep.B[i], eroots, R)
        e[i] = series_arg_shift(ainv[i] * eraw, i - 1)
        froots = [(j, pyr.p(j + 1)) for j in range(i)]
        fraw = poly_to_inv_series(rep.C[i], froots, R)
        f[i] = series_arg_shift(fraw * ainv[i], i - 1)

    gens = SeriesGenerators(
        rep, R,
        {i: d[i].coeffs for i in d},
        {i: dprime[i].coeffs for i in dprime},
        {i: e[i].coeffs for i in e},
        {i: f[i].coeffs for i in f},
    )
    _series_invariants(gens)
    return gens


def _inverse_defect(x, y):
    """The first r at which sum_t x_t y_{r-t} is not [r == 0] * identity,
    or None: each sum is zero-tested without building a Fraction."""
    dim = x[0].dim
    for r in range(len(x)):
        comb = Combination(dim)
        for t in range(r + 1):
            comb.product(x[t], y[r - t])
        if r == 0:
            comb.add(SparseMatrix.identity(dim), -1)
        if not comb.is_zero():
            return r
    return None


def _series_invariants(gens):
    rep = gens.rep
    pyr = rep.pyramid
    N = rep.dim
    zero = SparseMatrix(N)
    ident = SparseMatrix.identity(N)
    R = gens.order
    for i in range(1, pyr.n + 1):
        if gens.d(i, 0) != ident:
            raise InvariantViolation("d_%d^{(0)} is not the identity" % i)
        # defining property of d'
        r = _inverse_defect(gens._d[i], gens._dprime[i])
        if r is not None:
            raise InvariantViolation("d_%d' fails its defining relation at r=%d"
                                     % (i, r))
    for r in range(pyr.p(1) + 1, R + 1):
        if gens.d(1, r) != zero:
            raise InvariantViolation("d_1^{(%d)} nonzero past p_1" % r)
    for i in range(1, pyr.n):
        start = gens.e_start(i)
        for r in range(0, min(start, R + 1)):
            if gens.e(i, r) != zero:
                raise InvariantViolation(
                    "e_%d^{(%d)} nonzero below the start index %d" % (i, r, start)
                )
        if gens.f(i, 0) != zero:
            raise InvariantViolation("f_%d^{(0)} nonzero" % i)


def _first_diff(got, want, basis):
    """Witness for got != want: an entry of the difference, with the
    patterns that index its row and column."""
    delta = got - want
    for i, j, v in delta.entries():
        return ("entry (%d,%d) differs by %s; row pattern %r, column pattern %r"
                % (i, j, v, basis[i], basis[j]))
    return None


class RelationReport:
    def __init__(self):
        self.families = []  # (name, instances, failures)

    def add(self, name, instances, failures):
        self.families.append((name, instances, failures))

    @property
    def ok(self):
        return all(not fails for _, _, fails in self.families)

    def total_instances(self):
        return sum(c for _, c, _ in self.families)


# Relation terms: (Combination method, matrix operands..., sign).
def _comm(a, b, sign=1):
    return (Combination.commutator, a, b, sign)


def _prod(a, b, sign=1):
    return (Combination.product, a, b, sign)


def _mat(a, sign=1):
    return (Combination.add, a, sign)


def _fill(comb, terms, sign):
    """Add sign times each term to the combination."""
    for op, *operands, s in terms:
        op(comb, *operands, s * sign)
    return comb


def verify_defining_relations(rep, R):
    """Evaluate every defining relation for all admissible indices <= R.

    Each instance is a pair of term lists, lhs and rhs; lhs - rhs is summed
    in one Combination and zero-tested, and only a failing instance builds
    its two sides as matrices for the witness."""
    gens = generator_series(rep, 2 * R)
    pyr = rep.pyramid
    n = pyr.n
    N = rep.dim
    report = RelationReport()

    def estart(i):
        return gens.e_start(i)

    def check(name, cases):
        fails = []
        count = 0
        for label, lhs, rhs in cases:
            count += 1
            if not _fill(_fill(Combination(N), lhs, 1), rhs, -1).is_zero():
                got = _fill(Combination(N), lhs, 1).finish()
                want = _fill(Combination(N), rhs, 1).finish()
                fails.append("%s: %s" % (label, _first_diff(got, want, rep.basis)))
        report.add(name, count, fails)

    def cases_dd():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for r in range(1, R + 1):
                    for s in range(1, R + 1):
                        yield ("i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.d(i, r), gens.d(j, s))], [])
    check("[d,d]=0", cases_dd())

    def cases_ef():
        for i in range(1, n):
            for j in range(1, n):
                for r in range(estart(i), R + 1):
                    for s in range(1, R + 1):
                        rhs = []
                        if i == j:
                            rhs = [_prod(gens.dprime(i, t), gens.d(i + 1, r + s - t - 1), -1)
                                   for t in range(r + s)]
                        yield ("i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.e(i, r), gens.f(j, s))], rhs)
    check("[e,f]", cases_ef())

    def cases_de():
        for i in range(1, n + 1):
            for j in range(1, n):
                sign = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                for r in range(1, R + 1):
                    for s in range(estart(j), R + 1):
                        rhs = []
                        if sign:
                            rhs = [_prod(gens.d(i, t), gens.e(j, r + s - t - 1), sign)
                                   for t in range(r)]
                        yield ("i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.d(i, r), gens.e(j, s))], rhs)
    check("[d,e]", cases_de())

    def cases_df():
        for i in range(1, n + 1):
            for j in range(1, n):
                sign = (1 if i == j + 1 else 0) - (1 if i == j else 0)
                for r in range(1, R + 1):
                    for s in range(1, R + 1):
                        rhs = []
                        if sign:
                            rhs = [_prod(gens.f(j, r + s - t - 1), gens.d(i, t), sign)
                                   for t in range(r)]
                        yield ("i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.d(i, r), gens.f(j, s))], rhs)
    check("[d,f]", cases_df())

    def cases_ee_same():
        e = gens.e
        for i in range(1, n):
            for r in range(estart(i), R + 1):
                for s in range(estart(i), R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(e(i, r), e(i, s + 1)), _comm(e(i, r + 1), e(i, s), -1)],
                           [_prod(e(i, r), e(i, s)), _prod(e(i, s), e(i, r))])
    check("e same-row", cases_ee_same())

    def cases_ff_same():
        f = gens.f
        for i in range(1, n):
            for r in range(1, R + 1):
                for s in range(1, R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(f(i, r + 1), f(i, s)), _comm(f(i, r), f(i, s + 1), -1)],
                           [_prod(f(i, r), f(i, s)), _prod(f(i, s), f(i, r))])
    check("f same-row", cases_ff_same())

    def cases_ee_adj():
        e = gens.e
        for i in range(1, n - 1):
            for r in range(estart(i), R + 1):
                for s in range(estart(i + 1), R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(e(i, r), e(i + 1, s + 1)),
                            _comm(e(i, r + 1), e(i + 1, s), -1)],
                           [_prod(e(i, r), e(i + 1, s), -1)])
    check("e adjacent", cases_ee_adj())

    def cases_ff_adj():
        f = gens.f
        for i in range(1, n - 1):
            for r in range(1, R + 1):
                for s in range(1, R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(f(i, r + 1), f(i + 1, s)),
                            _comm(f(i, r), f(i + 1, s + 1), -1)],
                           [_prod(f(i + 1, s), f(i, r), -1)])
    check("f adjacent", cases_ff_adj())

    def cases_far():
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) <= 1:
                    continue
                for r in range(estart(i), R + 1):
                    for s in range(estart(j), R + 1):
                        yield ("e i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.e(i, r), gens.e(j, s))], [])
                for r in range(1, R + 1):
                    for s in range(1, R + 1):
                        yield ("f i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.f(i, r), gens.f(j, s))], [])
    check("distant rows", cases_far())

    def cases_serre(x, start):
        # inner[(s, t)] = [x_{i,s}, x_{j,t}], built once per (i, j) block
        for i in range(1, n):
            for j in (i - 1, i + 1):
                if not 1 <= j < n:
                    continue
                si, sj = range(start(i), R + 1), range(start(j), R + 1)
                inner = {(s, t): x(i, s).commutator(x(j, t)) for s in si for t in sj}
                for r in si:
                    for s in si:
                        for t in sj:
                            yield ("i=%d j=%d r=%d s=%d t=%d" % (i, j, r, s, t),
                                   [_comm(x(i, r), inner[(s, t)]),
                                    _comm(x(i, s), inner[(r, t)])], [])
                del inner
    check("Serre e", cases_serre(gens.e, estart))
    check("Serre f", cases_serre(gens.f, lambda i: 1))

    def cases_quotient():
        for r in range(pyr.p(1) + 1, gens.order + 1):
            yield ("r=%d" % r, [_mat(gens.d(1, r))], [])
    check("d_1 vanishing", cases_quotient())

    return report
