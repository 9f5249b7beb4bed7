"""Explicit matrices for the generator polynomials and exhaustive
verification of the defining relations on the pattern basis.

A_r(u) acts diagonally; B_r(u) and C_r(u) are rebuilt column by column from
their values at each pattern's own nodes u = -l_{ri}^{(k)} by Lagrange
interpolation (one term per node, zero when the shifted array is not a
basis pattern).  A slot (r, i, k) is addressed by its key position, its
index in key_slots(pyramid), which is also its place in GTPattern.key().

The build runs on integers.  Every l-value is a rational whose
denominator divides q, the lcm of the weight's denominators, so the
l-value at key position p of a pattern is L_p / q with the integer
L_p = Q_p + q * key_p, Q_p read once from the first basis pattern
(Representation.q and .offsets, which galois evaluates on too).  In
v = q u the eigenvalue polynomials prod (v + L) and the Lagrange pairs at
the nodes -L have integer coefficients; the powers of q move into the
matrix denominators, and each coefficient matrix is integer numerators
over one denominator, reduced once (SparseMatrix.diagonal for A,
SparseMatrix.from_positions for B and C).

The relation suite (verify_defining_relations) builds the series once and
then runs its families, which are independent, from a queue of one-byte
tickets in a pipe that this process and forked children take from
(_run_families); the report is the same for any number of workers.
"""

import marshal
import os
import threading
from math import gcd, lcm

from .arith import (
    UniPoly,
    lagrange_basis,
    poly_to_inv_series,
    series_arg_shift,
    series_inverse,
    series_product,
)
from .errors import DegenerateNodes, InvariantViolation, OrderError
from .patterns import enumerate_patterns, key_slots, row_spans
from .sparse import Combination, SparseMatrix


class Representation:
    """Pattern basis plus the polynomial generator matrices.

    q and offsets give the l-values of the basis on integers: q times the
    l-value at key position p of a pattern is offsets[p] + q * key_p (see
    _scaled_offsets); the build and galois both read them."""

    def __init__(self, pyramid, weight, basis, A, B, C):
        self.pyramid = pyramid
        self.weight = weight
        self.basis = basis
        self.index = {mu.key(): idx for idx, mu in enumerate(basis)}
        self.dim = len(basis)
        self.q, self.offsets = _scaled_offsets(pyramid, basis[0])
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

    def shifted(self, col, steps):
        """Column of the pattern basis[col] with the entry at each key
        position of ``steps`` moved by its step, or None when that array is
        no pattern.

        The basis holds every pattern with the weight as top row, so an
        array is a pattern exactly when its key is indexed; a shifted top
        row never is."""
        key = list(self.basis[col].key())
        for pos, step in steps.items():
            key[pos] += step
        return self.index.get(tuple(key))


def build_representation(pyramid, weight):
    """Construct the pattern basis and the A/B/C polynomial matrices."""
    rep = Representation(pyramid, weight, enumerate_patterns(weight), {}, {}, {})
    basis = rep.basis
    N = rep.dim
    n = pyramid.n

    spans = row_spans(pyramid)
    q, offsets = rep.q, rep.offsets

    def scaled_l_values(r, row):
        """q times the l-values of row r, from the row's slice of a key."""
        return [offsets[p] + q * z for p, z in zip(range(spans[r].start, spans[r].stop), row)]

    # eig[r][row slice of a key] = prod over the row-r slots of (v + L), the
    # A_r eigenvalue in v = q u, once per distinct row; row 0 is the constant 1
    eig = [{(): UniPoly([1])}]
    for r in range(1, n + 1):
        eig.append({})
        eigs = []
        for mu in basis:
            row = mu.key()[spans[r]]
            if row not in eig[r]:
                eig[r][row] = UniPoly.from_roots([-L for L in scaled_l_values(r, row)])
            eigs.append(eig[r][row].coeffs)
        # the u^d coefficient of A_r is the v^d one over q^(p_r - d)
        p_r = pyramid.row_block_size(r)
        rep.A[r] = UniPoly([SparseMatrix.diagonal(column, q ** (p_r - d))
                            for d, column in enumerate(zip(*eigs))])

    for r in range(1, n):
        first = spans[r].start
        # (table, step of the entry, adjacent row, sign): B raises, C lowers
        ladders = ((rep.B, 1, r + 1, -1), (rep.C, -1, r - 1, 1))
        # per ladder and power of u: {denominator: [(flat position, numerator)]}
        entries = [[{} for _ in range(pyramid.row_block_size(r))] for _ in ladders]
        lag_of = {}  # nodes and Lagrange pairs per distinct row r
        terms_of = {}  # a slot's terms per distinct row r and adjacent row
        for col, mu in enumerate(basis):
            key = mu.key()
            row = key[spans[r]]
            if row not in lag_of:
                nodes = [-L for L in scaled_l_values(r, row)]
                try:
                    lag_of[row] = nodes, lagrange_basis(nodes)
                except DegenerateNodes:
                    raise DegenerateNodes(
                        "repeated l-values in row %d of pattern %r" % (r, mu)
                    ) from None
            nodes, lag = lag_of[row]
            for slot_idx, node in enumerate(nodes):
                for (_, step, adj, sign), per_degree in zip(ladders, entries):
                    tgt = rep.shifted(col, {first + slot_idx: step})
                    if tgt is None:
                        continue
                    adj_row = key[spans[adj]]
                    memo = (slot_idx, step, row, adj_row)
                    terms = terms_of.get(memo)
                    if terms is None:
                        # the Lagrange pair of the slot times sign times the
                        # adjacent row's eigenvalue at the node, E / q^p_adj
                        num, den = lag[slot_idx]
                        terms = terms_of[memo] = _reduced_terms(
                            num.coeffs, den * q ** len(adj_row),
                            sign * eig[adj][adj_row](node), q)
                    pos = tgt * N + col
                    for d, c, den in terms:
                        per_degree[d].setdefault(den, []).append((pos, c))
        for (table, _, _, _), per_degree in zip(ladders, entries):
            table[r] = UniPoly([_over_lcm(N, groups) for groups in per_degree])

    _sanity_check(rep)
    return rep


def _scaled_offsets(pyramid, mu):
    """(q, [Q_p per key position]): q times the l-value at key position p
    of any basis pattern is Q_p + q * key_p.  The l-value minus the key
    entry is the same for every pattern of the basis (the column's top-row
    entry, less i - 1), so it is read from mu."""
    fixed = []
    for (r, i, k), z in zip(key_slots(pyramid), mu.key()):
        e = mu.entry(r, i, k)
        fixed.append((e.numerator - (z + i - 1) * e.denominator, e.denominator))
    q = lcm(*(den for _, den in fixed))
    return q, [num * (q // den) for num, den in fixed]


def _reduced_terms(coeffs, den, value=1, q=1):
    """[(d, numerator, denominator)] of value * sum_d coeffs[d] (q u)^d / den
    for the nonzero coefficients, each reduced with a positive denominator."""
    if den < 0:
        den, value = -den, -value
    terms = []
    if value:
        for d, c in enumerate(coeffs):
            if c:
                c *= value * q ** d
                g = gcd(c, den)
                terms.append((d, c // g, den // g))
    return terms


def _over_lcm(dim, groups):
    """The matrix of the entries of groups {denominator: [(flat position
    i * dim + j, numerator)]}, at distinct positions, put over the lcm of
    the denominators; groups is emptied as it is read."""
    den = lcm(*groups)
    flat, vals = [], []
    while groups:
        d, entries = groups.popitem()
        at, nums = zip(*entries)
        flat += at
        vals += map((den // d).__mul__, nums)
    return SparseMatrix.from_positions(dim, den, flat, vals)


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
        if a[i][0] != ident:
            raise InvariantViolation("a_%d(u) does not start at the identity" % i)

    # d_i reads a_{i-1}^{-1} and e_i, f_i read a_i^{-1} (i < n): a_n^{-1}
    # is never needed.  series_inverse solves a * x = 1 term by term, so
    # only x * a is checked: a has the identity as lead, so it is a unit of
    # the truncated series ring, and x * a = 1 makes x its two-sided inverse
    ainv = {}
    for i in range(1, n):
        ainv[i] = x = series_inverse(a[i])
        r = _inverse_defect(x, a[i])
        if r is not None:
            raise InvariantViolation("a_%d inverse fails x * a = 1 at r=%d" % (i, r))

    d = {1: a[1]}
    for i in range(2, n + 1):
        d[i] = series_arg_shift(series_product(ainv[i - 1], a[i]), i - 1)
    dprime = {i: series_inverse(d[i]) for i in d}

    e, f = {}, {}
    for i in range(1, n):
        eroots = [(j, pyr.p(j + 1)) for j in range(i - 1)] + [(i - 1, pyr.p(i + 1))]
        eraw = poly_to_inv_series(rep.B[i], eroots, R)
        e[i] = series_arg_shift(series_product(ainv[i], eraw), i - 1)
        froots = [(j, pyr.p(j + 1)) for j in range(i)]
        fraw = poly_to_inv_series(rep.C[i], froots, R)
        f[i] = series_arg_shift(series_product(fraw, ainv[i]), i - 1)

    gens = SeriesGenerators(rep, R, d, dprime, e, f)
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


def _first_diff(diff, basis):
    """Witness for a nonzero difference matrix: its entry with the
    smallest (row, column), with the patterns that index its row and
    column.  It is chosen by value, so the order in which a sum was
    accumulated cannot change it."""
    i, j, v = min(diff.entries())
    return ("entry (%d,%d) differs by %s; row pattern %r, column pattern %r"
            % (i, j, v, basis[i], basis[j]))


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


def _canonical(lhs, rhs):
    """lhs - rhs as (key, terms), a signed sum of distinct products.

    Each commutator [a, b] expands into +ab and -ba, equal products (and
    equal plain matrices) merge, and zero coefficients and terms with a
    zero operand drop.  terms lists (coefficient, operands) in order of
    first appearance; key is the sorted tuple of (operand ids,
    coefficient), negated if need be so that its first coefficient is
    positive.  Two instances with equal keys are the same linear
    combination of the same matrix products, up to sign, so they vanish
    together; the ids stay meaningful only while the operands live."""
    merged = {}
    for terms, side in ((lhs, 1), (rhs, -1)):
        for op, *operands, s in terms:
            if not all(operands):
                continue
            c = s * side
            if op is Combination.commutator:
                a, b = operands
                parts = (((a, b), c), ((b, a), -c))
            else:
                parts = ((tuple(operands), c),)
            for ops, c in parts:
                k = tuple(map(id, ops))
                if k in merged:
                    merged[k][0] += c
                else:
                    merged[k] = [c, ops]
    merged = {k: t for k, t in merged.items() if t[0]}
    key = sorted((k, c) for k, (c, _) in merged.items())
    if key and key[0][1] < 0:
        key = [(k, -c) for k, c in key]
    return tuple(key), list(merged.values())


def _combine(dim, terms):
    """The Combination summing the (coefficient, operands) terms of
    _canonical: lhs - rhs of the instance."""
    comb = Combination(dim)
    for c, ops in terms:
        if len(ops) == 2:
            comb.product(*ops, c)
        else:
            comb.add(*ops, c)
    return comb


# Relation families in the order verify_defining_relations reports them.
RELATION_FAMILIES = ("[d,d]=0", "[e,f]", "[d,e]", "[d,f]", "e same-row", "f same-row",
                     "e adjacent", "f adjacent", "distant rows", "Serre e", "Serre f",
                     "d_1 vanishing")

# The order in which the workers take the families: the largest first, so
# that the last ones taken are short (at verify (2,3,3) --rmax 4, Serre f
# takes 50 ms, Serre e 32, [e,f] 26, [d,f] 17 and [d,e] 15 of the suite's
# 177), then the rest in report order.
_LARGEST = ("Serre f", "Serre e", "[e,f]", "[d,f]", "[d,e]")
_QUEUE = _LARGEST + tuple(n for n in RELATION_FAMILIES if n not in _LARGEST)


def verify_defining_relations(rep, R):
    """Evaluate every defining relation for all admissible indices <= R.

    Each instance is a pair of term lists, lhs and rhs.  lhs - rhs is
    brought to its canonical form (_canonical), and each distinct form is
    summed once per family in one Combination and zero-tested: a mirrored
    instance, such as [d_j^(s), d_i^(r)] beside [d_i^(r), d_j^(s)] or a
    Serre (s, r, t) beside (r, s, t), is verified because its canonical sum
    is identical to one that passed, and an empty form is formally zero.
    Every instance is still counted and labelled, and a failing
    instance's witness is read from the matrix of that sum.  The only
    errors raised are those of generator_series(rep, 2 * R) and of a
    family's own run; a failing instance is reported.

    The families are independent once the series are built, so this
    process builds them and registers each family's cases, and the
    families then run from a queue on several processes (_run_families):
    one per core this process may use, at most one per family, and 1
    where os.fork does not exist or another thread runs
    (_default_workers).  The report lists the families in
    RELATION_FAMILIES order whichever process ran them, so it does not
    depend on the number of workers."""
    gens = generator_series(rep, 2 * R)
    pyr = rep.pyramid
    n = pyr.n
    N = rep.dim

    def estart(i):
        return gens.e_start(i)

    cases = {}  # family name -> its case generator, registered unrun

    def check(name):
        # canonical key -> terms of an instance that passed; the terms pin
        # their operands, so no id in a key is reused by a later matrix
        passed = {}
        fails = []
        count = 0
        for label, lhs, rhs in cases[name]():
            count += 1
            key, terms = _canonical(lhs, rhs)
            if key in passed:
                continue
            comb = _combine(N, terms)
            if comb.is_zero():
                passed[key] = terms
            else:
                fails.append("%s: %s" % (label, _first_diff(comb.finish(), rep.basis)))
        return count, fails

    def cases_dd():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for r in range(1, R + 1):
                    for s in range(1, R + 1):
                        yield ("i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               [_comm(gens.d(i, r), gens.d(j, s))], [])
    cases["[d,d]=0"] = cases_dd

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
    cases["[e,f]"] = cases_ef

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
    cases["[d,e]"] = cases_de

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
    cases["[d,f]"] = cases_df

    def cases_ee_same():
        e = gens.e
        for i in range(1, n):
            for r in range(estart(i), R + 1):
                for s in range(estart(i), R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(e(i, r), e(i, s + 1)), _comm(e(i, r + 1), e(i, s), -1)],
                           [_prod(e(i, r), e(i, s)), _prod(e(i, s), e(i, r))])
    cases["e same-row"] = cases_ee_same

    def cases_ff_same():
        f = gens.f
        for i in range(1, n):
            for r in range(1, R + 1):
                for s in range(1, R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(f(i, r + 1), f(i, s)), _comm(f(i, r), f(i, s + 1), -1)],
                           [_prod(f(i, r), f(i, s)), _prod(f(i, s), f(i, r))])
    cases["f same-row"] = cases_ff_same

    def cases_ee_adj():
        e = gens.e
        for i in range(1, n - 1):
            for r in range(estart(i), R + 1):
                for s in range(estart(i + 1), R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(e(i, r), e(i + 1, s + 1)),
                            _comm(e(i, r + 1), e(i + 1, s), -1)],
                           [_prod(e(i, r), e(i + 1, s), -1)])
    cases["e adjacent"] = cases_ee_adj

    def cases_ff_adj():
        f = gens.f
        for i in range(1, n - 1):
            for r in range(1, R + 1):
                for s in range(1, R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           [_comm(f(i, r + 1), f(i + 1, s)),
                            _comm(f(i, r), f(i + 1, s + 1), -1)],
                           [_prod(f(i + 1, s), f(i, r), -1)])
    cases["f adjacent"] = cases_ff_adj

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
    cases["distant rows"] = cases_far

    def cases_serre(x, start):
        # inner[(s, t)] = [x_{i,s}, x_{i+1,t}], built once per adjacent pair;
        # the block (i+1, i) reads [x_{i+1,s}, x_{i,t}] = -inner[(t, s)]
        for k in range(1, n - 1):
            inner = {(s, t): x(k, s).commutator(x(k + 1, t))
                     for s in range(start(k), R + 1) for t in range(start(k + 1), R + 1)}
            mirror = {(t, s): m for (s, t), m in inner.items()}
            for i, j, block, sign in ((k, k + 1, inner, 1), (k + 1, k, mirror, -1)):
                si, sj = range(start(i), R + 1), range(start(j), R + 1)
                for r in si:
                    for s in si:
                        for t in sj:
                            yield ("i=%d j=%d r=%d s=%d t=%d" % (i, j, r, s, t),
                                   [_comm(x(i, r), block[(s, t)], sign),
                                    _comm(x(i, s), block[(r, t)], sign)], [])
    cases["Serre e"] = lambda: cases_serre(gens.e, estart)
    cases["Serre f"] = lambda: cases_serre(gens.f, lambda i: 1)

    def cases_quotient():
        for r in range(pyr.p(1) + 1, gens.order + 1):
            yield ("r=%d" % r, [_mat(gens.d(1, r))], [])
    cases["d_1 vanishing"] = cases_quotient

    done = _run_families(check, _default_workers())
    report = RelationReport()
    for name in RELATION_FAMILIES:
        report.add(name, *done[name])
    return report


def _default_workers():
    """Every core this process may use, at most one per family; 1 where
    os.fork does not exist, and in a process with threads, where a lock
    another thread holds at the fork would stay held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, len(RELATION_FAMILIES))


def _run_families(run, workers):
    """{family: run(family)} for every family of RELATION_FAMILIES.

    One ticket per family goes into a pipe in _QUEUE order, and this
    process forks workers - 1 children (none for one worker).  It and
    every child take tickets with one-byte reads and run each family
    taken.  A child sends {family: (count, fails)} back through a pipe of
    its own (_child).  A family no child delivered, because the child died
    or the family raised there, is run here again, and an exception raised
    here is held: the first family in RELATION_FAMILIES order that raises
    raises, as in a serial run.  Every child is killed and reaped before
    the call returns or raises."""
    tickets, refill = os.pipe()
    os.write(refill, bytes(range(len(_QUEUE))))
    os.close(refill)  # an empty queue then reads as end of file
    children = {}  # pid -> the read end of its result pipe
    done, raised = {}, {}
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others take its share
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(run, tickets, write)
            os.close(write)
            children[pid] = open(read, "rb")
        for name in _taken(tickets):
            try:
                done[name] = run(name)
            except Exception as exc:
                raised[name] = exc
        for results in children.values():
            try:
                done.update(marshal.loads(results.read()))
            except (EOFError, ValueError, TypeError):
                pass  # the child died before it sent all of them
    finally:
        os.close(tickets)
        _reap(children)
    for name in RELATION_FAMILIES:
        if name in raised:
            raise raised[name]
        if name not in done:
            done[name] = run(name)
    return done


def _taken(tickets):
    """The families taken from the queue, one ticket at a time, until it
    is empty."""
    while ticket := os.read(tickets, 1):
        yield _QUEUE[ticket[0]]


def _child(run, tickets, write):
    """A forked worker: run the families it takes, send {family: (count,
    fails)} of those that returned through write with marshal, and leave
    by os._exit, so that no exit handler runs and no buffer inherited from
    the parent is flushed."""
    try:
        out = {}
        for name in _taken(tickets):
            try:
                out[name] = run(name)
            except Exception:
                pass  # not delivered: the parent runs it again
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(out))
    finally:
        os._exit(0)


def _reap(children):
    """Close each child's result pipe, kill the child and wait for it."""
    if not children:
        return
    import signal  # only a process with workers needs it

    for pid, results in children.items():
        results.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
