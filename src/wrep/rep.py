"""Explicit matrices for the generator polynomials and exhaustive
verification of the defining relations on the pattern basis.

A_r(u) acts diagonally; B_r(u) and C_r(u) are interpolated at each
pattern's own nodes u = -l_{ri}^{(k)} (one Lagrange term per node, zero
when the shifted array is not a basis pattern).  A slot (r, i, k) is
addressed by its key position, its index in key_slots(pyramid), which is
also its place in GTPattern.key().

The build runs on integers.  Every l-value is a rational whose
denominator divides q, the lcm of the weight's denominators, so the
l-value at key position p of a pattern is L_p / q with the integer
L_p = Q_p + q * key_p (Representation.q and .offsets, which galois
evaluates on too).  In v = q u the eigenvalue polynomials prod (v + L)
and the Lagrange pairs at the nodes -L have integer coefficients, and the
powers of q move into the matrix denominators.  build_representation(basis)
makes A from one eigenvalue polynomial per distinct row.  B and C are
assembled on their first read from the Lagrange pairs of each distinct
row, each ladder in one walk over the basis and one pass per power of u
over one lcm (_assemble_ladders), so `wrep fibers`, which reads only A,
builds neither them nor a Lagrange pair.  The matrices are the
generators restricted to the span of the basis, a representation when it
holds every pattern with its top row.

generator_series works each diagonal series (a_i, its inverse, d_i and
d_i') on the distinct columns of its inputs' numerators, one position of
a small diagonal matrix per class (sparse.compress_diagonals), and
expands the result to the basis by one gather.  That is exact: diagonal
arithmetic is entrywise, so patterns with equal input columns get equal
outputs, and the compressed matrices hold every distinct numerator, so
the content, the denominator and the expanded canonical form are those
of the full-dimension arithmetic.  The classes come from the numerators,
not from the patterns' rows, so a faulty entry is a class of its own.

The relation suite (verify_defining_relations) builds the series once and
then runs its families, which are independent, from a queue of one-byte
tickets in a pipe that this process and forked children take from, each
in the same loop (_run_taken); the report is the same for any number of
workers.  Each relation instance is one list of signed products of
names, which one table per run maps to matrices (_NameTable), summed
after equal products merge (_canonical).  Index ranges start past the
shift matrix (Pyramid.shift), and each f-side family is the transpose
of its e-side one (_transposed).  A ticket holds a family
with its transpose: where the anti-involution tau(X) = S^{-1} X^T S of
the shifted Yangian, for one diagonal S, takes each e_i^(r) to an f_i
(_anti_involution, which finds S with sparse.diagonal_gauge), an
instance whose tau-image passed is verified with it, since tau maps a
vanishing sum to a vanishing sum.
"""

import marshal
import os
import threading
from functools import cached_property
from math import lcm, prod
from operator import mul

from .arith import (
    UniPoly,
    lagrange_basis,
    poly_shift,
    poly_to_inv_series,
    series_inverse,
    series_product,
)
from .errors import DegenerateNodes, InvariantViolation, OrderError
from .patterns import key_slots, row_spans
from .sparse import Combination, SparseMatrix, compress_diagonals, diagonal_gauge


class Representation:
    """Pattern basis plus the polynomial generator matrices.

    q and offsets give the l-values of the basis on integers: q times the
    l-value at key position p of a pattern is offsets[p] + q * key_p (see
    _scaled_offsets); the build and galois both read them.  B and C are
    assembled on the first read of either."""

    def __init__(self, basis):
        self.pyramid = pyramid = basis[0].pyramid
        self.basis = basis
        self.index = {mu.key(): idx for idx, mu in enumerate(basis)}
        self.dim = len(basis)
        self.q, self.offsets = _scaled_offsets(basis[0])
        self.spans = row_spans(pyramid)
        self.A = {}  # A[r] for r=1..n, UniPoly over SparseMatrix

    @property
    def n(self):
        return self.pyramid.n

    B = property(lambda self: self._ladders[0], doc="B[r] for r=1..n-1, a UniPoly")
    C = property(lambda self: self._ladders[1], doc="C[r] for r=1..n-1, a UniPoly")

    @cached_property
    def _ladders(self):
        B, C = _assemble_ladders(self)
        _check_ladders(self.pyramid, B, C)
        return B, C

    def a_coefficient(self, r, k):
        """Matrix a_r^{(k)}: coefficient of u^{(p_1+...+p_r)-k} in A_r(u)."""
        block = self.pyramid.row_block_size(r)
        c = self.A[r].coeff(block - k)
        return c if c is not None else SparseMatrix(self.dim)

    def shifted(self, col, steps):
        """Column of the pattern basis[col] with the entry at each key
        position of ``steps`` moved by its step, or None when that array is
        not in the basis: no pattern, when the basis holds every pattern
        with its top row (see build_representation)."""
        key = list(self.basis[col].key())
        for pos, step in steps.items():
            key[pos] += step
        return self.index.get(tuple(key))


def build_representation(basis):
    """A on ``basis``: a non-empty list of patterns of one pyramid and top
    row.  The matrices are the generators restricted to its span, a move
    to an array outside it dropped, and a representation exactly when the
    basis holds every pattern with its top row, as the basis of a weight
    does.  The eigenvalue polynomial of A_r is made once per distinct row;
    B and C wait for their first read (_assemble_ladders)."""
    rep = Representation(basis)
    n, spans, q = rep.n, rep.spans, rep.q
    for r in range(1, n + 1):
        eig, eigs = {}, []  # row-r slice of a key -> eigenvalue in v = q u
        for mu in rep.basis:
            row = mu.key()[spans[r]]
            if row not in eig:
                nodes = _nodes(rep, r, row)
                if r < n and len(set(nodes)) < len(nodes):
                    raise DegenerateNodes("repeated l-values in row %d of pattern %r" % (r, mu))
                eig[row] = UniPoly.from_roots(nodes)
            eigs.append(eig[row].coeffs)
        # the u^d coefficient of A_r is the v^d one over q^(p_r - d)
        p_r = rep.pyramid.row_block_size(r)
        rep.A[r] = UniPoly([SparseMatrix.diagonal(column, q ** (p_r - d))
                            for d, column in enumerate(zip(*eigs))])
    _check_a(rep)
    return rep


def _nodes(rep, r, row):
    """The nodes -L, L = q l for the l-values of ``row``, a row-r slice of a key."""
    return [-rep.offsets[p] - rep.q * z for p, z in enumerate(row, rep.spans[r].start)]


def _assemble_ladders(rep):
    """(B, C), each {r: UniPoly over SparseMatrix} for r=1..n-1.  For each
    row-r node X = -L of a pattern whose raised (lowered) array is a
    pattern, its column holds -1 (+1) times E = prod (X - Y) over the nodes
    Y of its row r+1 (r-1), over q^p_adj, times the Lagrange polynomial
    sum_d N_{k,d} (q u)^d / D_k of X, whose pair k the class (row-r slice,
    slot) fixes.  The nodes and Lagrange pairs are made once per distinct
    row.  A ladder is one walk over the basis listing (flat position,
    class, sign * E), E memoised per (adjacent-row slice, node), and
    _class_polynomial."""
    pyr, index, N, spans, q = rep.pyramid, rep.index, rep.dim, rep.spans, rep.q
    # nodes[r][row-r slice of a key]: its nodes, rows in basis order; row 0 has none
    nodes = [{row: _nodes(rep, r, row) for row in dict.fromkeys(key[spans[r]] for key in index)}
             for r in range(pyr.n + 1)]
    B, C = {}, {}
    for r in range(1, pyr.n):
        span, first = spans[r], spans[r].start
        # pairs[k] = ([q^d N_{k,d}], D_k); base[row] + p is the class of
        # the slot at key position p
        base, pairs = {}, []
        for row, row_nodes in nodes[r].items():
            base[row] = len(pairs) - first
            pairs += [([c * q ** d for d, c in enumerate(num.coeffs)], den)
                      for num, den in lagrange_basis(row_nodes)]
        for table, step, adj, sign in ((B, 1, r + 1, -1), (C, -1, r - 1, 1)):
            adj_nodes, adj_span, memo, entries = nodes[adj], spans[adj], {}, []
            for col, key in enumerate(index):  # the keys in basis order
                row, adj_row = key[span], key[adj_span]
                k = base[row]
                for p, node in enumerate(nodes[r][row], first):
                    tgt = index.get(key[:p] + (key[p] + step,) + key[p + 1:])
                    if tgt is not None:
                        value = memo.get((adj_row, node))
                        if value is None:
                            value = memo[adj_row, node] = sign * prod(
                                node - y for y in adj_nodes[adj_row])
                        entries.append((tgt * N + col, k + p, value))
            table[r] = _class_polynomial(N, entries, pairs, q ** pyr.row_block_size(adj))
    return B, C


def _class_polynomial(dim, entries, pairs, den=1):
    """The UniPoly sum_d M_d u^d with entry value * N_{k,d} / (D_k * den)
    at each distinct flat position i * dim + j of entries [(position, k,
    value)], pairs[k] = ([N_{k,0}, ...], D_k).  Each M_d goes over den * D,
    D the lcm of the D_k, with class weights N_{k,d} * (D // D_k), through
    from_positions once; the positions are sorted once, and every M_d with
    no zero entry has the one interned pattern."""
    D = lcm(*(d_k for _, d_k in pairs))
    flat, classes, values = zip(*sorted(entries)) if entries else ((), (), ())
    coeffs = []
    for d in range(max((len(nums) for nums, _ in pairs), default=0)):
        weights = [nums[d] * (D // d_k) if d < len(nums) else 0 for nums, d_k in pairs]
        coeffs.append(SparseMatrix.from_positions(
            dim, D * den, flat, list(map(mul, values, map(weights.__getitem__, classes)))))
    return UniPoly(coeffs)


def _scaled_offsets(mu):
    """(q, [Q_p per key position]): q times the l-value at key position p
    of any basis pattern is Q_p + q * key_p.  The l-value minus the key
    entry is the same for every pattern of the basis (the column's top-row
    entry, less i - 1), so it is read from mu."""
    fixed = []
    for (r, i, k), z in zip(key_slots(mu.pyramid), mu.key()):
        e = mu.entry(r, i, k)
        fixed.append((e.numerator - (z + i - 1) * e.denominator, e.denominator))
    q = lcm(*(den for _, den in fixed))
    return q, [num * (q // den) for num, den in fixed]


def _sanity_check(rep):
    """Check the invariants of A, and of B and C."""
    _check_a(rep)
    _check_ladders(rep.pyramid, rep.B, rep.C)


def _check_a(rep):
    for r, A in rep.A.items():
        block = rep.pyramid.row_block_size(r)
        if A.degree != block:
            raise InvariantViolation("deg A_%d = %d, expected %d" % (r, A.degree, block))
        if A.coeffs[-1] != SparseMatrix.identity(rep.dim):
            raise InvariantViolation("A_%d is not monic" % r)
        if not all(m.is_diagonal() for m in A.coeffs):
            raise InvariantViolation("A_%d is not diagonal" % r)


def _check_ladders(pyr, B, C):
    for r in range(1, pyr.n):
        bound = pyr.row_block_size(r) - 1
        for name, p in (("B", B[r]), ("C", C[r])):
            if p.degree > bound:
                raise InvariantViolation("deg %s_%d = %d exceeds the bound %d"
                                         % (name, r, p.degree, bound))


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
        return self.rep.pyramid.shift(i, i + 1) + 1

    def f_start(self, i):
        return self.rep.pyramid.shift(i + 1, i) + 1


def generator_series(rep, R):
    """Recover d_i, d_i', e_i, f_i coefficient matrices through order R.

    With v = u + i - 1, P_i = p_1 + ... + p_i and a_i = A_i(v) u^{-P_i},
    each series is read off the coefficients of a shifted polynomial:
      d_1 = a_1, d_1' = a_1^{-1}; d_i' = A_{i-1}(v) u^{-P_{i-1}} a_i^{-1},
      d_i = d_i'^{-1} (i >= 2); e_i = a_i^{-1} B_i(v) u^{-P_i-s_{i,i+1}}
      and f_i = C_i(v) u^{-P_i} a_i^{-1} (i < n), s = Pyramid.shift.

    The diagonal series are worked on the distinct columns of their
    inputs (sparse.compress_diagonals): a_i and its inverse x_i on those
    of A_i, and d_i' and d_i on those of the pair A_{i-1}, x_i, each class
    one position of a smaller diagonal matrix.  Diagonal arithmetic is
    entrywise, so patterns whose input columns agree get equal outputs,
    and the classes are read from the numerators themselves, so a faulty
    entry is a class of its own; each series is expanded to the full
    dimension once it is made, with the same canonical form.  e_i and f_i
    multiply the expanded x_i into the read B_i and C_i."""
    if R < 1:
        raise OrderError("truncation order must be >= 1")
    pyr = rep.pyramid

    def read(p, k, i):
        return poly_to_inv_series(poly_shift(p, i - 1), k, R)

    def expanded(expand, *series):
        return [list(map(expand, s)) for s in series]

    d, dprime, e, f = {}, {}, {}, {}
    pairs = {}  # i >= 2 -> (d_i, d_i') on the classes they were made on
    for i in range(1, pyr.n + 1):
        P = pyr.row_block_size(i)
        (A,), expand = compress_diagonals([rep.A[i].coeffs])
        a = read(UniPoly(A), P, i)
        if a[0] != SparseMatrix.identity(a[0].dim):
            raise InvariantViolation("a_%d(u) does not start at the identity" % i)
        # series_inverse solves a * x = 1 term by term, so only x * a is
        # checked: a has the identity as lead, so it is a unit of the
        # truncated series ring, and x * a = 1 makes x its two-sided inverse
        x = series_inverse(a)
        r = _inverse_defect(x, a)
        if r is not None:
            raise InvariantViolation("a_%d inverse fails x * a = 1 at r=%d" % (i, r))
        if i == 1:
            d[i], dprime[i] = expanded(expand, a, x)
            x_full = dprime[i]
        else:
            x_full, = expanded(expand, x)
            (A, x), expand = compress_diagonals([rep.A[i - 1].coeffs, x_full])
            dp = series_product(read(UniPoly(A), pyr.row_block_size(i - 1), i), x)
            pairs[i] = series_inverse(dp), dp
            d[i], dprime[i] = expanded(expand, *pairs[i])
        if i < pyr.n:
            e[i] = series_product(x_full, read(rep.B[i], P + pyr.shift(i, i + 1), i))
            f[i] = series_product(read(rep.C[i], P, i), x_full)

    gens = SeriesGenerators(rep, R, d, dprime, e, f)
    _series_invariants(gens, pairs)
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


def _series_invariants(gens, pairs):
    """The invariants of the series; pairs[i] = (d_i, d_i') for i >= 2, on
    the classes generator_series made them on."""
    rep = gens.rep
    pyr = rep.pyramid
    N = rep.dim
    zero = SparseMatrix(N)
    ident = SparseMatrix.identity(N)
    R = gens.order
    for i in range(1, pyr.n + 1):
        if gens.d(i, 0) != ident:
            raise InvariantViolation("d_%d^{(0)} is not the identity" % i)
        # defining property of d', on the side that series_inverse(d_i')
        # did not solve; d_1' is a_1^{-1}, whose check has run
        r = _inverse_defect(*pairs[i]) if i > 1 else None
        if r is not None:
            raise InvariantViolation("d_%d' fails its defining relation at r=%d"
                                     % (i, r))
    for i in range(1, pyr.n):
        for name, x, start in (("e", gens.e, gens.e_start(i)), ("f", gens.f, gens.f_start(i))):
            for r in range(0, min(start, R + 1)):
                if x(i, r) != zero:
                    raise InvariantViolation("%s_%d^{(%d)} nonzero below the start index %d"
                                             % (name, i, r, start))


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


# A relation instance is (label, terms), terms a flat list of signed products
# (coefficient, names) that sums to lhs - rhs; one name is a plain matrix.
def _comm(a, b, c=1):
    """c [a, b] as the terms c ab and -c ba."""
    return [(c, (a, b)), (-c, (b, a))]


class _NameTable(dict):
    """{name: matrix} for one run of the relation suite, made with every d,
    d', e and f name in range.  A Serre block ("[,]", a, b) is formed as
    [a, b] the first time it is looked up; any other name outside the
    table raises OrderError."""

    def __missing__(self, name):
        if name[0] != "[,]":
            raise OrderError("no matrix %r within the verified order" % (name,))
        block = self[name] = self[name[1]].commutator(self[name[2]])
        return block


def _transposed(cases, sign):
    """The transpose of cases: every product reversed, every coefficient times sign."""
    for label, terms in cases:
        yield label, [(sign * c, names[::-1]) for c, names in terms]


def _key(pairs):
    """The sorted tuple of (operand names, coefficient) pairs, negated if
    need be so that its first coefficient is positive."""
    key = sorted(pairs)
    if key and key[0][1] < 0:
        key = [(names, -c) for names, c in key]
    return tuple(key)


def _canonical(terms, matrix):
    """(key, pairs): the terms of an instance as a sum of distinct products.

    Equal products (and equal plain matrices) merge, and zero coefficients
    and terms with an operand that matrix (the _NameTable) maps to zero
    drop.  pairs lists (operand names, coefficient) in order of first
    appearance, and key is their _key.  A name stands for one matrix of the
    run, so two instances with equal keys are the same linear combination
    of the same matrix products, up to sign, and vanish together; the key
    holds no matrix."""
    merged = {}
    for c, names in terms:
        if all(map(matrix.__getitem__, names)):
            merged[names] = merged.get(names, 0) + c
    pairs = [(names, c) for names, c in merged.items() if c]
    return _key(pairs), pairs


def _image_key(pairs, tau):
    """The key of tau applied to the pairs of _canonical, or None when
    some operand has no image: tau ({name: image name}) swaps the e and f
    it pairs, fixes d and d', and takes a commutator [a, b], named ("[,]",
    a, b), to [tau b, tau a] = -[tau a, tau b].  tau reverses a product; a
    product of d and d' alone keeps its order, since diagonal matrices
    commute."""
    image = []
    for names, c in pairs:
        moved = []
        for name in names:
            kind = name[0]
            if kind == "[,]":
                a, b = tau.get(name[1]), tau.get(name[2])
                if a is None or b is None:
                    return None
                name, c = ("[,]", a, b), -c
            elif kind != "d" and kind != "d'":
                name = tau.get(name)
                if name is None:
                    return None
            moved.append(name)
        if any(name[0] not in ("d", "d'") for name in names):
            moved.reverse()
        image.append((tuple(moved), c))
    return _key(image)


def _combine(dim, pairs, matrix):
    """The Combination summing the (names, coefficient) pairs of
    _canonical, each name read from matrix: lhs - rhs of the instance."""
    comb = Combination(dim)
    for names, c in pairs:
        if len(names) == 2:
            comb.product(matrix[names[0]], matrix[names[1]], c)
        else:
            comb.add(matrix[names[0]], c)
    return comb


def _anti_involution(gens):
    """{name: image name} of tau(X) = S^{-1} X^T S on the e and f of gens,
    for one diagonal S, or None when no such S takes e_i^(r + s_i) to
    f_i^(r) for every r with both in range, s_i = shift(i, i+1) -
    shift(i+1, i), or some d_i^(r) or d_i'^(r), which tau must fix, is
    not diagonal.  S is found, or shown not to exist, by
    sparse.diagonal_gauge on the pairs (e_i^(r + s_i) transposed,
    f_i^(r)); with no pair, as on one row, tau holds."""
    pyr, R = gens.rep.pyramid, gens.order
    n = pyr.n
    for i in range(1, n + 1):
        for r in range(R + 1):
            if not (gens.d(i, r).is_diagonal() and gens.dprime(i, r).is_diagonal()):
                return None
    tau = {}
    pairs = []
    for i in range(1, n):
        s = pyr.shift(i, i + 1) - pyr.shift(i + 1, i)
        for r in range(max(0, -s), min(R, R - s) + 1):
            tau["e", i, r + s] = "f", i, r
            tau["f", i, r] = "e", i, r + s
            pairs.append((gens.e(i, r + s).transpose(), gens.f(i, r)))
    return tau if diagonal_gauge(pairs) is not None else None


# Relation families in the order verify_defining_relations reports them.
RELATION_FAMILIES = ("[d,d]=0", "[e,f]", "[d,e]", "[d,f]", "e same-row", "f same-row",
                     "e adjacent", "f adjacent", "distant rows", "Serre e", "Serre f",
                     "d_1 vanishing")

# The tickets of the family queue, in the order the workers take them:
# each f-side family with its e-side transpose, which tau verifies from
# the f-side sums that passed (the f side first builds fewer product
# plans), and [e,f], its own image, alone.  The largest first, so that
# the last ones taken are short: at verify (2,3,3) --rmax 4, one worker,
# the Serre ticket takes 61 ms, [e,f] 22, [d,f] with [d,e] 21, adjacent
# 10, same-row 10 and [d,d]=0 3 of the suite's 156.
_QUEUE = (("Serre f", "Serre e"), ("[e,f]",), ("[d,f]", "[d,e]"), ("f adjacent", "e adjacent"),
          ("f same-row", "e same-row"), ("[d,d]=0",), ("distant rows",), ("d_1 vanishing",))
_TICKET = {name: ticket for ticket in _QUEUE for name in ticket}


def verify_defining_relations(rep, R):
    """Evaluate every defining relation for all admissible indices <= R.

    The index ranges start past the shift matrix (e_start, f_start), and
    each f-side family is the transpose of its e-side one (_transposed).
    Each instance is a label and one list of signed products of names
    that sums to lhs - rhs: ("e", i, r), ("f", i, r), ("d", i, r), ("d'",
    i, r), and ("[,]", a, b) for a Serre block [a, b] of two of those,
    which the run's _NameTable forms on its first lookup.  The list is
    brought to its canonical form (_canonical), keyed by the names, and
    each distinct form is summed once per ticket in one Combination and
    zero-tested: a mirrored instance, such as [d_j^(s), d_i^(r)] beside
    [d_i^(r), d_j^(s)] or a Serre (s, r, t) beside (r, s, t), is verified
    because its canonical sum is identical to one that passed, and an
    empty form is formally zero.  The keys hold names, not matrices, so what passed
    keeps no matrix alive.

    When the anti-involution tau(X) = S^{-1} X^T S exists
    (_anti_involution: one diagonal S with f_i^(r) = tau(e_i^(r + s_i))
    for every pair in range, found by sparse.diagonal_gauge, and d, d'
    diagonal, so fixed), an instance whose tau-image key (_image_key) is
    that of a sum that passed is verified too.  That is exact: tau is an
    involutive linear anti-automorphism, so a sum vanishes exactly when
    its image does.  So each e-side family is verified from the sums of
    its f-side transpose that passed, which its ticket runs first, and
    half of [e,f] (and of the distant rows) from the other half; only the
    instances whose image falls outside the index ranges are summed.  A
    failing instance never passes, so its image is still summed, and
    where tau does not exist the suite runs without it.  Every instance is
    still counted and labelled, and a failing instance's witness is read
    from the matrix of that sum.
    The only errors raised are those of generator_series(rep, 2 * R) and
    of a family's own run; a failing instance is reported.
    generator_series does not check that d_1^{(r)} vanishes for r > p_1;
    the d_1 vanishing family does, so such a fault in the series is a
    failed instance.

    The families are independent once the series are built, so this
    process builds them and registers each family's cases, and the
    tickets of _QUEUE, each family with its transpose, then run from a
    queue on several processes (_run_families): one per core this process
    may use, at most one per ticket, and 1 where os.fork does not exist or
    another thread runs (_default_workers).  The report lists the families
    in RELATION_FAMILIES order whichever process ran them, so it does not
    depend on the number of workers."""
    gens = generator_series(rep, 2 * R)
    pyr = rep.pyramid
    n = pyr.n
    N = rep.dim
    tau = _anti_involution(gens)
    matrix = _NameTable(((kind, i, r), get(i, r))
                        for kind, get, rows in (("d", gens.d, n), ("d'", gens.dprime, n),
                                                ("e", gens.e, n - 1), ("f", gens.f, n - 1))
                        for i in range(1, rows + 1) for r in range(gens.order + 1))
    estart, fstart = gens.e_start, gens.f_start
    cases = {}  # family name -> its case generator, registered unrun

    def check(ticket):
        # canonical keys of the sums that vanished, for the whole ticket
        passed = set()
        done = {}
        for name in ticket:
            fails = []
            count = 0
            for label, terms in cases[name]():
                count += 1
                key, pairs = _canonical(terms, matrix)
                if key in passed or tau is not None and _image_key(pairs, tau) in passed:
                    continue
                comb = _combine(N, pairs, matrix)
                if comb.is_zero():
                    passed.add(key)
                else:
                    fails.append("%s: %s" % (label, _first_diff(comb.finish(), rep.basis)))
            done[name] = count, fails
        return done

    def cases_dd():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for r in range(1, R + 1):
                    for s in range(1, R + 1):
                        yield ("i=%d j=%d r=%d s=%d" % (i, j, r, s),
                               _comm(("d", i, r), ("d", j, s)))
    cases["[d,d]=0"] = cases_dd

    def cases_ef():
        for i in range(1, n):
            for j in range(1, n):
                for r in range(estart(i), R + 1):
                    for s in range(fstart(j), R + 1):
                        terms = _comm(("e", i, r), ("f", j, s))
                        if i == j:
                            terms += [(1, (("d'", i, t), ("d", i + 1, r + s - t - 1)))
                                      for t in range(r + s)]
                        yield "i=%d j=%d r=%d s=%d" % (i, j, r, s), terms
    cases["[e,f]"] = cases_ef

    # each e-side family is stated once over x = "e" or "f" and its start
    # index; the f side is the transpose of its x = "f" instances
    def cases_de(x, start):
        for i in range(1, n + 1):
            for j in range(1, n):
                sign = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                for r in range(1, R + 1):
                    for s in range(start(j), R + 1):
                        terms = _comm(("d", i, r), (x, j, s))
                        if sign:
                            terms += [(-sign, (("d", i, t), (x, j, r + s - t - 1)))
                                      for t in range(r)]
                        yield "i=%d j=%d r=%d s=%d" % (i, j, r, s), terms
    cases["[d,e]"] = lambda: cases_de("e", estart)
    # the transpose of [d_i^(r), e_j^(s)] is [f_j^(s), d_i^(r)] = -[d_i^(r), f_j^(s)]
    cases["[d,f]"] = lambda: _transposed(cases_de("f", fstart), -1)

    def cases_same(x, start):
        for i in range(1, n):
            for r in range(start(i), R + 1):
                for s in range(start(i), R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           _comm((x, i, r), (x, i, s + 1)) + _comm((x, i, r + 1), (x, i, s), -1)
                           + [(-1, ((x, i, r), (x, i, s))), (-1, ((x, i, s), (x, i, r)))])
    cases["e same-row"] = lambda: cases_same("e", estart)
    cases["f same-row"] = lambda: _transposed(cases_same("f", fstart), 1)

    def cases_adj(x, start):
        for i in range(1, n - 1):
            for r in range(start(i), R + 1):
                for s in range(start(i + 1), R + 1):
                    yield ("i=%d r=%d s=%d" % (i, r, s),
                           _comm((x, i, r), (x, i + 1, s + 1))
                           + _comm((x, i, r + 1), (x, i + 1, s), -1)
                           + [(1, ((x, i, r), (x, i + 1, s)))])
    cases["e adjacent"] = lambda: cases_adj("e", estart)
    cases["f adjacent"] = lambda: _transposed(cases_adj("f", fstart), 1)

    # distant rows and Serre are sums of commutators of their own operands,
    # which the transpose with sign -1 fixes: their f side is just x = "f"
    def cases_far():
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) <= 1:
                    continue
                for x, start in (("e", estart), ("f", fstart)):
                    for r in range(start(i), R + 1):
                        for s in range(start(j), R + 1):
                            yield ("%s i=%d j=%d r=%d s=%d" % (x, i, j, r, s),
                                   _comm((x, i, r), (x, j, s)))
    cases["distant rows"] = cases_far

    def cases_serre(x, start):
        # [x_{i,s}, x_{j,t}] is sign times the block of its operands in row
        # order: ("[,]", x_{i,s}, x_{j,t}) for j = i + 1, and for j = i - 1
        # ("[,]", x_{j,t}, x_{i,s}), the name the block (j, i) reads
        for k in range(1, n - 1):
            for i, j, sign in ((k, k + 1, 1), (k + 1, k, -1)):
                si, sj = range(start(i), R + 1), range(start(j), R + 1)
                block = {(s, t): ("[,]", *((x, i, s), (x, j, t))[::sign]) for s in si for t in sj}
                for r in si:
                    for s in si:
                        for t in sj:
                            yield ("i=%d j=%d r=%d s=%d t=%d" % (i, j, r, s, t),
                                   _comm((x, i, r), block[s, t], sign)
                                   + _comm((x, i, s), block[r, t], sign))
    cases["Serre e"] = lambda: cases_serre("e", estart)
    cases["Serre f"] = lambda: cases_serre("f", fstart)

    def cases_quotient():
        for r in range(pyr.p(1) + 1, gens.order + 1):
            yield "r=%d" % r, [(1, (("d", 1, r),))]
    cases["d_1 vanishing"] = cases_quotient

    done = _run_families(check, _default_workers())
    report = RelationReport()
    for name in RELATION_FAMILIES:
        report.add(name, *done[name])
    return report


def _default_workers():
    """Every core this process may use, at most one per ticket of _QUEUE;
    1 where os.fork does not exist, and in a process with threads, where a
    lock another thread holds at the fork would stay held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, len(_QUEUE))


def _run_families(run, workers):
    """{family: (count, fails)} for every family of RELATION_FAMILIES, from
    run(ticket), which returns that dict for the families of one ticket.

    One byte per ticket goes into a pipe in _QUEUE order, and this
    process forks workers - 1 children (none for one worker).  It and
    every child take and run tickets in one loop (_run_taken), and a
    child sends its results back through a pipe of its own (_child).  A
    family no process delivered, because a child died or its ticket
    raised, is run here again, with its ticket, in RELATION_FAMILIES
    order, so the first family in that order that raises raises, as in a
    serial run.  Every child is killed and reaped before the call returns
    or raises."""
    tickets, refill = os.pipe()
    os.write(refill, bytes(range(len(_QUEUE))))
    os.close(refill)  # an empty queue then reads as end of file
    children = {}  # pid -> the read end of its result pipe
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
        done = _run_taken(run, tickets)
        for results in children.values():
            try:
                done.update(marshal.loads(results.read()))
            except (EOFError, ValueError, TypeError):
                pass  # the child died before it sent all of them
    finally:
        os.close(tickets)
        _reap(children)
    for name in RELATION_FAMILIES:
        if name not in done:
            done.update(run(_TICKET[name]))
    return done


def _run_taken(run, tickets):
    """{family: (count, fails)} for the tickets taken from the queue, one
    at a time until it is empty; a ticket that raises is left out, for
    _run_families to run again."""
    out = {}
    while ticket := os.read(tickets, 1):
        try:
            out.update(run(_QUEUE[ticket[0]]))
        except Exception:
            pass
    return out


def _child(run, tickets, write):
    """A forked worker: send the results of _run_taken through write with
    marshal, and leave by os._exit, so that no exit handler runs and no
    buffer inherited from the parent is flushed."""
    try:
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(_run_taken(run, tickets)))
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
