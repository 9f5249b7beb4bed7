"""Slow, direct formulas that the tests hold the library routines to."""

from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import prod

from wrep.arith import (
    UniPoly,
    perm_sign,
    poly_shift,
    poly_to_inv_series,
    series_inverse,
    series_product,
)
from wrep.center import higher_root_coefficients
from wrep.errors import EvaluationError, InvariantViolation
from wrep.gamma import gamma_coefficients
from wrep.patterns import entry_slots, enumerate_patterns, key_slots, row_spans
from wrep.sparse import SparseMatrix


def l_value(mu, r, i, k):
    """The l-value of the entry (r, i, k) of the pattern mu: entry - i + 1."""
    return mu.entry(r, i, k) - i + 1


def row_l_values(mu, r):
    """All l-values of row r of mu in slot order (the interpolation nodes)."""
    return [l_value(mu, r, i, k) for (i, k) in entry_slots(mu.pyramid, r)]


def _interlaces(pyramid, entries, r, i, k):
    """Check the two interlacing conditions binding entry (r,i,k) upward."""
    n = pyramid.n
    if r == n:
        return True
    v = entries[(r, i, k)]
    up = entries[(r + 1, i, k)] - v
    if up.denominator != 1 or up < 0:
        return False
    low = v - entries[(r + 1, i + 1, k)]
    if low.denominator != 1 or low < 0:
        return False
    return True


def is_pattern(pyramid, entries, weight):
    """Full validity: top row matches the weight, interlacing everywhere.
    The program decides membership by looking a key up in the basis index
    (``Representation.shifted``)."""
    n = pyramid.n
    for i in range(1, n + 1):
        for k in range(1, pyramid.p(i) + 1):
            if entries[(n, i, k)] != weight.part(i, k):
                return False
    for r in range(1, n):
        for (i, k) in entry_slots(pyramid, r):
            if not _interlaces(pyramid, entries, r, i, k):
                return False
    return True


def leibniz_det(n, entry):
    """sum over permutations sigma of sgn(sigma) entry(sigma(0), 0) ...
    entry(sigma(n-1), n-1) for n >= 1, each of the n! products formed from
    scratch, left to right in column order."""
    total = None
    for sigma in permutations(range(n)):
        prod = entry(sigma[0], 0)
        for c in range(1, n):
            prod = prod * entry(sigma[c], c)
        if perm_sign(sigma) < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def plain_series_product(a, b):
    """Truncated product of two equally long series, coefficient by
    coefficient with one + per product."""
    return [sum((a[t] * b[m - t] for t in range(1, m + 1)), a[0] * b[m])
            for m in range(len(a))]


def gauss_t_series(gens):
    """Series t_{ij}(u) = sum_{k <= min(i,j)} f_{ik}(u) d_k(u) e_{kj}(u) for
    every (i, j), each a product of three coefficient lists with
    f_{kk} = e_{kk} = 1 written out as the identity series."""
    rep = gens.rep
    n = rep.pyramid.n
    R = gens.order
    e_table, f_table = higher_root_coefficients(gens)
    one = [SparseMatrix.identity(rep.dim)] + [SparseMatrix(rep.dim)] * R
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = None
            for k in range(1, min(i, j) + 1):
                fik = one if i == k else f_table[(i, k)]
                ekj = one if j == k else e_table[(k, j)]
                dk = [gens["d", k, r] for r in range(R + 1)]
                term = plain_series_product(plain_series_product(fik, dk), ekj)
                total = term if total is None else [x + y for x, y in zip(total, term)]
            out[(i, j)] = total
    return out


def gauss_t_matrix(gens):
    """T_{ij}(u) = u^{p_j} t_{ij}(u) from ``gauss_t_series``, with every
    tail coefficient t_{ij}^{(r)}, r > p_j, asserted zero."""
    pyr = gens.rep.pyramid
    T = {}
    for (i, j), s in gauss_t_series(gens).items():
        pj = pyr.p(j)
        assert not any(s[pj + 1:]), "t_%d%d has a nonzero tail" % (i, j)
        T[(i, j)] = UniPoly([s[pj - d] for d in range(pj + 1)])
    return T


def fraction_build(pyramid, weight):
    """(A, B, C) of ``build_representation`` in Fraction arithmetic, on the
    l-values read from the pattern entries: A_r is diagonal with entries
    prod (u + l) over row r, and the column of a pattern in B_r (C_r) holds,
    for each row-r node x = -l whose raised (lowered) array is a pattern,
    the Lagrange polynomial of x times -1 (+1) times the row r+1 (r-1)
    eigenvalue at x."""
    basis = enumerate_patterns(weight)
    index = {mu.key(): col for col, mu in enumerate(basis)}
    spans = row_spans(pyramid)
    n = pyramid.n
    A, B, C = {}, {}, {}
    eig = [{(): UniPoly([1])}]
    for r in range(1, n + 1):
        eig.append({})
        for mu in basis:
            eig[r][mu.key()[spans[r]]] = UniPoly.from_roots([-l for l in row_l_values(mu, r)])
        A[r] = UniPoly([SparseMatrix.diagonal(column) for column in
                        zip(*(eig[r][mu.key()[spans[r]]].coeffs for mu in basis))])
    for r in range(1, n):
        for table, step, adj, sign in ((B, 1, r + 1, -1), (C, -1, r - 1, 1)):
            per_degree = [[] for _ in range(pyramid.row_block_size(r))]
            for col, mu in enumerate(basis):
                key = mu.key()
                nodes = [-l for l in row_l_values(mu, r)]
                for k, x in enumerate(nodes):
                    shifted = list(key)
                    shifted[spans[r].start + k] += step
                    tgt = index.get(tuple(shifted))
                    if tgt is None:
                        continue
                    others = nodes[:k] + nodes[k + 1:]
                    den = prod((x - y for y in others), start=Fraction(1))
                    value = sign * eig[adj][key[spans[adj]]](x)
                    for d, c in enumerate(UniPoly.from_roots(others).coeffs):
                        per_degree[d].append((tgt, col, value * c / den))
            table[r] = UniPoly([SparseMatrix.from_entries(len(basis), entries)
                                for entries in per_degree])
    return A, B, C


def fraction_in_u(coeff, point):
    """The galois.Factored coeff as a UniPoly in u over Fractions, each other
    variable i at the Fraction point[i]: const times the value of each
    u-free numerator form, times c for each form c u + y with a root at
    -y / c, over the value of each denominator form."""
    def value(form):
        return sum((c * point[i] for i, c in form if i), Fraction(0))
    scalar, roots = Fraction(coeff.const), []
    for form in coeff.num:
        i, c = form[0]
        if i == 0:
            scalar *= c
            roots.append(-value(form) / c)
        else:
            scalar *= value(form)
    for form in coeff.den:
        d = value(form)
        if form[0][0] == 0 or not d:
            raise EvaluationError("no polynomial in u")
        scalar /= d
    return scalar * UniPoly.from_roots(roots)


def fraction_act_on_basis(model, rep, element):
    """``galois.act_on_basis`` in Fraction arithmetic: for every basis
    pattern mu and term a * phi, the Fraction l-values of mu read from its
    entries (``l_value``), the array mu + phi looked up by its
    key, and a(l-values of mu, u) (``fraction_in_u``) entered at (mu + phi,
    mu), with no memo."""
    slots = key_slots(model.pyramid)
    entries = defaultdict(list)  # power of u -> [(row, column, value)]
    for col, mu in enumerate(rep.basis):
        point = [None] + [l_value(mu, *slot) for slot in slots]
        for d, a in element.terms.items():
            tgt = rep.index.get(tuple(z + s for z, s in zip(mu.key(), d)))
            if tgt is None:
                continue
            for power, val in enumerate(fraction_in_u(a, point).coeffs):
                entries[power].append((tgt, col, val))
    return UniPoly([SparseMatrix.from_entries(rep.dim, entries[power])
                    for power in range(max(entries, default=-1) + 1)])


def fraction_character_reader(rep):
    """``gamma._character_reader`` in Fraction arithmetic: a function mu ->
    {(r, k): e_k of the Fraction l-values of row r of mu}
    (``row_l_values``), the e_k of a row formed once per distinct
    slice of the key in that row and each value checked against the entry
    (col, col) of a_r^{(k)} read by ``SparseMatrix.get``."""
    spans = row_spans(rep.pyramid)
    coeffs = gamma_coefficients(rep)
    esym_of = [{} for _ in spans]

    def elementary_symmetric(values):
        e = [Fraction(1)]
        for v in values:
            e.append(Fraction(0))
            for k in range(len(e) - 1, 0, -1):
                e[k] += v * e[k - 1]
        return e

    def character(mu):
        col = rep.index[mu.key()]
        chi = {}
        for r in range(1, rep.n + 1):
            row = mu.key()[spans[r]]
            esym = esym_of[r].get(row)
            if esym is None:
                esym = esym_of[r][row] = elementary_symmetric(row_l_values(mu, r))
            for k in range(1, len(esym)):
                predicted = esym[k]
                actual = coeffs[(r, k)].get(col, col)
                if predicted != actual:
                    raise InvariantViolation(
                        "character mismatch at pattern %r, a_%d^{(%d)}: "
                        "symmetric-function value %s vs matrix entry %s"
                        % (mu, r, k, predicted, actual)
                    )
                chi[(r, k)] = predicted
        return chi

    return character


def character_of(rep, mu):
    """The Fraction character of the commutative subalgebra at the pattern
    mu, checked against the matrices (``fraction_character_reader``)."""
    return fraction_character_reader(rep)(mu)


def fraction_fibers(rep):
    """The basis partitioned by the Fraction characters, as a set of
    frozensets of keys."""
    character = fraction_character_reader(rep)
    out = defaultdict(set)
    for mu in rep.basis:
        chi = character(mu)
        out[tuple(chi[k] for k in sorted(chi))].add(mu.key())
    return {frozenset(keys) for keys in out.values()}


def gelfand_tsetlin_diagonals(rep, i, order):
    """(d, d'): for each basis pattern mu, the entry (mu, mu) of d_i(u) and
    of d_i'(u) at u^0 .. u^{-order}, from the Fraction l-values of mu
    (``row_l_values``).  With w = 1/u, d_i at mu is
    prod_{row i} (1 + (l + i - 1) w) / prod_{row i-1} (1 + (l + i - 1) w),
    row 0 holding no l-value, and d_i' is its reciprocal; each quotient is
    expanded in w one coefficient at a time."""
    def linear_product(values):
        c = [Fraction(1)]
        for v in values:
            c = [a + v * b for a, b in zip(c + [Fraction(0)], [Fraction(0)] + c)]
        return c

    def quotient(num, den):
        out = []
        for m in range(order + 1):
            acc = num[m] if m < len(num) else Fraction(0)
            out.append(acc - sum(den[t] * out[m - t] for t in range(1, min(m, len(den) - 1) + 1)))
        return out

    d, dprime = [], []
    for mu in rep.basis:
        top = linear_product(l + i - 1 for l in row_l_values(mu, i))
        below = linear_product(l + i - 1 for l in row_l_values(mu, i - 1)) if i > 1 else [Fraction(1)]
        d.append(quotient(top, below))
        dprime.append(quotient(below, top))
    return d, dprime


def full_dimension_series(rep, R):
    """(d, d', e, f) of ``rep.generator_series`` as tables {i: [M_0..M_R]},
    every diagonal series inverted and multiplied on the full dimension:
    a_i = A_i(v) u^{-P_i} with v = u + i - 1, d_1 = a_1, d_1' = a_1^{-1},
    d_i' = A_{i-1}(v) u^{-P_{i-1}} a_i^{-1} and d_i = d_i'^{-1} (i >= 2),
    e_i = a_i^{-1} B_i(v) u^{-P_i-s_{i,i+1}} and f_i = C_i(v) u^{-P_i}
    a_i^{-1}; nothing is checked."""
    pyr = rep.pyramid

    def read(p, k, i):
        return poly_to_inv_series(poly_shift(p, i - 1), k, R)

    d, dprime, e, f = {}, {}, {}, {}
    for i in range(1, pyr.n + 1):
        P = pyr.row_block_size(i)
        a = read(rep.A[i], P, i)
        x = series_inverse(a)
        if i == 1:
            d[i], dprime[i] = a, x
        else:
            dprime[i] = series_product(read(rep.A[i - 1], pyr.row_block_size(i - 1), i), x)
            d[i] = series_inverse(dprime[i])
        if i < pyr.n:
            e[i] = series_product(x, read(rep.B[i], P + pyr.shift(i, i + 1), i))
            f[i] = series_product(read(rep.C[i], P, i), x)
    return d, dprime, e, f
