"""Slow, direct formulas that the tests hold the library routines to."""

from itertools import permutations

from wrep.arith import UniPoly, perm_sign
from wrep.center import higher_root_coefficients
from wrep.sparse import SparseMatrix


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
                dk = [gens.d(k, r) for r in range(R + 1)]
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
