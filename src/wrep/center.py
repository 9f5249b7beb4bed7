"""Central elements via the column determinant of the generating matrix.

Higher-root coefficients are produced from the simple ones by commutator
recursions; the entries t_{ij}(u) assemble from the Gauss decomposition
sum_{k <= min(i,j)} f_{ik}(u) d_k(u) e_{kj}(u); multiplying by u^{p_j} must
give a polynomial, and the coefficients of the column determinant below the
top must act as central scalars."""

from .arith import UniPoly, column_det, poly_shift, series_product
from .errors import InvariantViolation
from .sparse import Combination, SparseMatrix


def higher_root_coefficients(gens):
    """Tables e[(i,j)][r] (i<j) and f[(j,i)][r] (i<j) for r = 0..R."""
    rep = gens.rep
    pyr = rep.pyramid
    n = pyr.n
    R = gens.order
    zero = SparseMatrix(rep.dim)

    e = {}
    f = {}
    for i in range(1, n):
        e[(i, i + 1)] = [gens.e(i, r) for r in range(R + 1)]
        f[(i + 1, i)] = [gens.f(i, r) for r in range(R + 1)]
    for span in range(2, n):
        for i in range(1, n - span + 1):
            j = i + span
            step = pyr.shift(j - 1, j)
            pivot = gens.e(j - 1, step + 1)
            # e_{ij} starts at s_ij + 1 > s_{j-1,j} = step, as s_ij = s_{i,j-1} + step
            start = pyr.shift(i, j) + 1
            e[(i, j)] = [e[(i, j - 1)][r - step].commutator(pivot) if r >= start else zero
                         for r in range(R + 1)]
            fpivot = gens.f(j - 1, gens.f_start(j - 1))
            f[(j, i)] = [fpivot.commutator(f[(j - 1, i)][r]) for r in range(R + 1)]
    return e, f


def build_t_matrix(gens):
    """Polynomial matrix T_{ij}(u) = u^{p_j} t_{ij}(u).

    Each product g_{ik} = f_{ik} d_k (k < i; g_{kk} = d_k) is formed once
    and shared by every column j, and each coefficient t_{ij}^{(m)} is one
    sum over k and t of g_{ik}^{(t)} e_{kj}^{(m-t)} (e_{jj} = 1).  Raises
    when any tail coefficient t_{ij}^{(r)}, p_j < r <= R, fails to vanish
    (polynomiality of the entries)."""
    rep = gens.rep
    pyr = rep.pyramid
    n = pyr.n
    R = gens.order
    N = rep.dim
    e_table, f_table = higher_root_coefficients(gens)
    g = {}
    for i in range(1, n + 1):
        g[(i, i)] = [gens.d(i, r) for r in range(R + 1)]
        for k in range(1, i):
            g[(i, k)] = series_product(f_table[(i, k)], g[(k, k)])
    T = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = []
            for m in range(R + 1):
                comb = Combination(N)
                for k in range(1, min(i, j) + 1):
                    if k == j:
                        comb.add(g[(i, k)][m])
                        continue
                    gik, ekj = g[(i, k)], e_table[(k, j)]
                    for s in range(m + 1):
                        comb.product(gik[s], ekj[m - s])
                t.append(comb)
            pj = pyr.p(j)
            for r in range(pj + 1, R + 1):
                if not t[r].is_zero():
                    raise InvariantViolation(
                        "t_{%d%d}^{(%d)} nonzero beyond the column degree %d"
                        % (i, j, r, pj)
                    )
            # coefficient of u^{p_j - r} is t_{ij}^{(r)}
            T[(i, j)] = UniPoly([t[pj - d].finish() for d in range(pj + 1)])
    return T


def column_determinant(T, n):
    """cdet T(u) = sum_sigma sgn(sigma) T_{sigma(1)1}(u) ... T_{sigma(n)n}(u-n+1)."""
    shifted = {(i, c): poly_shift(T[(i + 1, c + 1)], -c)
               for i in range(n) for c in range(n)}
    return column_det(n, lambda i, c: shifted[(i, c)])


def central_coefficients(rep, cdet):
    """Scalars d_s, s = 1..p_1+...+p_n, from the column determinant.

    Checks that cdet T(u) is monic of the full degree and that each lower
    coefficient is a scalar matrix c * I.  Such a matrix commutes with
    every matrix, so centrality on the representation needs no further
    check."""
    pyr = rep.pyramid
    n = pyr.n
    P = pyr.row_block_size(n)
    if cdet.degree != P:
        raise InvariantViolation(
            "column determinant has degree %d, expected %d" % (cdet.degree, P)
        )
    if cdet.coeffs[-1] != SparseMatrix.identity(rep.dim):
        raise InvariantViolation("column determinant is not monic")

    scalars = {}
    for s in range(1, P + 1):
        mat = cdet.coeffs[P - s]
        c = mat.scalar_part()
        if c is None:
            raise InvariantViolation("cdet coefficient d_%d is not scalar" % s)
        scalars[s] = c
    return scalars


def quasideterminant_check(T, cdet):
    """For two rows: cdet T(u) must equal D_2(u-1) with
    D_2(u) = T_{11}(u+1) T_{22}(u) - T_{21}(u+1) T_{12}(u)."""
    if len(T) != 4:
        raise ValueError("this cross-check is specific to two rows")
    D2 = (poly_shift(T[(1, 1)], 1) * T[(2, 2)]
          - poly_shift(T[(2, 1)], 1) * T[(1, 2)])
    return cdet == poly_shift(D2, -1)


def cdet_vs_top_row(rep, cdet):
    """Record (not assert) whether cdet T(u) equals A_n(u), as matrix
    polynomials in u."""
    return cdet == rep.A[rep.n]
