"""Central elements via the column determinant of the generating matrix.

Higher-root coefficients are produced from the simple ones by commutator
recursions; the entries t_{ij}(u) assemble from the Gauss decomposition
sum_k f_{ik}(u) d_k(u) e_{kj}(u); multiplying by u^{p_j} must give a
polynomial, and the coefficients of the column determinant below the top
must act as central scalars."""

from fractions import Fraction

from .arith import InvSeries, UniPoly, leibniz_det, poly_shift
from .errors import InvariantViolation
from .sparse import SparseMatrix


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
            step = pyr.p(j) - pyr.p(j - 1)
            pivot = gens.e(j - 1, step + 1)
            start = pyr.p(j) - pyr.p(i) + 1
            row = []
            for r in range(R + 1):
                if r < start or r - step < 0:
                    row.append(zero)
                else:
                    row.append(e[(i, j - 1)][r - step].commutator(pivot))
            e[(i, j)] = row
            fpivot = gens.f(j - 1, 1)
            f[(j, i)] = [fpivot.commutator(f[(j - 1, i)][r]) for r in range(R + 1)]
    return e, f


def t_entry_series(gens, e_table, f_table, i, j):
    """Series t_{ij}(u) = sum_k f_{ik}(u) d_k(u) e_{kj}(u)."""
    rep = gens.rep
    R = gens.order
    N = rep.dim
    zero = SparseMatrix(N)
    ident = SparseMatrix.identity(N)
    total = None
    for k in range(1, min(i, j) + 1):
        if i == k:
            fik = InvSeries([ident] + [zero] * R, R)
        else:
            fik = InvSeries(f_table[(i, k)], R)
        if j == k:
            ekj = InvSeries([ident] + [zero] * R, R)
        else:
            ekj = InvSeries(e_table[(k, j)], R)
        dk = InvSeries([gens.d(k, r) for r in range(R + 1)], R)
        term = fik * dk * ekj
        total = term if total is None else total + term
    return total


def build_t_matrix(gens):
    """Polynomial matrix T_{ij}(u) = u^{p_j} t_{ij}(u).

    Raises when any tail coefficient t_{ij}^{(r)}, p_j < r <= R, fails to
    vanish (polynomiality of the entries)."""
    rep = gens.rep
    pyr = rep.pyramid
    n = pyr.n
    R = gens.order
    e_table, f_table = higher_root_coefficients(gens)
    T = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = t_entry_series(gens, e_table, f_table, i, j)
            pj = pyr.p(j)
            for r in range(pj + 1, R + 1):
                if s.coeffs[r]:
                    raise InvariantViolation(
                        "t_{%d%d}^{(%d)} nonzero beyond the column degree %d"
                        % (i, j, r, pj)
                    )
            # coefficient of u^{p_j - r} is t_{ij}^{(r)}
            T[(i, j)] = UniPoly([s.coeffs[pj - d] for d in range(pj + 1)])
    return T


def column_determinant(T, n):
    """cdet T(u) = sum_sigma sgn(sigma) T_{sigma(1)1}(u) ... T_{sigma(n)n}(u-n+1)."""
    shifted = {(i, c): poly_shift(T[(i + 1, c + 1)], -c)
               for i in range(n) for c in range(n)}
    return leibniz_det(n, lambda i, c: shifted[(i, c)])


def central_coefficients(rep, cdet):
    """Scalars d_s, s = 1..p_1+...+p_n, from the column determinant.

    Checks that cdet T(u) is monic of the full degree, that each lower
    coefficient is a scalar matrix, and that each commutes with every
    generator coefficient of the representation."""
    pyr = rep.pyramid
    n = pyr.n
    P = pyr.row_block_size(n)
    if cdet.degree != P:
        raise InvariantViolation(
            "column determinant has degree %d, expected %d" % (cdet.degree, P)
        )
    if cdet.coeffs[-1] != SparseMatrix.identity(rep.dim):
        raise InvariantViolation("column determinant is not monic")

    gen_mats = []
    for r in range(1, n + 1):
        gen_mats.extend(rep.A[r].coeffs)
    for r in range(1, n):
        gen_mats.extend(rep.B[r].coeffs)
        gen_mats.extend(rep.C[r].coeffs)

    scalars = {}
    for s in range(1, P + 1):
        mat = cdet.coeffs[P - s]
        c = mat.scalar_part()
        if c is None:
            raise InvariantViolation("cdet coefficient d_%d is not scalar" % s)
        for g in gen_mats:
            if mat.commutator(g):
                raise InvariantViolation("cdet coefficient d_%d is not central" % s)
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
    """Record (not assert) the ratio cdet T(u0) / A_n(u0) at u0 = 0, 7, -3.

    A_n(u) acts by the same scalar on every basis vector, so both sides
    are scalars wherever A_n(u0) is nonzero."""
    zero = SparseMatrix(rep.dim)
    out = []
    for u0 in (Fraction(0), Fraction(7), Fraction(-3)):
        cval = cdet(u0, zero).scalar_part()
        aval = rep.A[rep.n](u0, zero).scalar_part()
        ratio = None if (aval is None or cval is None or not aval) else cval / aval
        out.append((u0, cval, aval, ratio))
    return out
