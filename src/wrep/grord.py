"""Leading monomials of the determinant coefficients under a weighted
monomial order.

Variables X_{ij}^k live on an n x n grid with ranges dictated by the row
lengths; the coefficients d_{rs} of the top-left r x r determinants are
computed both via polynomial determinant expansion and via the direct
signed sum over permutations and exponent compositions, which must agree.
A concrete weight (built from explicit large constants) makes each d_{rs}
have a predicted leading monomial that contains a distinguished variable
to degree one."""

from itertools import permutations
from operator import mul

from .arith import UniPoly, leading_minors, perm_sign
from .errors import InvariantViolation, OrderError
from .mpoly import MPoly


def variable_slots(pyr):
    """Triples (i, j, k) with s_ij < k <= p_j (s the shift matrix,
    Pyramid.shift): the full range k = 1..p_j at or below the diagonal."""
    n = pyr.n
    slots = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(pyr.shift(i, j) + 1, pyr.p(j) + 1):
                slots.append((i, j, k))
    return slots


class GradedRing:
    """Variable bookkeeping for one pyramid."""

    def __init__(self, pyr):
        self.pyramid = pyr
        self.slots = variable_slots(pyr)
        self.index = {s: idx for idx, s in enumerate(self.slots)}
        self.names = tuple("X_%d_%d_%d" % s for s in self.slots)

    def var(self, i, j, k):
        return MPoly.var(self.names, self.index[(i, j, k)])

    def entry_poly(self, i, j):
        """X_{ij}(u) = delta_ij u^{p_j} + sum_k X_{ij}^k u^{p_j - k}."""
        pj = self.pyramid.p(j)
        coeffs = [MPoly.zero(self.names) for _ in range(pj + 1)]
        if i == j:
            coeffs[pj] = MPoly.const(self.names, 1)
        for k in range(self.pyramid.shift(i, j) + 1, pj + 1):
            coeffs[pj - k] = self.var(i, j, k)
        return UniPoly(coeffs)


def dcoeff_determinants(ring, r):
    """[D_1, ..., D_r], D_m = [d_{m,0}, ..., d_{m,P}] with P = p_1+...+p_m:
    d_{ms} is the coefficient of u^{P - s} in det of the top-left m x m
    block, every m read off the chain of leading minors of one r x r
    recursion (arith.leading_minors)."""
    entries = {(i, j): ring.entry_poly(i + 1, j + 1)
               for i in range(r) for j in range(r)}
    zero = MPoly.zero(ring.names)
    out = []
    for m, det in enumerate(leading_minors(r, lambda i, j: entries[(i, j)]), 1):
        block = ring.pyramid.row_block_size(m)
        out.append([det.coeff(block - s) or zero for s in range(block + 1)])
    return out


def dcoeff_direct(ring, r):
    """[d_{r,0}, ..., d_{r,P}], d_{rs} = sum over sigma and compositions
    k_1+...+k_r = s of sgn(sigma) X_{sigma(1)1}^{k_1} ... X_{sigma(r)r}^{k_r},
    with X_{ij}^0 meaning delta_ij (independent oracle for the determinant).
    One walk of S_r and the compositions adds each monomial's sign into
    the dict of its degree s, keyed by exponent tuple."""
    pyr = ring.pyramid
    outs = [{} for _ in range(pyr.row_block_size(r) + 1)]
    for sigma in permutations(range(1, r + 1)):
        sgn = perm_sign(sigma)
        partial = [((), 0)]  # (variable indices chosen so far, degree)
        for j in range(1, r + 1):
            i = sigma[j - 1]
            choices = [(0, ())] if i == j else []
            for k in range(pyr.shift(i, j) + 1, pyr.p(j) + 1):
                choices.append((k, (ring.index[(i, j, k)],)))
            partial = [(chosen + v, deg + k) for chosen, deg in partial
                       for k, v in choices]
        for chosen, deg in partial:
            e = [0] * len(ring.slots)
            for idx in chosen:
                e[idx] += 1
            e = tuple(e)
            out = outs[deg]
            out[e] = out.get(e, 0) + sgn
    return [MPoly(ring.names, out) for out in outs]


def build_weight(pyr):
    """Weights (v, w) on the variables, as dicts slot -> int.

    v separates the monomial classes with explicit margins; w = v + k*l
    adds the exponent grading with a dominating step l."""
    n = pyr.n
    N = 2 * n * n + 1
    P = max(pyr.rows) + 1
    L = N**6
    v = {}
    for (i, j, k) in variable_slots(pyr):
        if i < j:
            v[(i, j, k)] = -N
        elif i == j:
            v[(i, j, k)] = -(N**3) + i * P + k
        elif i == j + 1 and k == pyr.p(j):
            v[(i, j, k)] = j + 1
        else:
            v[(i, j, k)] = -(N**5)
    w = {s: v[s] + s[2] * L for s in v}
    check_weight_conditions(pyr, v, w, N, P, L)
    return v, w


def check_weight_conditions(pyr, v, w, N, P, L):
    """The stated inequalities behind the leading-monomial argument."""
    n = pyr.n
    if N <= 2 * n * n:
        raise OrderError("the base constant must exceed 2n^2")
    if P <= max(pyr.rows):
        raise OrderError("the diagonal step must exceed every row length")
    if L != N**6:
        raise OrderError("the grading step must be the sixth power")
    for (i, j, k), val in v.items():
        if i == j + 1 and k == pyr.p(j):
            if val != j + 1:
                raise OrderError("subdiagonal top weight is wrong at %r" % ((i, j, k),))
        elif i < j:
            if val != -N:
                raise OrderError("above-diagonal weight is wrong at %r" % ((i, j, k),))
        elif i == j:
            if val != -(N**3) + i * P + k:
                raise OrderError("diagonal weight is wrong at %r" % ((i, j, k),))
        elif val != -(N**5):
            raise OrderError("deep weight is wrong at %r" % ((i, j, k),))
    # margins: subdiagonal tops are positive and below n+1; diagonal weights
    # sit strictly between the deep level and the above-diagonal level
    for (i, j, k), val in v.items():
        if i == j + 1 and k == pyr.p(j):
            if not (0 < val <= n + 1 < N):
                raise OrderError("subdiagonal margin fails")
        elif i == j:
            if not (-(N**5) < val < -N):
                raise OrderError("diagonal margin fails")


def weighted_leading_monomial(ring, w, poly):
    """Exponent tuple of the w-greatest term, ties broken by lex."""
    if not poly:
        raise InvariantViolation("zero polynomial has no leading monomial")
    weights = [w[slot] for slot in ring.slots]
    return max(poly.terms, key=lambda e: (sum(map(mul, weights, e)), e))


def predicted_leading(ring, r, s):
    """The claimed leading monomial y_{r,s}, as an exponent tuple, plus the
    distinguished slot it contains to degree one."""
    pyr = ring.pyramid
    exps = [0] * len(ring.slots)
    if s <= pyr.p(r):
        slot = (r, r, s)
        exps[ring.index[slot]] += 1
        return tuple(exps), slot
    t = 1
    acc = pyr.p(r)
    while acc + pyr.p(r - t) < s:
        acc += pyr.p(r - t)
        t += 1
        if r - t < 0:
            raise InvariantViolation("no predicted monomial for d_{%d,%d}" % (r, s))
    for m in range(r, r - t, -1):
        exps[ring.index[(m, m - 1, pyr.p(m - 1))]] += 1
    k = s - sum(pyr.p(m) for m in range(r - t, r))
    slot = (r - t, r, k)
    exps[ring.index[slot]] += 1
    return tuple(exps), slot


def verify_leading_claims(pyr):
    """Check, for every r and every 1 <= s <= p_1+...+p_r:

    * the determinant and direct expansions of d_{rs} agree;
    * d_{rs} is homogeneous of degree s in the exponent grading;
    * its weighted leading monomial is the predicted one;
    * the distinguished slots are pairwise distinct and appear to
      degree one.

    Returns the number of (r, s) pairs checked."""
    ring = GradedRing(pyr)
    _, w = build_weight(pyr)
    grades = [k for _, _, k in ring.slots]
    seen_slots = {}
    checked = 0
    for r, d in enumerate(dcoeff_determinants(ring, pyr.n), 1):
        direct = dcoeff_direct(ring, r)
        for s in range(1, pyr.row_block_size(r) + 1):
            d1 = d[s]
            if d1 != direct[s]:
                raise InvariantViolation(
                    "determinant and direct expansions disagree for d_{%d,%d}"
                    % (r, s)
                )
            for e in d1.terms:
                if sum(map(mul, grades, e)) != s:
                    raise InvariantViolation(
                        "d_{%d,%d} is not homogeneous of degree %d" % (r, s, s)
                    )
            lead = weighted_leading_monomial(ring, w, d1)
            want, slot = predicted_leading(ring, r, s)
            if lead != want:
                raise InvariantViolation(
                    "leading monomial of d_{%d,%d} is not the predicted one"
                    % (r, s)
                )
            if lead[ring.index[slot]] != 1:
                raise InvariantViolation(
                    "distinguished variable of d_{%d,%d} has degree != 1" % (r, s)
                )
            if slot in seen_slots:
                raise InvariantViolation(
                    "distinguished variable %r repeats at (%d,%d) and %r"
                    % (slot, r, s, seen_slots[slot])
                )
            seen_slots[slot] = (r, s)
            checked += 1
    return checked
