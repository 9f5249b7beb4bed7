"""Skew-group model over rational functions in the row variables.

Variables are u plus x_{r,i,k} for every row-r slot (i, k); the product
of symmetric groups G acts by permuting each row block; the free abelian
shift group acts by integer translations of the variables of rows below
the top.  Images of the generating polynomials are explicit skew elements
whose evaluation at a pattern's l-values must reproduce the matrix
action."""

from fractions import Fraction

from .arith import Terms
from .errors import EvaluationError, InvariantViolation, NotInvariant
from .mpoly import MPoly, MRat
from .patterns import entry_slots
from .sparse import SparseMatrix


class GaloisModel:
    """Fixed variable order and group/shift bookkeeping for one pyramid."""

    def __init__(self, pyramid):
        self.pyramid = pyramid
        n = pyramid.n
        self.row_slots = {r: entry_slots(pyramid, r) for r in range(1, n + 1)}
        names = ["u"]
        self.xindex = {}
        for r in range(1, n + 1):
            for (i, k) in self.row_slots[r]:
                self.xindex[(r, i, k)] = len(names)
                names.append("x_%d_%d_%d" % (r, i, k))
        self.names = tuple(names)
        # shift-group coordinates: one per slot of rows 1..n-1
        self.delta_slots = [
            (r, i, k) for r in range(1, n) for (i, k) in self.row_slots[r]
        ]
        self.delta_index = {s: idx for idx, s in enumerate(self.delta_slots)}
        self.zero_delta = (0,) * len(self.delta_slots)

    def x(self, r, i, k):
        return MPoly.var(self.names, self.xindex[(r, i, k)])

    def uvar(self):
        return MPoly.var(self.names, 0)

    def delta(self, r, i, k, step=1):
        d = [0] * len(self.delta_slots)
        d[self.delta_index[(r, i, k)]] = step
        return tuple(d)

    def generators(self):
        """Adjacent slot transpositions of every row block, as pairs of
        slot triples."""
        gens = []
        for r in range(1, self.pyramid.n + 1):
            slots = self.row_slots[r]
            for a in range(len(slots) - 1):
                s1, s2 = slots[a], slots[a + 1]
                gens.append(((r,) + s1, (r,) + s2))
        return gens

    def var_perm(self, slot_a, slot_b):
        """Full variable permutation (old index -> new index) swapping two
        same-row slots."""
        perm = list(range(len(self.names)))
        ia, ib = self.xindex[slot_a], self.xindex[slot_b]
        perm[ia], perm[ib] = ib, ia
        return perm

    def delta_perm(self, slot_a, slot_b, d):
        """Apply the slot swap to a shift monomial."""
        out = list(d)
        if slot_a in self.delta_index and slot_b in self.delta_index:
            ia, ib = self.delta_index[slot_a], self.delta_index[slot_b]
            out[ia], out[ib] = out[ib], out[ia]
        return tuple(out)


class SkewElement(Terms):
    """Finite sum of terms coefficient * shift-monomial."""

    __slots__ = ("model",)

    def __init__(self, model, terms=None):
        self.model = model
        self.terms = {}
        if terms:
            for d, a in terms.items():
                if a:
                    self.terms[d] = a

    def _new(self, terms):
        return SkewElement(self.model, terms)

    def __eq__(self, other):
        if not isinstance(other, SkewElement):
            return NotImplemented
        return self.terms == other.terms

    def apply_swap(self, slot_a, slot_b):
        """Image under the transposition of two same-row slots."""
        perm = self.model.var_perm(slot_a, slot_b)
        out = {}
        for d, a in self.terms.items():
            d2 = self.model.delta_perm(slot_a, slot_b, d)
            a2 = a.permute_vars(perm)
            if d2 in out:
                out[d2] = out[d2] + a2
            else:
                out[d2] = a2
        return SkewElement(self.model, out)

    def is_invariant(self):
        return all(
            self.apply_swap(sa, sb) == self
            for sa, sb in self.model.generators()
        )


def t_image_a(model, j):
    """Image of the diagonal polynomial: prod_{row-j slots} (u + x)."""
    acc = MPoly.const(model.names, 1)
    u = model.uvar()
    for (i, k) in model.row_slots[j]:
        acc = acc * (u + model.x(j, i, k))
    return SkewElement(model, {model.zero_delta: MRat.from_poly(acc)})


def _ladder_coefficient(model, r, slot, sign):
    """X^+ (sign=+1, raising) or X^- (sign=-1, lowering) at a row-r slot.

    Numerator: the Lagrange factor prod_{other row-r slots}(u + x) times
    the full adjacent-row product prod (x_adj - x_slot); denominator:
    prod_{other row-r slots}(x - x_slot)."""
    (i, k) = slot
    xs = model.x(r, i, k)
    u = model.uvar()
    num = MPoly.const(model.names, 1)
    den = MPoly.const(model.names, 1)
    for (i2, k2) in model.row_slots[r]:
        if (i2, k2) == slot:
            continue
        num = num * (u + model.x(r, i2, k2))
        den = den * (model.x(r, i2, k2) - xs)
    adj_row = r + 1 if sign > 0 else r - 1
    if adj_row >= 1:
        for (q, m) in model.row_slots[adj_row]:
            num = num * (model.x(adj_row, q, m) - xs)
    coeff = MRat(num, den)
    return -coeff if sign > 0 else coeff


def t_image_b(model, r):
    """Image of the raising polynomial of row r."""
    terms = {}
    for slot in model.row_slots[r]:
        d = model.delta(r, slot[0], slot[1], +1)
        terms[d] = _ladder_coefficient(model, r, slot, +1)
    return SkewElement(model, terms)


def t_image_c(model, r):
    """Image of the lowering polynomial of row r."""
    terms = {}
    for slot in model.row_slots[r]:
        d = model.delta(r, slot[0], slot[1], -1)
        terms[d] = _ladder_coefficient(model, r, slot, -1)
    return SkewElement(model, terms)


def orbit_sum(model, coeff, delta):
    """[a phi] = sum over the group orbit of the single term a*phi.

    Built by closing under the generating transpositions; revisiting a
    shift monomial with a different coefficient means the orbit sum is
    ill-defined (the coefficient fails stabilizer invariance)."""
    table = {delta: coeff}
    frontier = [(delta, coeff)]
    gens = model.generators()
    while frontier:
        d, a = frontier.pop()
        for sa, sb in gens:
            d2 = model.delta_perm(sa, sb, d)
            a2 = a.permute_vars(model.var_perm(sa, sb))
            if d2 in table:
                if table[d2] != a2:
                    raise NotInvariant(
                        "orbit sum is ill-defined: shift %r reached with two "
                        "different coefficients" % (d2,)
                    )
            else:
                table[d2] = a2
                frontier.append((d2, a2))
    return SkewElement(model, table)


def orbit_sum_identity(model, r):
    """The raising image must equal the orbit sum of its first term."""
    img = t_image_b(model, r)
    first = model.row_slots[r][0]
    d = model.delta(r, first[0], first[1], +1)
    return orbit_sum(model, img.terms[d], d) == img


def _pattern_point(model, mu, u0):
    point = [Fraction(u0)]
    for (rik, idx) in sorted(model.xindex.items(), key=lambda t: t[1]):
        r, i, k = rik
        point.append(mu.l_value(r, i, k))
    return point


def act_on_basis(model, rep, element, u0):
    """Matrix of the skew element on the pattern basis with u = u0.

    Each term a * phi sends xi_mu to a(l-values of mu) * xi_{mu + phi};
    vectors at arrays outside the basis are zero, so those terms drop."""
    N = rep.dim
    entries = []
    for col, mu in enumerate(rep.basis):
        point = _pattern_point(model, mu, u0)
        for d, a in element.terms.items():
            try:
                val = a.evaluate(point)
            except EvaluationError:
                raise EvaluationError(
                    "coefficient denominator vanishes at pattern %r" % (mu,)
                )
            if not val:
                continue
            tgt = rep.shifted(col, {model.delta_slots[idx]: step
                                    for idx, step in enumerate(d) if step})
            if tgt is not None:
                entries.append((tgt, col, val))
    return SparseMatrix.from_entries(N, entries)


def cross_check(rep, u_samples=(0, 7, -3)):
    """Compare the skew-model action with the representation matrices for
    every generator polynomial at each sample point.

    Also asserts invariance of every image and the orbit-sum identity for
    the raising images.  Returns the number of comparisons made."""
    model = GaloisModel(rep.pyramid)
    n = rep.n
    images = []
    for j in range(1, n + 1):
        img = t_image_a(model, j)
        if not img.is_invariant():
            raise NotInvariant("diagonal image of row %d is not invariant" % j)
        images.append((img, rep.A[j]))
    for r in range(1, n):
        img = t_image_b(model, r)
        if not img.is_invariant():
            raise NotInvariant("raising image of row %d is not invariant" % r)
        if not orbit_sum_identity(model, r):
            raise InvariantViolation(
                "raising image of row %d is not the orbit sum of its "
                "first term" % r
            )
        images.append((img, rep.B[r]))
        img = t_image_c(model, r)
        if not img.is_invariant():
            raise NotInvariant("lowering image of row %d is not invariant" % r)
        images.append((img, rep.C[r]))
    zero = SparseMatrix(rep.dim)
    checks = 0
    for img, pm in images:
        for u0 in u_samples:
            got = act_on_basis(model, rep, img, u0)
            want = pm(u0, zero)
            if got != want:
                raise InvariantViolation(
                    "skew-model action disagrees with the matrix at u=%s" % u0
                )
            checks += 1
    return checks
