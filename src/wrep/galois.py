"""Skew-group model over rational functions in the row variables.

Variables are u plus x_{r,i,k} for every row-r slot (i, k); the product
of symmetric groups G acts by permuting each row block; the free abelian
shift group acts by integer translations of the variables of rows below
the top.  Images of the generating polynomials are explicit skew elements
whose evaluation at a pattern's l-values, u kept free, must reproduce the
matrix polynomials.

Every coefficient of an image is a constant times a product of linear
forms (u + x, x - x'), over another such product, and is kept in that
factored shape: evaluation multiplies one value per factor, a slot swap
relabels the factors, and equality is a compare of canonical factor lists
with no polynomial gcd."""

from collections import Counter, defaultdict
from fractions import Fraction
from math import prod

from .arith import UniPoly
from .errors import EvaluationError, InvariantViolation, NotInvariant
from .patterns import entry_slots
from .rep import _first_diff
from .sparse import SparseMatrix


def _linear_form(pairs):
    """(scale, form) with scale * form = sum c * var_i over the (i, c) pairs,
    which have distinct indices and nonzero coefficients: form holds them
    sorted by index and scaled so that the first coefficient is 1."""
    items = sorted(pairs)
    lead = Fraction(items[0][1])
    return lead, tuple((i, c / lead) for i, c in items)


def _value(forms, point):
    """Product of the linear forms at point."""
    return prod(sum(c * point[i] for i, c in form) for form in forms)


class Factored:
    """Rational function const * prod(num) / prod(den) over canonical
    linear forms (see _linear_form), each factor list sorted.

    Factors common to numerator and denominator cancel on construction,
    and zero has no factors.  Distinct canonical forms are non-associate
    irreducibles of the UFD Q[u, x], so two values are equal as rational
    functions exactly when their (const, num, den) agree."""

    __slots__ = ("const", "num", "den")

    def __init__(self, const, num=(), den=()):
        """num and den are iterables of forms, each form an iterable of
        (variable index, coefficient) pairs."""
        const = Fraction(const)
        top, bottom = Counter(), Counter()
        for pairs in num:
            scale, form = _linear_form(pairs)
            const *= scale
            top[form] += 1
        for pairs in den:
            scale, form = _linear_form(pairs)
            const /= scale
            bottom[form] += 1
        if not const:
            top, bottom = Counter(), Counter()
        common = top & bottom
        self.const = const
        self.num = tuple(sorted((top - common).elements()))
        self.den = tuple(sorted((bottom - common).elements()))

    def __bool__(self):
        return bool(self.const)

    def __eq__(self, other):
        if not isinstance(other, Factored):
            return NotImplemented
        return (self.const, self.num, self.den) == (other.const, other.num, other.den)

    def evaluate(self, point, num=None):
        """Value at point, one Fraction per variable index; ``num``, a
        sublist of the numerator forms, replaces the numerator."""
        d = _value(self.den, point)
        if not d:
            raise EvaluationError("denominator vanishes at the evaluation point")
        return self.const * _value(self.num if num is None else num, point) / d

    def in_u(self, point):
        """Scalar polynomial in u with the other variables at point, which
        gives no value of u.  A canonical form holding u (index 0) is u + y,
        a root at -y; u in a denominator raises EvaluationError."""
        if any(form[0][0] == 0 for form in self.den):
            raise EvaluationError("u occurs in a denominator")
        roots = [-sum(c * point[i] for i, c in form[1:])
                 for form in self.num if form[0][0] == 0]
        scalar = self.evaluate(point, [form for form in self.num if form[0][0]])
        return scalar * UniPoly.from_roots(roots)

    def permute_vars(self, perm):
        """perm maps old variable index -> new variable index."""
        def relabel(forms):
            return [[(perm[i], c) for i, c in form] for form in forms]
        return Factored(self.const, relabel(self.num), relabel(self.den))

    def __repr__(self):
        return "Factored(%s, %r, %r)" % (self.const, self.num, self.den)


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

    def u_plus(self, slot):
        """The linear form u + x_{slot}."""
        return ((0, 1), (self.xindex[slot], 1))

    def difference(self, slot_a, slot_b):
        """The linear form x_{slot_a} - x_{slot_b}."""
        return ((self.xindex[slot_a], 1), (self.xindex[slot_b], -1))


class SkewElement:
    """Finite sum of terms coefficient * shift-monomial."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = {d: a for d, a in terms.items() if a}

    def __eq__(self, other):
        if not isinstance(other, SkewElement):
            return NotImplemented
        return self.terms == other.terms

    def apply_swap(self, slot_a, slot_b):
        """Image under the transposition of two same-row slots; the swap
        permutes the shift monomials, so no two terms land on one."""
        model = self.model
        perm = model.var_perm(slot_a, slot_b)
        return SkewElement(model, {
            model.delta_perm(slot_a, slot_b, d): a.permute_vars(perm)
            for d, a in self.terms.items()})

    def is_invariant(self):
        return all(
            self.apply_swap(sa, sb) == self
            for sa, sb in self.model.generators()
        )


def t_image_a(model, j):
    """Image of the diagonal polynomial: prod_{row-j slots} (u + x)."""
    coeff = Factored(1, [model.u_plus((j,) + s) for s in model.row_slots[j]])
    return SkewElement(model, {model.zero_delta: coeff})


def _ladder_coefficient(model, r, slot, sign):
    """X^+ (sign=+1, raising) or X^- (sign=-1, lowering) at a row-r slot.

    Numerator: the Lagrange factor prod_{other row-r slots}(u + x) times
    the full adjacent-row product prod (x_adj - x_slot); denominator:
    prod_{other row-r slots}(x - x_slot)."""
    here = (r,) + slot
    others = [(r,) + s for s in model.row_slots[r] if s != slot]
    num = [model.u_plus(other) for other in others]
    den = [model.difference(other, here) for other in others]
    adj_row = r + 1 if sign > 0 else r - 1
    if adj_row >= 1:
        num += [model.difference((adj_row,) + s, here) for s in model.row_slots[adj_row]]
    return Factored(-sign, num, den)


def _ladder_image(model, r, sign):
    """Sum over the row-r slots of the ladder coefficient times the shift
    of that slot by sign."""
    return SkewElement(model, {
        model.delta(r, i, k, sign): _ladder_coefficient(model, r, (i, k), sign)
        for (i, k) in model.row_slots[r]})


def t_image_b(model, r):
    """Image of the raising polynomial of row r."""
    return _ladder_image(model, r, +1)


def t_image_c(model, r):
    """Image of the lowering polynomial of row r."""
    return _ladder_image(model, r, -1)


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


def _pattern_point(model, mu):
    """mu's l-values by variable index; u's slot (index 0) is not read."""
    point = [None] * len(model.names)
    for (r, i, k), idx in model.xindex.items():
        point[idx] = mu.l_value(r, i, k)
    return point


def act_on_basis(model, rep, element):
    """Matrix polynomial in u of the skew element on the pattern basis.

    Each term a * phi sends xi_mu to a(l-values of mu, u) * xi_{mu + phi},
    a polynomial in u (Factored.in_u); vectors at arrays outside the basis
    are zero, so those terms drop before their coefficient is evaluated.
    Skipping those evaluations hides no vanishing denominator: every
    denominator is a product of differences of row-r l-values of mu itself,
    r < n, and build_representation raises DegenerateNodes on any basis
    pattern with a repeated l-value in such a row."""
    steps = [({model.delta_slots[idx]: step for idx, step in enumerate(d) if step}, a)
             for d, a in element.terms.items()]
    entries = defaultdict(list)  # power of u -> (row, column, value)
    for col, mu in enumerate(rep.basis):
        point = _pattern_point(model, mu)
        for step, a in steps:
            tgt = rep.shifted(col, step)
            if tgt is None:
                continue
            try:
                poly = a.in_u(point)
            except EvaluationError as exc:
                raise EvaluationError("coefficient at pattern %r: %s" % (mu, exc)) from None
            for power, val in enumerate(poly.coeffs):
                entries[power].append((tgt, col, val))
    return UniPoly([SparseMatrix.from_entries(rep.dim, entries[power])
                    for power in range(max(entries, default=-1) + 1)])


def cross_check(rep):
    """Compare the skew-model action of every generator polynomial with its
    representation matrix, as polynomials in u.

    Also asserts invariance of every image and the orbit-sum identity for
    the raising images.  Returns the number of comparisons, one per image."""
    model = GaloisModel(rep.pyramid)
    n = rep.n
    images = []
    for j in range(1, n + 1):
        img = t_image_a(model, j)
        if not img.is_invariant():
            raise NotInvariant("diagonal image of row %d is not invariant" % j)
        images.append(("a_%d" % j, img, rep.A[j]))
    for r in range(1, n):
        img = t_image_b(model, r)
        if not img.is_invariant():
            raise NotInvariant("raising image of row %d is not invariant" % r)
        if not orbit_sum_identity(model, r):
            raise InvariantViolation(
                "raising image of row %d is not the orbit sum of its "
                "first term" % r
            )
        images.append(("b_%d" % r, img, rep.B[r]))
        img = t_image_c(model, r)
        if not img.is_invariant():
            raise NotInvariant("lowering image of row %d is not invariant" % r)
        images.append(("c_%d" % r, img, rep.C[r]))
    for label, img, pm in images:
        got = act_on_basis(model, rep, img)
        if got != pm:
            # the witness: an entry of the lowest power of u that differs
            diff = got - pm
            power, coeff = next((k, c) for k, c in enumerate(diff.coeffs) if c)
            raise InvariantViolation(
                "skew-model action of %s disagrees with the matrix in the "
                "coefficient of u^%d: %s" % (label, power, _first_diff(coeff, rep.basis)))
    return len(images)
