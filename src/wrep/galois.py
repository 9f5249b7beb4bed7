"""Skew-group model over rational functions in the row variables.

Every slot (r, i, k) is addressed by its key position p, its index in
key_slots(pyramid), which is also its place in GTPattern.key().  The
variables are u (index 0) and, for each p, x_{r,i,k} (index p + 1); the
product of symmetric groups G acts by permuting each row block; the free
abelian shift group is the key lattice, a shift being an integer vector
over the key positions whose top-row entries are 0.  Images of the
generating polynomials are explicit skew elements whose evaluation at a
pattern's l-values, u kept free, must reproduce the matrix polynomials.

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
from .patterns import key_slots, row_spans
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
    """Fixed variable order and group/shift bookkeeping for one pyramid,
    every slot given by its key position."""

    def __init__(self, pyramid):
        self.pyramid = pyramid
        slots = key_slots(pyramid)
        self.names = ("u",) + tuple("x_%d_%d_%d" % slot for slot in slots)
        # the key positions of each row r (index 0 is empty)
        self.rows = [range(span.start, span.stop) for span in row_spans(pyramid)]
        self.zero_delta = (0,) * len(slots)

    def delta(self, p, step=1):
        """The shift moving the entry at key position p by step."""
        d = list(self.zero_delta)
        d[p] = step
        return tuple(d)

    def generators(self):
        """Adjacent transpositions of every row block, as pairs of key
        positions."""
        return [(p, p + 1) for row in self.rows for p in row[:-1]]

    def swap(self, a, b, d, coeff):
        """The term coeff * phi^d under the transposition of the same-row
        key positions a and b, which exchanges both their variables and
        their shift entries."""
        perm = list(range(len(self.names)))
        perm[a + 1], perm[b + 1] = b + 1, a + 1
        d = list(d)
        d[a], d[b] = d[b], d[a]
        return tuple(d), coeff.permute_vars(perm)

    def u_plus(self, p):
        """The linear form u + x at key position p."""
        return ((0, 1), (p + 1, 1))

    def difference(self, a, b):
        """The linear form x_a - x_b of key positions a and b."""
        return ((a + 1, 1), (b + 1, -1))


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

    def apply_swap(self, a, b):
        """Image under the transposition of two same-row key positions; the
        swap permutes the shift monomials, so no two terms land on one."""
        return SkewElement(self.model, dict(
            self.model.swap(a, b, d, c) for d, c in self.terms.items()))

    def is_invariant(self):
        return all(
            self.apply_swap(a, b) == self for a, b in self.model.generators()
        )


def t_image_a(model, j):
    """Image of the diagonal polynomial: prod_{row-j slots} (u + x)."""
    coeff = Factored(1, [model.u_plus(p) for p in model.rows[j]])
    return SkewElement(model, {model.zero_delta: coeff})


def _ladder_coefficient(model, r, p, sign):
    """X^+ (sign=+1, raising) or X^- (sign=-1, lowering) at the row-r key
    position p.

    Numerator: the Lagrange factor prod_{other row-r slots}(u + x) times
    the full adjacent-row (r + sign) product prod (x_adj - x_p), empty for
    row 0; denominator: prod_{other row-r slots}(x - x_p)."""
    others = [q for q in model.rows[r] if q != p]
    num = [model.u_plus(q) for q in others]
    num += [model.difference(q, p) for q in model.rows[r + sign]]
    den = [model.difference(q, p) for q in others]
    return Factored(-sign, num, den)


def _ladder_image(model, r, sign):
    """Sum over the row-r slots of the ladder coefficient times the shift
    of that slot by sign."""
    return SkewElement(model, {model.delta(p, sign): _ladder_coefficient(model, r, p, sign)
                               for p in model.rows[r]})


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
        for pa, pb in gens:
            d2, a2 = model.swap(pa, pb, d, a)
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
    d = model.delta(model.rows[r][0], +1)
    return orbit_sum(model, img.terms[d], d) == img


def act_on_basis(model, rep, element):
    """Matrix polynomial in u of the skew element on the pattern basis.

    Each term a * phi sends xi_mu to a(l-values of mu, u) * xi_{mu + phi},
    a polynomial in u (Factored.in_u); vectors at arrays outside the basis
    are zero, so those terms drop before their coefficient is evaluated.
    Skipping those evaluations hides no vanishing denominator: every
    denominator is a product of differences of row-r l-values of mu itself,
    r < n, and build_representation raises DegenerateNodes on any basis
    pattern with a repeated l-value in such a row."""
    slots = key_slots(model.pyramid)
    steps = [({p: s for p, s in enumerate(d) if s}, a) for d, a in element.terms.items()]
    entries = defaultdict(list)  # power of u -> (row, column, value)
    for col, mu in enumerate(rep.basis):
        # mu's l-values by variable index; u's (index 0) is not read
        point = [None] + [mu.l_value(*slot) for slot in slots]
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
