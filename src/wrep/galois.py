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
factored shape, each form a primitive integer vector: a slot swap
relabels the factors, and equality is a compare of canonical factor
lists with no polynomial gcd.  Evaluation runs on integers, on the
build's q-scaled l-values q * l_p = Q_p + q * key_p (Representation.q
and .offsets): a coefficient's value is a product of integer form values
over another, with the powers of q tracked, and is computed once per
distinct slice of the key that its forms read."""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .errors import EvaluationError, InvariantViolation, NotInvariant
from .patterns import key_slots, row_spans
from .rep import _class_polynomial, _first_diff


def _linear_form(pairs):
    """(scale, form) with scale * form = sum c * var_i over the (i, c) pairs,
    which have distinct indices and nonzero int or Fraction coefficients:
    form holds them sorted by index as a primitive integer vector whose
    first coefficient is positive, and scale is a Fraction."""
    items = sorted(pairs)
    den = lcm(*(c.denominator for _, c in items))
    ints = [c.numerator * (den // c.denominator) for _, c in items]
    g = gcd(*ints)
    if ints[0] < 0:
        g = -g
    return Fraction(g, den), tuple((i, c // g) for (i, _), c in zip(items, ints))


def _value(form, point):
    """The integer value of one linear form at an integer point."""
    return sum(c * point[i] for i, c in form)


def _oriented(form):
    """(sign, canonical form) of a form whose coefficients are primitive but
    possibly out of index order or with a negative first coefficient."""
    form = tuple(sorted(form))
    if form[0][1] < 0:
        return -1, tuple((i, -c) for i, c in form)
    return 1, form


class Factored:
    """Rational function const * prod(num) / prod(den) over canonical
    linear forms (see _linear_form: primitive integer vectors with a
    positive first coefficient, the rational scale folded into the
    Fraction const), each factor list sorted.

    Factors common to numerator and denominator cancel on construction,
    and zero has no factors.  Distinct canonical forms are non-associate
    irreducibles of the UFD Q[u, x], so two values are equal as rational
    functions exactly when their (const, num, den) agree.  A permutation
    of the variables maps distinct canonical forms to distinct ones, so
    permute_vars relabels and folds signs with nothing to cancel.

    Evaluation takes an integer point and a scale q > 0, variable i
    standing for point[i] / q, and returns integer numerators over one
    positive denominator."""

    __slots__ = ("const", "num", "den")

    def __init__(self, const, num=(), den=()):
        """num and den are iterables of forms, each form an iterable of
        (variable index, coefficient) pairs."""
        const = Fraction(const)
        top, bottom = Counter(), Counter()
        up, down = const.numerator, const.denominator
        for pairs in num:
            scale, form = _linear_form(pairs)
            up, down = up * scale.numerator, down * scale.denominator
            top[form] += 1
        for pairs in den:
            scale, form = _linear_form(pairs)
            up, down = up * scale.denominator, down * scale.numerator
            bottom[form] += 1
        if not up:
            top, bottom = Counter(), Counter()
        common = top & bottom
        self.const = Fraction(up, down)
        self.num = tuple(sorted((top - common).elements()))
        self.den = tuple(sorted((bottom - common).elements()))

    @classmethod
    def _canonical(cls, const, num, den):
        """The value of already canonical, cancelled and sorted factors."""
        self = cls.__new__(cls)
        self.const, self.num, self.den = const, num, den
        return self

    def __bool__(self):
        return bool(self.const)

    def __eq__(self, other):
        if not isinstance(other, Factored):
            return NotImplemented
        return (self.const, self.num, self.den) == (other.const, other.num, other.den)

    def evaluate(self, point, q, num=None):
        """(numerator, denominator > 0) of the value at point[i] / q for
        each variable index i, point holding ints; ``num``, a sublist of
        the numerator forms, replaces the numerator."""
        forms = self.num if num is None else num
        top = self.const.numerator * q ** len(self.den)
        bottom = self.const.denominator * q ** len(forms)
        for form in forms:
            top *= _value(form, point)
        for form in self.den:
            d = _value(form, point)
            if not d:
                raise EvaluationError("denominator vanishes at the evaluation point")
            bottom *= d
        return (-top, -bottom) if bottom < 0 else (top, bottom)

    def in_u(self, point, q):
        """(numerators, denominator > 0) of the polynomial in u, sum_d
        numerators[d] u^d / denominator, with each other variable i at
        point[i] / q; point[0] is not read.  A form c u + y contributes
        (q c u + Y) / q, Y the integer q y at the point; u in a
        denominator raises EvaluationError."""
        if any(form[0][0] == 0 for form in self.den):
            raise EvaluationError("u occurs in a denominator")
        top, bottom = self.evaluate(point, q, [form for form in self.num if form[0][0]])
        poly = [top]
        for form in self.num:
            if form[0][0] == 0:
                a, b = form[0][1] * q, _value(form[1:], point)
                poly = ([b * poly[0]] + [b * c + a * lower for lower, c in zip(poly, poly[1:])]
                        + [a * poly[-1]])
                bottom *= q
        return poly, bottom

    def permute_vars(self, perm):
        """perm maps old variable index -> new variable index."""
        sign = 1
        moved = []
        for forms in (self.num, self.den):
            out = []
            for form in forms:
                s, form = _oriented([(perm[i], c) for i, c in form])
                sign *= s
                out.append(form)
            moved.append(tuple(sorted(out)))
        return Factored._canonical(self.const if sign > 0 else -self.const, *moved)

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


def orbit_sum_identity(model, r, img):
    """The raising image img = t_image_b(model, r) must equal the orbit sum
    of its first term."""
    d = model.delta(model.rows[r][0], +1)
    return orbit_sum(model, img.terms[d], d) == img


def act_on_basis(model, rep, element):
    """Matrix polynomial in u of the skew element on the pattern basis.

    Each term a * phi sends xi_mu to a(l-values of mu, u) * xi_{mu + phi},
    a polynomial in u (Factored.in_u) on mu's q-scaled l-values
    rep.offsets[p] + rep.q * key_p; it is computed once per distinct slice
    of the key spanning the positions that a's forms read (a ladder
    coefficient reads rows r and r +- 1), and every power of u goes over
    one lcm as in the build (rep._class_polynomial).  Vectors at arrays
    outside the basis are zero, so those terms drop before their
    coefficient is evaluated.  Skipping those evaluations hides no
    vanishing denominator: every denominator is a product of differences
    of row-r l-values of mu itself, r < n, and build_representation raises
    DegenerateNodes on any basis pattern with a repeated l-value in such a
    row."""
    q, offsets = rep.q, rep.offsets
    terms = []  # (steps, coefficient, key slice it reads, {slice: class})
    for d, a in element.terms.items():
        reads = [i - 1 for form in a.num + a.den for i, _ in form if i]
        span = slice(min(reads, default=0), max(reads, default=-1) + 1)
        terms.append(({p: s for p, s in enumerate(d) if s}, a, span, {}))
    entries, pairs = [], []  # (flat position, class, 1); pairs[class]
    for col, mu in enumerate(rep.basis):
        key = mu.key()
        for steps, a, span, memo in terms:
            tgt = rep.shifted(col, steps)
            if tgt is None:
                continue
            at = key[span]
            k = memo.get(at)
            if k is None:
                point = [None] + [Q + q * z for Q, z in zip(offsets, key)]
                try:
                    pairs.append(a.in_u(point, q))
                except EvaluationError as exc:
                    raise EvaluationError("coefficient at pattern %r: %s" % (mu, exc)) from None
                k = memo[at] = len(pairs) - 1
            entries.append((tgt * rep.dim + col, k, 1))
    return _class_polynomial(rep.dim, entries, pairs)


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
        if not orbit_sum_identity(model, r, img):
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
