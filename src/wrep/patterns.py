"""Highest weights and Gelfand-Tsetlin pattern enumeration.

Entries are indexed by triples (r, i, k) with 1 <= i <= r <= n and
1 <= k <= p_i; the top row r = n carries the highest weight itself.
Interlacing couples only entries with equal superscript k.
"""

from fractions import Fraction

from .errors import ValidationError


def entry_slots(pyr, r):
    """Index triples (i, k) present in row r, in (i, k) order."""
    return [(i, k) for i in range(1, r + 1) for k in range(1, pyr.p(i) + 1)]


class HighestWeight:
    """Per-row root lists: lambda_i(u) = prod_k (u + parts[i-1][k-1])."""

    __slots__ = ("pyramid", "parts")

    def __init__(self, pyramid, parts):
        if len(parts) != pyramid.n:
            raise ValidationError(
                "expected %d root lists, got %d" % (pyramid.n, len(parts))
            )
        self.pyramid = pyramid
        self.parts = []
        for i, row in enumerate(parts, start=1):
            if len(row) != pyramid.p(i):
                raise ValidationError(
                    "row %d needs %d roots, got %d" % (i, pyramid.p(i), len(row))
                )
            self.parts.append(tuple(Fraction(x) for x in row))
        self.parts = tuple(self.parts)

    def part(self, i, k):
        return self.parts[i - 1][k - 1]

    def __repr__(self):
        return "HighestWeight(%s)" % (
            "; ".join(",".join(str(x) for x in row) for row in self.parts),
        )


def validate_highest_weight(weight):
    """Structured dominance/genericity diagnostics; never raises."""
    pyramid = weight.pyramid
    problems = []
    n = pyramid.n
    # dominance: same column k down consecutive rows
    for i in range(1, n):
        for k in range(1, pyramid.p(i) + 1):
            d = weight.part(i, k) - weight.part(i + 1, k)
            if d.denominator != 1 or d < 0:
                problems.append(
                    ("dominance", (i, k), "lambda_%d^(%d) - lambda_%d^(%d) = %s"
                     % (i, k, i + 1, k, d))
                )
    # genericity: cross-column differences never integers
    for i in range(1, n + 1):
        for k in range(1, pyramid.p(i) + 1):
            for j in range(i, n + 1):
                for m in range(1, pyramid.p(j) + 1):
                    if (i, k) >= (j, m) or k == m:
                        continue
                    d = weight.part(i, k) - weight.part(j, m)
                    if d.denominator == 1:
                        problems.append(
                            ("genericity", (i, k, j, m),
                             "lambda_%d^(%d) - lambda_%d^(%d) = %s in Z"
                             % (i, k, j, m, d))
                        )
    return problems


def generic_weight(pyramid):
    """Deterministic generic dominant weight: row i, column k carries
    (n - i) + 1/(k+2), so consecutive rows differ by 1."""
    n = pyramid.n
    parts = [[(n - i) + Fraction(1, k + 2) for k in range(1, pyramid.p(i) + 1)]
             for i in range(1, n + 1)]
    w = HighestWeight(pyramid, parts)
    problems = validate_highest_weight(w)
    if problems:
        raise ValidationError("generic recipe produced an invalid weight: %r" % problems)
    return w


class GTPattern:
    """Triangular array of exact entries; immutable and hashable."""

    __slots__ = ("pyramid", "entries", "_key")

    def __init__(self, pyramid, entries):
        self.pyramid = pyramid
        self.entries = dict(entries)
        self._key = tuple(
            self.entries[(r, i, k)]
            for r in range(1, pyramid.n + 1)
            for (i, k) in entry_slots(pyramid, r)
        )

    def entry(self, r, i, k):
        return self.entries[(r, i, k)]

    def l_value(self, r, i, k):
        return self.entries[(r, i, k)] - i + 1

    def row_l_values(self, r):
        """All l-values of row r in slot order (the interpolation nodes)."""
        return [self.l_value(r, i, k) for (i, k) in entry_slots(self.pyramid, r)]

    def lam(self, r, i, u0):
        """lambda_{ri}(u0) = prod_k (u0 + entry)."""
        u0 = Fraction(u0)
        acc = Fraction(1)
        for k in range(1, self.pyramid.p(i) + 1):
            acc *= u0 + self.entries[(r, i, k)]
        return acc

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        rows = []
        for r in range(1, self.pyramid.n + 1):
            rows.append(
                " ".join(str(self.entries[(r, i, k)]) for (i, k) in entry_slots(self.pyramid, r))
            )
        return "GTPattern[%s]" % " | ".join(rows)


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


def is_pattern(pyramid, entries, weight=None):
    """Full validity: top row matches the weight, interlacing everywhere."""
    n = pyramid.n
    if weight is not None:
        for i in range(1, n + 1):
            for k in range(1, pyramid.p(i) + 1):
                if entries[(n, i, k)] != weight.part(i, k):
                    return False
    for r in range(1, n):
        for (i, k) in entry_slots(pyramid, r):
            if not _interlaces(pyramid, entries, r, i, k):
                return False
    return True


def enumerate_patterns(weight):
    """All patterns with the given top row, ordered lexicographically on the
    flattened entry tuple (rows bottom-up)."""
    pyramid = weight.pyramid
    problems = validate_highest_weight(weight)
    if problems:
        raise ValidationError("invalid highest weight: %r" % problems)
    n = pyramid.n
    top = {
        (n, i, k): weight.part(i, k)
        for i in range(1, n + 1)
        for k in range(1, pyramid.p(i) + 1)
    }
    partials = [top]
    for r in range(n - 1, 0, -1):
        slots = entry_slots(pyramid, r)
        extended = []
        for entries in partials:
            choices = [entries]
            for (i, k) in slots:
                hi = entries[(r + 1, i, k)]
                lo = entries[(r + 1, i + 1, k)]
                nxt = []
                steps = hi - lo
                assert steps.denominator == 1 and steps >= 0
                for cur in choices:
                    for t in range(int(steps) + 1):
                        e = dict(cur)
                        e[(r, i, k)] = lo + t
                        nxt.append(e)
                choices = nxt
            extended.extend(choices)
        partials = extended
    pats = [GTPattern(pyramid, e) for e in partials]
    pats.sort(key=GTPattern.key)
    return pats


def shift_pattern(mu, r, i, k, direction):
    """Entry (r,i,k) +- 1; None when the result violates interlacing."""
    pyramid = mu.pyramid
    if not (1 <= i <= r <= pyramid.n - 1) or not (1 <= k <= pyramid.p(i)):
        raise IndexError("no entry (r=%d, i=%d, k=%d)" % (r, i, k))
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    entries = dict(mu.entries)
    entries[(r, i, k)] += direction
    if not is_pattern(pyramid, entries):
        return None
    return GTPattern(pyramid, entries)


def weyl_dimension(top_row):
    """Classical gl_n Weyl dimension for integral-spaced highest weight
    (one-column oracle): prod_{i<j} (l_i - l_j)/(j - i) with l_i = a_i - i."""
    l = [Fraction(a) - i for i, a in enumerate(top_row)]
    n = len(l)
    num = Fraction(1)
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= l[i] - l[j]
            den *= j - i
    return int(num / den)
