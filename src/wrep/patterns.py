"""Highest weights and Gelfand-Tsetlin pattern enumeration.

Entries are indexed by triples (r, i, k) with 1 <= i <= r <= n and
1 <= k <= p_i; the top row r = n carries the highest weight itself.
Interlacing couples only entries with equal superscript k.  The program
decides whether an array is a pattern by looking its key up in the basis
index (``Representation.shifted``), and reads l-values, entry - i + 1, as
scaled integers (``rep._scaled_offsets``); the direct interlacing check
and the Fraction l-values are the tests' oracles (``tests/oracles.py``).
"""

from fractions import Fraction
from itertools import accumulate, product

from .errors import ValidationError


def entry_slots(pyr, r):
    """Index triples (i, k) present in row r, in (i, k) order."""
    return [(i, k) for i in range(1, r + 1) for k in range(1, pyr.p(i) + 1)]


def key_slots(pyr):
    """Index triples (r, i, k) in the order of a pattern's key: rows
    bottom-up, each row in slot order.  A slot's index here is its key
    position."""
    return [(r, i, k) for r in range(1, pyr.n + 1) for (i, k) in entry_slots(pyr, r)]


def row_spans(pyr):
    """Slice of a pattern's key for each row r (index 0 is empty): two
    patterns have equal l-values in row r exactly when their slices are
    equal."""
    ends = list(accumulate((len(entry_slots(pyr, r)) for r in range(1, pyr.n + 1)), initial=0))
    return [slice(0, 0)] + [slice(a, b) for a, b in zip(ends, ends[1:])]


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
    return HighestWeight(pyramid, parts)


class GTPattern:
    """Triangular array of exact entries; immutable and hashable.

    The key holds each entry's offset from the top-row entry (n, n, k) of
    its column k, in key-slot order: plain ints, since every entry of a
    column differs from it by an integer, and ordered as the entries."""

    __slots__ = ("pyramid", "entries", "_key")

    def __init__(self, pyramid, entries, key=None):
        """``key``, when given, must be the offsets of ``entries``, as ints;
        it is not checked (enumerate_patterns passes the offsets it ran on)."""
        self.pyramid = pyramid
        self.entries = dict(entries)
        if key is None:
            n = pyramid.n
            key = [self.entries[slot] - self.entries[(n, n, slot[2])]
                   for slot in key_slots(pyramid)]
            if any(z.denominator != 1 for z in key):
                raise ValidationError("entries of a column differ by a non-integer: %r" % self)
            key = map(int, key)
        self._key = tuple(key)

    def entry(self, r, i, k):
        return self.entries[(r, i, k)]

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self.entries == other.entries

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        rows = []
        for r in range(1, self.pyramid.n + 1):
            rows.append(
                " ".join(str(self.entries[(r, i, k)]) for (i, k) in entry_slots(self.pyramid, r))
            )
        return "GTPattern[%s]" % " | ".join(rows)


def enumerate_patterns(weight):
    """All patterns with the given top row, ordered lexicographically on the
    flattened entry tuple (rows bottom-up), which is the order of their
    integer keys.  The keys are built row by row from the top row down,
    each lower row's offsets put in front of the key built so far."""
    pyramid = weight.pyramid
    problems = validate_highest_weight(weight)
    if problems:
        raise ValidationError("invalid highest weight: %r" % problems)
    n = pyramid.n
    base = {k: weight.part(n, k) for k in range(1, pyramid.p(n) + 1)}
    # integers: dominance makes each column's differences integral
    top = [(k, int(weight.part(i, k) - base[k])) for (i, k) in entry_slots(pyramid, n)]
    keys = [tuple(z for _, z in top)]
    for r in range(n - 1, 0, -1):
        # entry (r, i, k) lies between (r+1, i+1, k) and (r+1, i, k), read
        # from row r+1 at the front of each key built so far
        above = {slot: pos for pos, slot in enumerate(entry_slots(pyramid, r + 1))}
        bounds = [(above[(i + 1, k)], above[(i, k)]) for (i, k) in entry_slots(pyramid, r)]
        keys = [row + key for key in keys
                for row in product(*(range(key[lo], key[hi] + 1) for lo, hi in bounds))]
    keys.sort()
    # every offset of column k lies between 0 and the top row's largest
    value = {(k, z): b + z for k, b in base.items()
             for z in range(max(z for c, z in top if c == k) + 1)}
    slots = key_slots(pyramid)
    return [GTPattern(pyramid, {slot: value[slot[2], z] for slot, z in zip(slots, key)}, key)
            for key in keys]


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
