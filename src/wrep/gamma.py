"""The commutative subalgebra spanned by the A-coefficients: characters
on the pattern basis, joint-spectrum fibers, and the factorial fiber
bound.

The characters are computed on integers.  With q = rep.q, a multiple of
every entry's denominator, each row's l-values become the integers q * l,
read from the pattern's own entries (not from the offsets the build
used, so the check stays independent of it).  Their e_k are integers, the
character value at a_r^{(k)} is e_k(q * l) / q^k, and the check against
the matrix compares e_k(q * l) * den with the diagonal numerator times
q^k.  The fibers are keyed by the integer tuples, which partition the
basis as the values do; Fractions are built only for a failure's
witness."""

from fractions import Fraction
from math import factorial

from .errors import InvariantViolation
from .patterns import entry_slots, row_spans


def gamma_coefficients(rep):
    """All generator matrices a_r^{(k)}, keyed by (r, k)."""
    out = {}
    for r in range(1, rep.n + 1):
        for k in range(1, rep.pyramid.row_block_size(r) + 1):
            out[(r, k)] = rep.a_coefficient(r, k)
    return out


def gamma_commutes(rep):
    """True when the A-coefficients commute on the basis: each a_r^{(k)}
    is diagonal there, and diagonal matrices commute."""
    return all(m.is_diagonal() for m in gamma_coefficients(rep).values())


def elementary_symmetric(values):
    """[e_0, ..., e_p] of the p values: after each value v, every e_k
    gains v * e_{k-1}.  The e_k are of the values' type (ints from ints),
    and e_0 is the int 1, as in ``UniPoly.from_roots``."""
    e = [1]
    for v in values:
        e.append(0)
        for k in range(len(e) - 1, 0, -1):
            e[k] += v * e[k - 1]
    return e


def _scaled_row(mu, r, slots, q):
    """The integers q * l over the slots (i, k) of row r of mu, read from
    its entries: the entry x at (r, i, k) gives q * (x - i + 1)."""
    out = []
    for i, k in slots:
        x = mu.entry(r, i, k)
        den = x.denominator
        if q % den:
            raise InvariantViolation(
                "entry %s at (%d,%d,%d) of pattern %r has a denominator that "
                "does not divide q = %d" % (x, r, i, k, mu, q))
        out.append(x.numerator * (q // den) - q * (i - 1))
    return out


def _character_reader(rep):
    """A function mu -> character of the commutative subalgebra at the
    basis pattern mu, as the tuple of the integers e_k(q * l) of row r for
    every (r, k) in increasing order, where l are the l-values of row r
    and q = rep.q: the character value at a_r^{(k)} is the entry over q^k.

    The scaled l-values come from the pattern's own entries, not from the
    offsets the build read, so the check below is independent of the
    build.  The e_k of a row are computed once per distinct slice of the
    key in that row, since equal slices have equal l-values.  Each value
    is cross-checked against the diagonal numerator of a_r^{(k)} at mu:
    e_k(q * l) * den == diag[col] * q^k."""
    pyr = rep.pyramid
    q = rep.q
    spans = row_spans(pyr)
    coeffs = gamma_coefficients(rep)
    rows = []  # per row r: (r, span, slots, memo, [(k, den, diag, q^k)])
    for r in range(1, rep.n + 1):
        per_k = []
        for k in range(1, pyr.row_block_size(r) + 1):
            m = coeffs[(r, k)]
            per_k.append((k, m.den, m.diagonal_numerators(), q ** k))
        rows.append((r, spans[r], entry_slots(pyr, r), {}, per_k))
    index = rep.index

    def character(mu):
        key = mu.key()
        col = index[key]
        chi = []
        for r, span, slots, memo, per_k in rows:
            row = key[span]
            esym = memo.get(row)
            if esym is None:
                esym = memo[row] = elementary_symmetric(_scaled_row(mu, r, slots, q))
            for k, den, diag, qk in per_k:
                if esym[k] * den != diag[col] * qk:
                    raise InvariantViolation(
                        "character mismatch at pattern %r, a_%d^{(%d)}: "
                        "symmetric-function value %s vs matrix entry %s"
                        % (mu, r, k, Fraction(esym[k], qk), Fraction(diag[col], den))
                    )
            chi += esym[1:]
        return tuple(chi)

    return character


def fibers(rep):
    """Partition of the basis by joint character.

    Returns (fibers, all_singletons) where fibers maps the character
    tuple of ``_character_reader`` (integers, the value at a_r^{(k)}
    times q^k) to the list of basis patterns realizing it; scaling each
    coordinate by a fixed q^k leaves the partition as it is."""
    character = _character_reader(rep)
    out = {}
    for mu in rep.basis:
        out.setdefault(character(mu), []).append(mu)
    all_singletons = all(len(v) == 1 for v in out.values())
    return out, all_singletons


def fiber_bound(pyr):
    """prod_{r<n} (p_1 + ... + p_r)!, the conjectured fiber-size bound."""
    b = 1
    for r in range(1, pyr.n):
        b *= factorial(pyr.row_block_size(r))
    return b


def check_fiber_bound(pyr, fib):
    """Largest size among the fibers from ``fibers`` and whether it
    respects the factorial bound of the pyramid."""
    biggest = max(len(v) for v in fib.values())
    return biggest, biggest <= fiber_bound(pyr)
