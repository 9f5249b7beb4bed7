"""The commutative subalgebra spanned by the A-coefficients: characters
on the pattern basis, joint-spectrum fibers, and the factorial fiber
bound."""

from fractions import Fraction
from math import factorial

from .errors import InvariantViolation
from .patterns import row_spans


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
    gains v * e_{k-1}."""
    e = [Fraction(1)]
    for v in values:
        e.append(Fraction(0))
        for k in range(len(e) - 1, 0, -1):
            e[k] += v * e[k - 1]
    return e


def _character_reader(rep):
    """A function mu -> character of the commutative subalgebra at the
    basis pattern mu: (r, k) -> e_k(l-values of row r).

    The e_k of a row are computed once per distinct slice of the key in
    that row, since equal slices have equal l-values.  Each value is
    cross-checked against the diagonal entry of a_r^{(k)} at mu, so the
    combinatorial formula and the acting operators must agree."""
    spans = row_spans(rep.pyramid)
    coeffs = gamma_coefficients(rep)
    esym_of = [{} for _ in spans]

    def character(mu):
        col = rep.index[mu.key()]
        chi = {}
        for r in range(1, rep.n + 1):
            row = mu.key()[spans[r]]
            esym = esym_of[r].get(row)
            if esym is None:
                esym = esym_of[r][row] = elementary_symmetric(mu.row_l_values(r))
            for k in range(1, len(esym)):
                predicted = esym[k]
                actual = coeffs[(r, k)].get(col, col)
                if predicted != actual:
                    raise InvariantViolation(
                        "character mismatch at pattern %r, a_%d^{(%d)}: "
                        "symmetric-function value %s vs matrix entry %s"
                        % (mu, r, k, predicted, actual)
                    )
                chi[(r, k)] = predicted
        return chi

    return character


def character_of(rep, mu):
    """Character of the commutative subalgebra at the pattern mu, checked
    against the matrices (see _character_reader)."""
    return _character_reader(rep)(mu)


def fibers(rep):
    """Partition of the basis by joint character.

    Returns (fibers, all_singletons) where fibers maps the flattened
    character tuple to the list of basis patterns realizing it."""
    character = _character_reader(rep)
    out = {}
    for mu in rep.basis:
        chi = character(mu)
        key = tuple(chi[k] for k in sorted(chi))
        out.setdefault(key, []).append(mu)
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
