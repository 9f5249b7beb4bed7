import pytest

from wrep import grord
from wrep.arith import Terms
from wrep.cli import main
from wrep.errors import InvariantViolation, OrderError
from wrep.grord import (
    GradedRing,
    build_weight,
    check_weight_conditions,
    dcoeff_determinants,
    dcoeff_direct,
    predicted_leading,
    variable_slots,
    verify_leading_claims,
    weighted_leading_monomial,
)
from wrep.pyramid import Pyramid


def test_variable_slots():
    pyr = Pyramid(rows=(1, 2))
    slots = variable_slots(pyr)
    # below/on the diagonal: full range; above: truncated to p_2-p_1+1..p_2
    assert (1, 1, 1) in slots and (2, 2, 2) in slots
    assert (1, 2, 2) in slots and (1, 2, 1) not in slots


def test_hand_checked_coefficients():
    ring = GradedRing(Pyramid(rows=(1, 2)))
    x = ring.var
    d2 = dcoeff_determinants(ring, 2)[1]
    assert d2[1] == x(1, 1, 1) + x(2, 2, 1)
    assert d2[2] == x(1, 1, 1) * x(2, 2, 1) + x(2, 2, 2)
    d23 = d2[3]
    assert d23 == x(1, 1, 1) * x(2, 2, 2) - x(2, 1, 1) * x(1, 2, 2)


def test_direct_matches_determinant():
    for rows in [(1, 2), (2, 2), (1, 1, 1)]:
        ring = GradedRing(Pyramid(rows=rows))
        for r, d in enumerate(dcoeff_determinants(ring, ring.pyramid.n), 1):
            direct = dcoeff_direct(ring, r)
            assert len(direct) == len(d) == ring.pyramid.row_block_size(r) + 1
            for s in range(1, ring.pyramid.row_block_size(r) + 1):
                assert d[s] == direct[s]


def test_direct_expansion_forms_no_polynomial_sum(monkeypatch):
    # each monomial's sign is added into one dict of exponent tuples; a
    # polynomial sum per monomial would copy the whole sum every time
    calls = [0]
    add = Terms.__add__

    def counted(self, other):
        calls[0] += 1
        return add(self, other)

    monkeypatch.setattr(Terms, "__add__", counted)
    ring = GradedRing(Pyramid(rows=(1, 2, 2, 2)))
    sizes = [len(d.terms) for r in range(1, 5) for d in dcoeff_direct(ring, r)[1:]]
    assert calls[0] == 0 and sum(sizes) == 298  # one sum per monomial made 298


def test_leading_claims_walk_each_symmetric_group_once(monkeypatch):
    # one walk of S_r per r buckets every degree s; a walk per (r, s)
    # made 1 + 3 + 5 + 7 = 16 at (1,2,2,2)
    walks = []
    walk = grord.permutations

    def counted(items):
        walks.append(len(items))
        return walk(items)

    monkeypatch.setattr(grord, "permutations", counted)
    verify_leading_claims(Pyramid(rows=(1, 2, 2, 2)))
    assert walks == [1, 2, 3, 4]


def test_a_flipped_permutation_sign_fails_leading(monkeypatch, capsys):
    # the walk alone sees the flip (column_det has its own signs); at (1,2)
    # sigma = (2,1) reaches only X_21^1 X_12^2, of degree 3
    sign = grord.perm_sign
    monkeypatch.setattr(grord, "perm_sign",
                        lambda sigma: -sign(sigma) if tuple(sigma) == (2, 1) else sign(sigma))
    witness = "determinant and direct expansions disagree for d_{2,3}"
    with pytest.raises(InvariantViolation, match=r"disagree for d_\{2,3\}$"):
        verify_leading_claims(Pyramid(rows=(1, 2)))
    assert main(["leading", "--rows", "1,2"]) == 1
    out = capsys.readouterr()
    assert "FAIL weighted leading monomials" in out.err
    assert '"witness": "%s"' % witness in out.out


def test_leading_monomial_of_d23():
    pyr = Pyramid(rows=(1, 2))
    ring = GradedRing(pyr)
    _, w = build_weight(pyr)
    d23 = dcoeff_determinants(ring, 2)[1][3]
    lead = weighted_leading_monomial(ring, w, d23)
    want, slot = predicted_leading(ring, 2, 3)
    assert lead == want
    assert slot == (1, 2, 2)


def test_weight_conditions_enforced():
    pyr = Pyramid(rows=(1, 2))
    v, w = build_weight(pyr)
    n = pyr.n
    with pytest.raises(OrderError):
        check_weight_conditions(pyr, v, w, 2 * n * n, max(pyr.rows) + 1, (2 * n * n + 1) ** 6)
    bad = dict(v)
    bad[(2, 1, 1)] = 0
    with pytest.raises(OrderError):
        N = 2 * n * n + 1
        check_weight_conditions(pyr, bad, w, N, max(pyr.rows) + 1, N**6)


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (1, 1, 1), (1, 2, 2)])
def test_leading_claims(rows):
    pyr = Pyramid(rows=rows)
    expected = sum(pyr.row_block_size(r) for r in range(1, pyr.n + 1))
    assert verify_leading_claims(pyr) == expected


def test_raw_d33_leads_with_d23_at_223():
    # a known fault of the checker, not of the paper: the raw d_{3,3}
    # holds d_{2,3} times the u^{p_3} lead of X_33(u), whose leading
    # monomial outweighs the predicted one
    pyr = Pyramid(rows=(2, 2, 3))
    ring = GradedRing(pyr)
    _, w = build_weight(pyr)
    d2, d3 = dcoeff_determinants(ring, 3)[1:]
    lead = weighted_leading_monomial(ring, w, d3[3])
    assert lead == weighted_leading_monomial(ring, w, d2[3])
    assert lead != predicted_leading(ring, 3, 3)[0]
