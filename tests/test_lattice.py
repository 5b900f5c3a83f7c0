"""Lattice axioms, element operations, and the pair lattice."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from annrev import (
    CustomLattice,
    LatticeError,
    LatticeMismatchError,
    LevelChain,
    PairValue,
    PowersetLattice,
    TwoLattice,
    UnitChain,
    UnsupportedOperationError,
    bot_pair,
    negation,
    pair_space,
    pcomp_pair,
    top_pair,
    validate,
)
from helpers import powerset_pq, powerset_pqr_custom

unit = UnitChain()

fractions = st.fractions(min_value=0, max_value=1)


def unit_elem(f):
    return unit.element(f)


# --- validation -------------------------------------------------------------

def test_validate_two():
    lat = TwoLattice()
    assert validate(lat).ok
    assert ~lat.true == lat.false and ~lat.false == lat.true


def test_validate_custom_powerset_complement():
    assert validate(powerset_pqr_custom()).ok


def test_validate_rejects_identity_complement_on_diamond():
    lat = CustomLattice(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        {"bot": "bot", "a": "a", "b": "b", "top": "top"})
    report = validate(lat)
    assert not report.ok
    assert "order-reversing" in report.failures[0]


def test_validate_reports_missing_meet():
    # two incomparable tops: no join of a and b
    lat = CustomLattice(
        ("bot", "a", "b"),
        [("bot", "a"), ("bot", "b")],
        {"bot": "bot", "a": "b", "b": "a"})
    report = validate(lat)
    assert not report.ok


def test_validate_rejects_non_involution():
    lat = CustomLattice(
        ("bot", "top"),
        [("bot", "top")],
        {"bot": "bot", "top": "bot"})
    report = validate(lat)
    assert not report.ok
    assert "involution" in report.failures[0]


def test_validate_unit_chain():
    assert validate(unit).ok


# --- core operations --------------------------------------------------------

def test_powerset_join_is_union():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    assert lat.element({"Ann"}) | lat.element({"Bob"}) == lat.element({"Ann", "Bob"})


def test_chain_meet_is_min():
    assert unit_elem(Fraction(3, 10)) & unit_elem(Fraction(7, 10)) == unit_elem(Fraction(3, 10))


def test_empty_join_is_bottom():
    lat = powerset_pq()
    assert lat.big_join([]) == lat.bot
    assert lat.big_meet([]) == lat.top


def test_complement_chain():
    assert ~unit_elem(Fraction(3, 10)) == unit_elem(Fraction(7, 10))


def test_complement_powerset_default():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    assert ~lat.element({"Ann", "Bob"}) == lat.element({"Pete"})


def test_complement_custom_table():
    lat = powerset_pqr_custom()
    assert ~lat.element({"q"}) == lat.element({"q", "r"})


def test_pcomp_chain_closed_form():
    assert unit.pcomp(unit_elem(Fraction(9, 10)), unit_elem(Fraction(8, 10))) == unit.bot
    assert unit.pcomp(unit_elem(Fraction(3, 10)), unit_elem(Fraction(8, 10))) == unit_elem(Fraction(8, 10))


def test_pcomp_powerset_brute_force():
    lat = powerset_pq()
    alpha, beta = lat.element({"p"}), lat.element({"p", "q"})
    # independent oracle: meet of every satisfying element
    sats = [g for g in lat.elements() if beta <= (alpha | g)]
    expected = lat.big_meet(sats)
    assert expected == lat.element({"q"})
    assert lat.pcomp(alpha, beta) == lat.element({"q"})


def test_pcomp_defining_property_exhaustive():
    for lat in (powerset_pq(), LevelChain(("c0", "c1", "c2", "c3"))):
        for a in lat.elements():
            for b in lat.elements():
                g = lat.pcomp(a, b)
                assert b <= (a | g)
                for other in lat.elements():
                    if b <= (a | other):
                        assert g <= other


def test_pcomp_shortcut_matches_scan_exhaustive():
    # pcomp answers bottom without scanning when beta <= alpha; on every
    # pair, shortcut or not, it must equal the meet of all satisfying elements.
    stacked = CustomLattice(
        ("bot", "c", "a", "b", "ab", "top"),
        [("bot", "c"), ("c", "a"), ("c", "b"), ("a", "ab"), ("b", "ab"), ("ab", "top")],
        {"bot": "top", "c": "ab", "a": "a", "b": "b", "ab": "c", "top": "bot"})
    for lat in (powerset_pq(), powerset_pqr_custom(), stacked):
        assert validate(lat).ok
        shortcuts = 0
        for a in lat.elements():
            for b in lat.elements():
                scan = lat.big_meet([g for g in lat.elements() if b <= (a | g)])
                assert lat.pcomp(a, b) == scan
                shortcuts += b <= a
        assert 0 < shortcuts < len(lat.elements()) ** 2


def test_pcomp_distributes_over_join_in_second_arg():
    lat = powerset_pq()
    for a in lat.elements():
        for b1 in lat.elements():
            for b2 in lat.elements():
                assert lat.pcomp(a, b1) | lat.pcomp(a, b2) == lat.pcomp(a, b1 | b2)


# --- pair lattice -----------------------------------------------------------

def test_pair_meet_proposal_example():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    b_i = PairValue(lat.element({"Pete"}), lat.element({"Bob"}))
    neg_c = PairValue(lat.element({"Ann", "Bob", "Pete"}), lat.element({"Pete"}))
    assert (b_i & neg_c) == PairValue(lat.element({"Pete"}), lat.bot)


def test_pair_join_identity():
    lat = powerset_pq()
    for x in pair_space(lat):
        assert (x | bot_pair(lat)) == x


def test_pcomp_pair_componentwise_chain():
    x = PairValue(unit_elem(Fraction(9, 10)), unit_elem(Fraction(7, 10)))
    y = PairValue(unit_elem(Fraction(8, 10)), unit_elem(Fraction(6, 10)))
    assert pcomp_pair(x, y) == bot_pair(unit)


def test_conflation_proposal_continuation():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    c = PairValue(lat.element({"Ann", "Bob"}), lat.bot)
    assert -c == PairValue(lat.element({"Ann", "Bob", "Pete"}), lat.element({"Pete"}))


def test_conflation_chain_fixed_point():
    c = PairValue(unit.bot, unit.top)
    assert -c == c


def test_conflation_involution_exhaustive():
    lat = powerset_pq()
    for x in pair_space(lat):
        assert -(-x) == x


def test_conflation_de_morgan_exhaustive():
    lat = powerset_pq()
    space = pair_space(lat)
    for x in space:
        for y in space:
            assert -(x | y) == (-x & -y)
            assert -(x & y) == (-x | -y)


def test_is_consistent():
    assert PairValue(unit_elem(Fraction(3, 10)), unit_elem(Fraction(7, 10))).is_consistent()
    lat = powerset_pq()
    q = lat.element({"q"})
    assert not PairValue(q, q).is_consistent()
    assert bot_pair(lat).is_consistent()


def test_consistent_change_commutes():
    lat = powerset_pq()
    space = pair_space(lat)
    for c in space:
        if not c.is_consistent():
            continue
        for b in space:
            assert ((b & -c) | c) == ((b | c) & -c)


def test_negation_boolean():
    lat = powerset_pq()
    v = PairValue(lat.element({"p"}), lat.bot)
    assert negation(v) == PairValue(lat.element({"q"}), lat.element({"p", "q"}))
    assert negation(top_pair(lat)) == bot_pair(lat)
    for x in pair_space(lat):
        assert (x | negation(x)) == top_pair(lat)
        assert (x & negation(x)) == bot_pair(lat)


def test_negation_rejects_non_boolean():
    with pytest.raises(UnsupportedOperationError):
        negation(PairValue(unit_elem(Fraction(1, 2)), unit.bot))
    with pytest.raises(UnsupportedOperationError):
        negation(bot_pair(LevelChain(("c0", "c1", "c2"))))


# --- distributivity and De Morgan, exhaustive on finite lattices -------------

@pytest.mark.parametrize("make", [
    TwoLattice,
    powerset_pq,
    powerset_pqr_custom,
    lambda: LevelChain(("c0", "c1", "c2", "c3")),
])
def test_finite_lattice_laws(make):
    lat = make()
    els = lat.elements()
    for x in els:
        for y in els:
            assert ~(x | y) == (~x & ~y)
            assert ~(x & y) == (~x | ~y)
            for z in els:
                assert (x & (y | z)) == ((x & y) | (x & z))


# --- unit chain, property-based ----------------------------------------------

@given(fractions)
def test_unit_complement_involution(f):
    assert ~~unit_elem(f) == unit_elem(f)


@given(fractions, fractions)
def test_unit_de_morgan(f, g):
    x, y = unit_elem(f), unit_elem(g)
    assert ~(x | y) == (~x & ~y)
    assert ~(x & y) == (~x | ~y)
    if x <= y:
        assert ~y <= ~x


@given(fractions, fractions, st.integers(min_value=0, max_value=6))
def test_unit_pcomp_least(f, g, k):
    a, b = unit_elem(f), unit_elem(g)
    out = unit.pcomp(a, b)
    assert b <= (a | out)
    if out != unit.bot:
        below = unit.element(out.key * Fraction(k, 7))
        if below < out:
            assert not b <= (a | below)


# --- handle discipline --------------------------------------------------------

def test_cross_lattice_operations_fail():
    a = powerset_pq().element({"p"})
    b = powerset_pq().element({"p"})  # different handle, same shape
    with pytest.raises(LatticeMismatchError):
        _ = a | b
    with pytest.raises(LatticeMismatchError):
        _ = a == b
    with pytest.raises(LatticeMismatchError):
        PairValue(a, b)


def test_powerset_rejects_unknown_labels():
    lat = powerset_pq()
    with pytest.raises(LatticeError):
        lat.element({"z"})


def test_custom_lattice_tables_total():
    with pytest.raises(LatticeError):
        CustomLattice(("a", "b"), [("a", "b")], {"a": "b"})
    with pytest.raises(LatticeError):
        CustomLattice(("a", "b"), [("a", "c")], {"a": "b", "b": "a"})
