"""Valuations, satisfaction, change application, and the difference."""

import random
from fractions import Fraction

import pytest

from annrev import (
    AnnotatedRevisionAtom,
    PairValuation,
    PairValue,
    PowersetLattice,
    TValuation,
    TwoLattice,
    UnitChain,
    apply_change,
    bot_pair,
    diff,
    pair_space,
    rin,
    rout,
    satisfies,
    theta,
    theta_inv,
    transformable,
)
from helpers import (
    _head_pair,
    chain4,
    chain_product,
    diamond_fixed,
    label_involution_powerset,
    oatom,
    old_program,
    oracle_diff,
    oracle_transformable,
    powerset_p,
    powerset_pq,
    powerset_pqr_custom,
    unit_quarters,
    valuation,
)

unit = UnitChain()


def test_theta_proposal_example():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    v = TValuation(lat, {
        rin("accept"): lat.element({"Pete"}),
        rout("accept"): lat.element({"Bob"})})
    B = theta(v)
    assert B["accept"] == PairValue(lat.element({"Pete"}), lat.element({"Bob"}))


def test_theta_inverse_bijection_exhaustive():
    lat = powerset_p()
    for pv in pair_space(lat):
        v = TValuation(lat, {rin("a"): pv.pos, rout("a"): pv.neg})
        assert theta_inv(theta(v)) == v
        B = PairValuation(lat, {"a": pv})
        assert theta(theta_inv(B)) == B


def test_theta_of_bottom():
    lat = powerset_pq()
    v = TValuation.build(lat, ("a", "b"))
    assert theta(v) == PairValuation.bottom(lat, ("a", "b"))


def test_satisfies_annotated_atom():
    lat = powerset_pq()
    B = valuation(lat, {"b": ({"p", "q"}, frozenset())})
    assert satisfies(B, oatom(lat, "in", "b", {"p", "q"}))
    assert not satisfies(B, oatom(lat, "out", "b", {"p"}))


@pytest.mark.parametrize("make", [chain4, powerset_pqr_custom])
def test_satisfies_revision_atom_agrees_with_head_pair(make):
    """Satisfying a revision atom is dominating the pair the test oracle
    encodes it to, on every one-atom valuation."""
    lat = make()
    for pv in pair_space(lat):
        B = PairValuation(lat, {"a": pv})
        for e in lat.elements():
            for l in (rin("a"), rout("a")):
                x = AnnotatedRevisionAtom(l, e)
                atom, pair = _head_pair(lat, x)
                assert satisfies(B, x) == (pair <= B[atom])


def test_satisfies_notmodel_candidate_fails_program():
    lat = powerset_pq()
    p = old_program(lat, ("a", "b"), [
        (("in", "a", {"p"}), [("in", "b", {"p", "q"})]),
        (("in", "b", {"q"}), []),
    ])
    B_R = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p", "q"}, frozenset())})
    assert not satisfies(B_R, p)


def test_bottom_annotation_always_satisfied():
    lat = powerset_pq()
    for pv in pair_space(lat):
        B = PairValuation(lat, {"a": pv})
        assert satisfies(B, oatom(lat, "in", "a", frozenset()))
        assert satisfies(B, oatom(lat, "out", "a", frozenset()))


def test_apply_change_proposal():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    B_I = valuation(lat, {"accept": ({"Pete"}, {"Bob"})})
    C = valuation(lat, {"accept": ({"Ann", "Bob"}, frozenset())})
    assert apply_change(B_I, C) == valuation(
        lat, {"accept": ({"Ann", "Bob", "Pete"}, frozenset())})


def test_apply_change_identity_for_bottom():
    lat = powerset_pq()
    B = valuation(lat, {"a": ({"p"}, {"q"}), "b": (frozenset(), {"p"})})
    assert apply_change(B, PairValuation.bottom(lat, ("a", "b"))) == B


def test_apply_change_lights():
    B_I = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10))})
    C = valuation(unit, {"a": (0, 1)})
    assert apply_change(B_I, C) == valuation(unit, {"a": (0, 1)})


def test_apply_change_dominates_change():
    rng = random.Random(3)
    lat = powerset_pq()
    space = pair_space(lat)
    for _ in range(200):
        B = PairValuation(lat, {"a": rng.choice(space)})
        C = PairValuation(lat, {"a": rng.choice(space)})
        assert C.leq_k(apply_change(B, C))


def test_diff_chain_example():
    R = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10))})
    for base in ((Fraction(2, 10), Fraction(5, 10)), (Fraction(1, 10), Fraction(6, 10))):
        B = valuation(unit, {"a": base})
        assert diff(R, B) == R


def test_diff_self_is_member():
    rng = random.Random(5)
    lat = powerset_pq()
    space = pair_space(lat)
    for _ in range(100):
        B = PairValuation(lat, {"a": rng.choice(space), "b": rng.choice(space)})
        d = diff(B, B)
        assert apply_change(B, d) == B


def test_diff_untransformable_is_top():
    lat = powerset_p()
    R = PairValuation.bottom(lat, ("a",))
    B = PairValuation.top(lat, ("a",))
    assert not transformable(B, R)
    assert diff(R, B) == PairValuation.top(lat, ("a",))


def test_diff_is_least_member():
    rng = random.Random(9)
    lat = powerset_pq()
    space = pair_space(lat)
    for _ in range(150):
        R = PairValuation(lat, {"a": rng.choice(space)})
        B = PairValuation(lat, {"a": rng.choice(space)})
        sols = [c for c in space if apply_change(B, PairValuation(lat, {"a": c})) == R]
        d = diff(R, B)
        if not sols:
            assert d == PairValuation.top(lat, ("a",))
        else:
            assert apply_change(B, d) == R
            assert all(d["a"] <= c for c in sols)


def test_is_consistent_valuation():
    B_I = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10)),
                           "b": (Fraction(9, 10), Fraction(1, 10))})
    assert B_I.is_consistent()
    lat = powerset_pq()
    assert not valuation(lat, {"a": ({"q"}, {"q"})}).is_consistent()


def test_transformable_examples():
    lat = powerset_p()
    assert not transformable(PairValuation.top(lat, ("a",)), PairValuation.bottom(lat, ("a",)))
    assert transformable(PairValuation.bottom(lat, ("a",)), PairValuation.top(lat, ("a",)))


def test_consistent_change_order_insensitive():
    rng = random.Random(13)
    lat = powerset_pq()
    space = pair_space(lat)
    consistent = [c for c in space if c.is_consistent()]
    for _ in range(200):
        B = PairValuation(lat, {"a": rng.choice(space)})
        C = PairValuation(lat, {"a": rng.choice(consistent)})
        assert apply_change(B, C) == (B | C) & -C


def test_inert_lemma_on_boolean_lattices():
    # diff(R,B) <= diff(R,I) forces R&B >= R&I when R, I are consistent
    rng = random.Random(17)
    lat = powerset_pq()
    space = pair_space(lat)
    consistent = [c for c in space if c.is_consistent()]
    checked = 0
    while checked < 200:
        R = PairValuation(lat, {"a": rng.choice(consistent)})
        I = PairValuation(lat, {"a": rng.choice(consistent)})
        B = PairValuation(lat, {"a": rng.choice(space)})
        if not (transformable(B, R) and transformable(I, R)):
            continue
        if not diff(R, B).leq_k(diff(R, I)):
            continue
        assert (R & I).leq_k(R & B)
        checked += 1


def test_inert_lemma_fails_on_the_chain():
    R = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10))})
    B = valuation(unit, {"a": (Fraction(2, 10), Fraction(5, 10))})
    I = valuation(unit, {"a": (Fraction(1, 10), Fraction(6, 10))})
    assert diff(R, B).leq_k(diff(R, I))
    assert not (R & I).leq_k(R & B)
    assert (R & B)["a"] == PairValue(unit.element(Fraction(2, 10)), unit.element(Fraction(5, 10)))
    assert (R & I)["a"] == PairValue(unit.element(Fraction(1, 10)), unit.element(Fraction(6, 10)))


def test_build_defaults_missing_atoms_to_bottom():
    lat = powerset_pq()
    B = PairValuation.build(lat, ("a", "b"), {"a": PairValue(lat.element({"p"}), lat.bot)})
    assert B["b"] == bot_pair(lat)


def test_build_rejects_unknown_atom():
    lat = powerset_pq()
    with pytest.raises(ValueError):
        PairValuation.build(lat, ("a",), {"b": bot_pair(lat)})


@pytest.mark.parametrize("make", [
    TwoLattice, chain4, powerset_p, powerset_pq, lambda: PowersetLattice("pqrs"),
    powerset_pqr_custom,
    lambda: label_involution_powerset(("p", "q", "r", "s"), [("p", "s")]),
    diamond_fixed, lambda: chain_product(2, 3), UnitChain,
], ids=["two", "chain4", "powerset_p", "powerset_pq", "powerset_pqrs", "pqr_complement",
        "pqrs_involution", "diamond_fixed", "chain_2x3", "unit_quarters"])
def test_diff_and_transformable_match_full_pair_space_oracle(make):
    rng = random.Random(29)
    lat = make()
    els = lat.elements() if lat.is_finite else unit_quarters(lat)
    space = [PairValue(x, y) for x in els for y in els]
    reached = 0
    for _ in range(300):
        atoms = ("a", "b", "c")[:rng.randint(1, 3)]
        B = PairValuation(lat, {a: rng.choice(space) for a in atoms})
        R = PairValuation(lat, {a: rng.choice(space) for a in atoms})
        if rng.random() < 0.5:
            R = apply_change(B, PairValuation(lat, {a: rng.choice(space) for a in atoms}))
        ok = oracle_transformable(B, R)
        # The literal definition of transformability is the reference.
        assert transformable(B, R) == ok == (apply_change(B, diff(R, B)) == R)
        assert diff(R, B) == oracle_diff(R, B)
        reached += ok
    assert 0 < reached < 300


@pytest.mark.parametrize("make", [
    TwoLattice, chain4, powerset_pq, powerset_pqr_custom, diamond_fixed, UnitChain,
], ids=["two", "chain4", "powerset_pq", "pqr_complement", "diamond_fixed", "unit_quarters"])
def test_diff_matches_oracle_on_every_one_atom_pair(make):
    lat = make()
    els = lat.elements() if lat.is_finite else unit_quarters(lat)
    space = [PairValue(x, y) for x in els for y in els]
    reached = 0
    for r in space:
        R = PairValuation(lat, {"a": r})
        for b in space:
            B = PairValuation(lat, {"a": b})
            ok = oracle_transformable(B, R)
            assert transformable(B, R) == ok == (apply_change(B, diff(R, B)) == R)
            assert diff(R, B) == oracle_diff(R, B)
            reached += ok
    assert 0 < reached < len(space) ** 2
