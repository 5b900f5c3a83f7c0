"""Rule structures and the program transformations."""

import random

import pytest

from annrev import (
    NEW,
    OLD,
    AnnotatedRevisionAtom,
    ClassicRule,
    NewRule,
    OldRule,
    PairAnnotatedAtom,
    PairValue,
    Program,
    RevisionAtom,
    UnitChain,
    UnsupportedOperationError,
    decode_classic,
    encode_classic,
    join_transform,
    pair_space,
    rin,
    rout,
    satisfies,
    tr1,
    tr2,
)
from helpers import (
    chain4,
    oatom,
    old_program,
    powerset_pq,
    powerset_pqr_custom,
    random_old_program,
    random_valuation,
)

from fractions import Fraction


def test_dual():
    assert rin("a").dual() == rout("a")
    assert rout("b").dual() == rin("b")
    for atom in ("a", "b", "c"):
        for l in (rin(atom), rout(atom)):
            assert l.dual().dual() == l


@pytest.mark.parametrize("make, bot, x, y", [
    (chain4, "c0", "c2", "c1"),
    (powerset_pqr_custom, frozenset(), frozenset("pr"), frozenset("q")),
])
def test_revision_atom_pair_encoding(make, bot, x, y):
    """``in(a):x`` is ``<x, bot>`` and ``out(a):y`` is ``<bot, y>``, on a
    chain and on a powerset whose complement is not the set complement;
    ``with_pair`` keeps the component on the atom's own side."""
    lat = make()
    bot, x, y = lat.element(bot), lat.element(x), lat.element(y)
    a_in = AnnotatedRevisionAtom(rin("a"), x)
    a_out = AnnotatedRevisionAtom(rout("a"), y)
    assert a_in.atom == a_out.atom == "a"
    assert a_in.pair == PairValue(x, bot)
    assert a_out.pair == PairValue(bot, y)
    assert a_in.with_pair(PairValue(y, x)) == AnnotatedRevisionAtom(rin("a"), y)
    assert a_out.with_pair(PairValue(y, x)) == AnnotatedRevisionAtom(rout("a"), x)
    p = PairAnnotatedAtom("a", PairValue(x, y))
    assert p.pair == PairValue(x, y)
    assert p.with_pair(PairValue(y, x)) == PairAnnotatedAtom("a", PairValue(y, x))


@pytest.mark.parametrize("make", [chain4, powerset_pqr_custom])
def test_with_pair_of_own_pair_is_identity(make):
    lat = make()
    for e in lat.elements():
        for l in (rin("a"), rout("a")):
            a = AnnotatedRevisionAtom(l, e)
            assert a.with_pair(a.pair) == a
    for pv in pair_space(lat):
        p = PairAnnotatedAtom("a", pv)
        assert p.with_pair(p.pair) == p


def test_join_transform_merges_same_atom():
    lat = powerset_pq()
    p = old_program(lat, ("a", "b"), [
        (("in", "a", {"p"}), [("in", "b", {"p"}), ("in", "b", {"q"})]),
    ])
    merged = join_transform(p)
    assert merged.rules[0].body == (oatom(lat, "in", "b", {"p", "q"}),)


def test_join_transform_keeps_distinct_atoms():
    lat = powerset_pq()
    p = old_program(lat, ("a", "b", "c"), [
        (("in", "a", {"p"}), [("in", "b", {"p"}), ("out", "c", {"q"})]),
    ])
    assert join_transform(p).rules == p.rules


def test_join_transform_chain():
    unit = UnitChain()
    body = [("in", "b", Fraction(3, 10)), ("in", "b", Fraction(1, 2)), ("out", "c", Fraction(1, 5))]
    p = old_program(unit, ("a", "b", "c"), [(("in", "a", Fraction(1)), body)])
    merged = join_transform(p)
    assert merged.rules[0].body == (
        oatom(unit, "in", "b", Fraction(1, 2)), oatom(unit, "out", "c", Fraction(1, 5)))


def test_join_transform_idempotent_and_preserves_satisfaction():
    rng = random.Random(7)
    lat = powerset_pq()
    for _ in range(60):
        p = random_old_program(rng, lat, ("a", "b"), 4, max_body=4)
        t = join_transform(p)
        assert join_transform(t) == t
        for _ in range(10):
            B = random_valuation(rng, lat, ("a", "b"))
            for r, s in zip(p.rules, t.rules):
                assert satisfies(B, r.body) == satisfies(B, s.body)


def test_tr1_displayed_translation():
    lat = powerset_pq()
    alpha, beta = lat.element({"p"}), lat.element({"q"})
    p = Program(OLD, lat, ("a", "s"), [
        OldRule(AnnotatedRevisionAtom(rin("a"), alpha),
                (AnnotatedRevisionAtom(rout("s"), beta),))])
    t = tr1(p)
    bot = lat.bot
    assert t.syntax == NEW
    assert t.rules[0] == NewRule(
        PairAnnotatedAtom("a", PairValue(alpha, bot)),
        (PairAnnotatedAtom("s", PairValue(bot, beta)),))


def test_tr1_lights_rule():
    unit = UnitChain()
    p = old_program(unit, ("a", "b"), [
        (("in", "a", Fraction(1)), [("in", "a", Fraction(4, 5)), ("out", "b", Fraction(3, 5))]),
    ])
    t = tr1(p)
    bot = unit.bot
    assert t.rules[0] == NewRule(
        PairAnnotatedAtom("a", PairValue(unit.element(1), bot)),
        (PairAnnotatedAtom("a", PairValue(unit.element(Fraction(4, 5)), bot)),
         PairAnnotatedAtom("b", PairValue(bot, unit.element(Fraction(3, 5))))))


def test_tr1_tr2_empty_program():
    lat = powerset_pq()
    empty_old = Program(OLD, lat, ("a",), [])
    empty_new = Program(NEW, lat, ("a",), [])
    assert tr1(empty_old).rules == ()
    assert tr2(empty_new).rules == ()


def test_tr2_displayed_translation():
    lat = powerset_pq()
    alpha, beta = lat.element({"p"}), lat.element({"q"})
    a1, b1 = lat.element({"p", "q"}), lat.element({"p"})
    p = Program(NEW, lat, ("a", "b"), [
        NewRule(PairAnnotatedAtom("a", PairValue(alpha, beta)),
                (PairAnnotatedAtom("b", PairValue(a1, b1)),))])
    t = tr2(p)
    body = (AnnotatedRevisionAtom(rin("b"), a1), AnnotatedRevisionAtom(rout("b"), b1))
    assert t.rules == (
        OldRule(AnnotatedRevisionAtom(rin("a"), alpha), body),
        OldRule(AnnotatedRevisionAtom(rout("a"), beta), body))


def test_tr2_of_tr1_adds_bottom_companion():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [(("in", "a", {"p"}), [])])
    back = tr2(tr1(p))
    assert len(back.rules) == 2
    assert back.rules[0].head == oatom(lat, "in", "a", {"p"})
    assert back.rules[1].head == AnnotatedRevisionAtom(rout("a"), lat.bot)


def test_tr1_rejects_new_syntax():
    lat = powerset_pq()
    p = Program(NEW, lat, ("a",), [])
    with pytest.raises(UnsupportedOperationError):
        tr1(p)
    with pytest.raises(UnsupportedOperationError):
        tr2(Program(OLD, lat, ("a",), []))


def test_encode_classic_shape():
    prog, val = encode_classic(
        [ClassicRule(rin("b"), (rout("c"),)),
         ClassicRule(rin("c"), (rin("a"), rout("b")))],
        {"a"}, ("a", "b", "c"))
    lat = prog.lattice
    assert len(prog.rules) == 2
    assert all(a.ann == lat.true
               for r in prog.rules for a in (r.head,) + r.body)
    assert val["a"] == PairValue(lat.true, lat.false)
    assert val["b"] == PairValue(lat.false, lat.true)


def test_encode_decode_round_trip():
    rng = random.Random(11)
    universe = ("a", "b", "c", "d")
    for _ in range(50):
        db = frozenset(a for a in universe if rng.random() < 0.5)
        _, val = encode_classic([], db, universe)
        assert decode_classic(val) == db


def test_decode_rejects_non_database_valuation():
    prog, val = encode_classic([], set(), ("a",))
    lat = prog.lattice
    odd = val.replace("a", PairValue(lat.true, lat.true))
    assert decode_classic(odd) is None


def test_program_deduplicates_structurally():
    lat = powerset_pq()
    r = OldRule(oatom(lat, "in", "a", {"p"}), ())
    p = Program(OLD, lat, ("a",), [r, r, OldRule(oatom(lat, "in", "a", {"p"}), ())])
    assert len(p.rules) == 1


def test_program_rejects_undeclared_atom():
    lat = powerset_pq()
    with pytest.raises(ValueError):
        Program(OLD, lat, ("a",), [OldRule(oatom(lat, "in", "b", {"p"}), ())])


def test_program_rejects_foreign_annotation():
    lat, lat2 = powerset_pq(), powerset_pq()
    from annrev import LatticeMismatchError
    with pytest.raises(LatticeMismatchError):
        Program(OLD, lat, ("a",), [OldRule(oatom(lat2, "in", "a", {"p"}), ())])


def test_program_union():
    lat = powerset_pq()
    p1 = old_program(lat, ("a",), [(("in", "a", {"p"}), [])])
    p2 = old_program(lat, ("a",), [(("out", "a", {"q"}), [])])
    assert (p1 + p2).rules == p1.rules + p2.rules
    # A rule on both sides is kept once, where it first stands.
    p3 = old_program(lat, ("a",), [(("out", "a", {"q"}), []), (("in", "a", {"p"}), [])])
    assert (p1 + p2 + p3).rules == (p2 + p1 + p3).rules[::-1] == p1.rules + p2.rules
