"""Operators, reducts, and justified revisions."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from annrev import (
    FITTING,
    MPT,
    NEW,
    OLD,
    CustomLattice,
    InvalidLatticeError,
    PairValuation,
    PairValue,
    PowersetLattice,
    Program,
    TwoLattice,
    UnitChain,
    UnsupportedOperationError,
    apply_change,
    diff,
    enumerate_revisions,
    f_reduct,
    is_justified_revision,
    is_model,
    is_smodel,
    necessary_change,
    pair_space,
    parse,
    reduct,
    satisfies,
    theta_inv,
    tp,
    tp_heads,
    tpb,
    tr1,
)
from helpers import (
    all_valuations,
    brute_force_revisions,
    chain4,
    chain_product,
    deep_chain_program,
    literal_justification,
    literal_tp,
    oatom,
    old_program,
    oracle_space,
    powerset_pq,
    powerset_pqr_custom,
    random_new_program,
    random_old_program,
    random_valuation,
    revision_set,
    unit_quarters,
    reference_lfp,
    valuation,
)
from annrev.engine import _compile, _lfp, _trace, _watch

FIXTURES = Path(__file__).parent / "fixtures"
unit = UnitChain()


def lights_program():
    return old_program(unit, ("a", "b"), [
        (("in", "a", 1), [("in", "a", Fraction(4, 5)), ("out", "b", Fraction(3, 5))]),
        (("out", "b", 1), [("in", "a", Fraction(4, 5)), ("out", "b", Fraction(3, 5))]),
        (("in", "b", 1), [("in", "b", Fraction(4, 5)), ("out", "a", Fraction(3, 5))]),
        (("out", "a", 1), [("in", "b", Fraction(4, 5)), ("out", "a", Fraction(3, 5))]),
    ])


def notmodel_program(lat):
    return old_program(lat, ("a", "b"), [
        (("in", "a", {"p"}), [("in", "b", {"p", "q"})]),
        (("in", "b", {"q"}), []),
    ])


# --- one-step operators -------------------------------------------------------

def test_tp_heads_lights():
    p = lights_program()
    B_R = valuation(unit, {"a": (0, 1), "b": (1, 0)})
    heads = tp_heads(p, theta_inv(B_R))
    assert heads == {p.rules[2].head, p.rules[3].head}


def test_tp_heads_nothing_fires():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [(("in", "a", {"p"}), [("in", "a", {"q"})])])
    v = theta_inv(PairValuation.bottom(lat, ("a",)))
    assert tp_heads(p, v) == frozenset()


def test_tp_heads_fact_always_fires():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [(("out", "a", {"q"}), [])])
    v = theta_inv(PairValuation.bottom(lat, ("a",)))
    assert tp_heads(p, v) == {p.rules[0].head}


def test_tpb_notmodel_values():
    lat = powerset_pq()
    p = notmodel_program(lat)
    B_R = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p", "q"}, frozenset())})
    t = tpb(p, B_R)
    assert t["a"] == PairValue(lat.element({"p"}), lat.bot)
    assert t["b"] == PairValue(lat.element({"q"}), lat.bot)


def test_tpb_empty_program_is_bottom():
    lat = powerset_pq()
    p = old_program(lat, ("a", "b"), [])
    B = valuation(lat, {"a": ({"p"}, {"q"}), "b": ({"q"}, frozenset())})
    assert tpb(p, B) == PairValuation.bottom(lat, ("a", "b"))


def test_tp_heads_pair_syntax():
    from annrev import tr1
    lat = powerset_pq()
    p = notmodel_program(lat)
    B_R = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p", "q"}, frozenset())})
    heads = tp_heads(tr1(p), B_R)
    assert {h.atom for h in heads} == {"a", "b"}
    with pytest.raises(TypeError):
        tp_heads(tr1(p), theta_inv(B_R))


def test_tpb_monotone():
    rng = random.Random(23)
    lat = powerset_pq()
    for _ in range(100):
        p = random_old_program(rng, lat, ("a", "b"), 5)
        B = random_valuation(rng, lat, ("a", "b"))
        B2 = B | random_valuation(rng, lat, ("a", "b"))
        assert tpb(p, B).leq_k(tpb(p, B2))


@pytest.mark.parametrize("make", [TwoLattice, powerset_pq, chain4, UnitChain])
def test_tp_matches_literal_operator(make):
    rng = random.Random(24)
    lat = make()
    els = None if lat.is_finite else unit_quarters(lat)
    atoms = ("a", "b")
    fired = set()
    for _ in range(150):
        B = random_valuation(rng, lat, atoms, els)
        v = theta_inv(B)
        old = random_old_program(rng, lat, atoms, 5, els=els)
        heads, image = literal_tp(old, v)
        assert tp_heads(old, v) == heads
        assert tp(old, v) == image
        new = random_new_program(rng, lat, atoms, 5, els=els)
        heads, image = literal_tp(new, B)
        assert tp_heads(new, B) == heads
        assert tpb(new, B) == image
        fired.add(bool(heads))
    assert fired == {True, False}


def test_tp_rejects_wrong_syntax_valuation_and_universe():
    lat = powerset_pq()
    p = notmodel_program(lat)
    v = theta_inv(PairValuation.bottom(lat, ("a", "b")))
    with pytest.raises(UnsupportedOperationError, match="revision-atom programs"):
        tp(tr1(p), v)
    with pytest.raises(TypeError, match="over TValuation"):
        tp(p, PairValuation.bottom(lat, ("a", "b")))
    with pytest.raises(ValueError, match="universe differs"):
        tp(p, theta_inv(PairValuation.bottom(lat, ("a",))))


# --- necessary change ----------------------------------------------------------

def test_nc_guarded_rule_never_fires():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [
        (("out", "a", {"q"}), []),
        (("in", "a", {"q"}), [("in", "a", {"q"})]),
    ])
    nc = necessary_change(p)
    assert nc["a"] == PairValue(lat.bot, lat.element({"q"}))


def test_nc_lights_is_bottom():
    p = lights_program()
    assert necessary_change(p) == PairValuation.bottom(unit, ("a", "b"))


def test_nc_contradictory_facts():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [
        (("in", "a", {"p"}), []),
        (("out", "a", {"p"}), []),
    ])
    nc = necessary_change(p)
    assert nc["a"] == PairValue(lat.element({"p"}), lat.element({"p"}))


def test_nc_is_model_and_smodel():
    rng = random.Random(31)
    lat = powerset_pq()
    for _ in range(100):
        p = random_old_program(rng, lat, ("a", "b"), 6)
        nc = necessary_change(p)
        assert tpb(p, nc) == nc
        assert is_model(p, nc) and is_smodel(p, nc)


# --- models and s-models --------------------------------------------------------

def test_model_but_not_smodel():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [(("in", "a", {"q"}), [])])
    B = valuation(lat, {"a": ({"q"}, {"q"})})
    assert is_model(p, B)
    assert not is_smodel(p, B)


def test_smodel_of_empty_program():
    lat = powerset_pq()
    B = valuation(lat, {"a": ({"p"}, {"p"})})
    assert is_smodel(old_program(lat, ("a",), []), B)


def test_adding_tautological_rule_breaks_smodel():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [(("in", "a", {"p"}), [("in", "a", {"p"})])])
    B = valuation(lat, {"a": ({"p"}, {"p"})})
    assert not is_smodel(p, B)


def test_adding_tautological_rule_can_create_smodel():
    lat = powerset_pq()
    B = valuation(lat, {"a": ({"p"}, {"p"})})
    fact_only = old_program(lat, ("a",), [(("out", "a", {"p"}), [])])
    assert not is_smodel(fact_only, B)
    with_loop = old_program(lat, ("a",), [
        (("out", "a", {"p"}), []),
        (("in", "a", {"p"}), [("in", "a", {"p"})]),
    ])
    assert is_smodel(with_loop, B)


def test_is_model_agrees_with_satisfaction():
    rng = random.Random(37)
    lat = powerset_pq()
    for _ in range(150):
        p = random_old_program(rng, lat, ("a", "b"), 5)
        B = random_valuation(rng, lat, ("a", "b"))
        assert is_model(p, B) == satisfies(B, p)


def test_smodel_meet_counterexample():
    lat = powerset_pq()
    p = old_program(lat, ("a", "b"), [
        (("in", "a", {"p"}), [("in", "b", {"p"})]),
        (("out", "a", {"p"}), []),
        (("in", "a", {"p"}), [("out", "b", {"p"})]),
    ])
    B1 = valuation(lat, {"a": ({"p"}, {"p"}), "b": ({"p"}, frozenset())})
    B2 = valuation(lat, {"a": ({"p"}, {"p"}), "b": (frozenset(), {"p"})})
    assert is_smodel(p, B1) and is_smodel(p, B2)
    assert not is_smodel(p, B1 & B2)
    assert is_model(p, B1 & B2)


# --- reducts ---------------------------------------------------------------------

def test_reduct_lights():
    p = lights_program()
    B_I = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10)),
                           "b": (Fraction(9, 10), Fraction(1, 10))})
    B_R = valuation(unit, {"a": (0, 1), "b": (1, 0)})
    red = reduct(p, B_I, B_R)
    assert red.sources == (2, 3)
    assert red.rules[0].body == (oatom(unit, "in", "b", 0), oatom(unit, "out", "a", 0))
    assert red.rules[1].body == red.rules[0].body


def test_reduct_vs_freduct_notmodel():
    lat = powerset_pq()
    p = notmodel_program(lat)
    B_I = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p"}, frozenset())})
    B_R = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p", "q"}, frozenset())})
    fr = f_reduct(p, B_I, B_R)
    assert tuple(fr.rules) == p.rules  # deletion step leaves the program unchanged
    r = reduct(p, B_I, B_R)
    assert r.rules[0].body == (oatom(lat, "in", "b", {"q"}),)


def test_reduct_empty_when_candidate_is_bottom():
    p = lights_program()
    B_I = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10)),
                           "b": (Fraction(9, 10), Fraction(1, 10))})
    red = reduct(p, B_I, PairValuation.bottom(unit, ("a", "b")))
    assert red.rules == ()


def test_freduct_empties_satisfied_bodies():
    lat = powerset_pq()
    p = notmodel_program(lat)
    B_I = PairValuation.top(lat, ("a", "b"))
    B_R = PairValuation.top(lat, ("a", "b"))
    fr = f_reduct(p, B_I, B_R)
    assert all(r.body == () for r in fr.rules)


def test_reducts_coincide_on_chains():
    rng = random.Random(41)
    lat = chain4()
    for _ in range(100):
        p = random_old_program(rng, lat, ("a", "b"), 5)
        B_I = random_valuation(rng, lat, ("a", "b"))
        B_R = random_valuation(rng, lat, ("a", "b"))
        nc1 = necessary_change(reduct(p, B_I, B_R).program())
        nc2 = necessary_change(f_reduct(p, B_I, B_R).program())
        assert nc1 == nc2


# --- justified revisions -----------------------------------------------------------

def proposal():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    rules = []
    for target, source in [("Ann", "Bob"), ("Ann", "Pete"), ("Bob", "Ann"), ("Bob", "Pete")]:
        rules.append((("in", "accept", {target}), [("in", "accept", {source})]))
    for target, source in [("Pete", "Ann"), ("Pete", "Bob")]:
        rules.append((("out", "accept", {target}), [("out", "accept", {source})]))
    p = old_program(lat, ("accept",), rules)
    B_I = valuation(lat, {"accept": ({"Pete"}, {"Bob"})})
    return lat, p, B_I


def test_proposal_both_revisions_verify():
    lat, p, B_I = proposal()
    accepted = valuation(lat, {"accept": ({"Ann", "Bob", "Pete"}, frozenset())})
    rejected = valuation(lat, {"accept": (frozenset(), {"Bob", "Pete"})})
    assert is_justified_revision(p, B_I, accepted, MPT).verified
    assert is_justified_revision(p, B_I, rejected, MPT).verified


def test_proposal_enumeration_exactly_two():
    lat, p, B_I = proposal()
    outs = enumerate_revisions(p, B_I, MPT)
    assert [o.candidate for o in outs] == [
        valuation(lat, {"accept": ({"Ann", "Bob", "Pete"}, frozenset())}),
        valuation(lat, {"accept": (frozenset(), {"Bob", "Pete"})}),
    ]
    assert outs[0].necessary_change == valuation(lat, {"accept": ({"Ann", "Bob"}, frozenset())})


def test_example_multi_p2():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [
        (("out", "a", {"q"}), []),
        (("in", "a", {"q"}), [("in", "a", {"q"})]),
    ])
    B_I = valuation(lat, {"a": ({"q"}, {"q"})})
    B_R = valuation(lat, {"a": (frozenset(), {"q"})})
    out = is_justified_revision(p, B_I, B_R, MPT)
    assert out.verified
    assert out.necessary_change == valuation(lat, {"a": (frozenset(), {"q"})})
    assert revision_set(p, B_I) == {B_I, B_R}


def test_example_multi_p3():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [
        (("in", "a", {"q"}), [("in", "a", {"q"})]),
        (("out", "a", {"q"}), [("out", "a", {"q"})]),
    ])
    B_I = valuation(lat, {"a": ({"q"}, {"q"})})
    assert revision_set(p, B_I) == {
        B_I,
        valuation(lat, {"a": (frozenset(), {"q"})}),
        valuation(lat, {"a": ({"q"}, frozenset())}),
    }


def test_unit_chain_self_loop_example():
    p = old_program(unit, ("a",), [
        (("out", "a", 1), []),
        (("in", "a", Fraction(2, 5)), [("in", "a", Fraction(2, 5))]),
    ])
    B_I = valuation(unit, {"a": (Fraction(2, 5), 1)})
    assert is_smodel(p, B_I)
    assert is_justified_revision(p, B_I, B_I, MPT).verified
    B_R = valuation(unit, {"a": (0, 1)})
    assert is_justified_revision(p, B_I, B_R, MPT).verified


def test_empty_program_only_self_revision():
    lat = powerset_pq()
    p = old_program(lat, ("a",), [])
    for B_I in all_valuations(lat, ("a",)):
        assert revision_set(p, B_I) == {B_I}


def test_notmodel_fitting_anomaly():
    lat = powerset_pq()
    p = notmodel_program(lat)
    B_I = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p"}, frozenset())})
    B_R = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p", "q"}, frozenset())})
    assert is_justified_revision(p, B_I, B_R, FITTING).verified
    assert not is_model(p, B_R)
    assert not is_justified_revision(p, B_I, B_R, MPT).verified
    assert B_R in revision_set(p, B_I, FITTING)


def _outcome_key(outs):
    return [(o.candidate, o.necessary_change, o.trace) for o in outs]


def _random_problems(rng):
    """Random (program, initial valuation) pairs over two, chain4,
    powerset{p,q}, the custom powerset{p,q,r}, small unit-chain programs
    and the 3x3 grid, whose join-irreducibles are not an antichain, in both
    syntaxes, on one and two atoms."""
    cases = [
        (TwoLattice(), None, 6, 6),
        (chain4(), None, 6, 2),
        (powerset_pq(), None, 6, 2),
        (powerset_pqr_custom(), None, 4, 1),
        (unit, unit_quarters(unit), 6, 2),
        (chain_product(3, 3), None, 4, 1),
    ]
    for lat, els, one_atom, two_atoms in cases:
        for atoms, trials in ((("a",), one_atom), (("a", "b"), two_atoms)):
            for gen in (random_old_program, random_new_program):
                for _ in range(trials):
                    p = gen(rng, lat, atoms, 4, els=els)
                    yield p, random_valuation(rng, lat, atoms, els=els), els


def test_enumeration_agrees_with_verification():
    # Change-space enumeration against the guess-and-check oracle, outcome
    # by outcome, under both semantics; then lights.arp on the unit chain.
    for p, B_I, _ in _random_problems(random.Random(43)):
        for semantics in (MPT, FITTING):
            assert (_outcome_key(enumerate_revisions(p, B_I, semantics))
                    == _outcome_key(brute_force_revisions(p, B_I, semantics)))
    doc = parse((FIXTURES / "lights.arp").read_text())
    for semantics in (MPT, FITTING):
        assert (_outcome_key(enumerate_revisions(doc.program, doc.init, semantics))
                == _outcome_key(brute_force_revisions(doc.program, doc.init, semantics)))


def test_verification_agrees_with_definition():
    # The compiled check against the literal one (public reduct, iteration
    # with satisfies, apply_change) on random candidates and on each
    # problem's revisions, so that both verdicts occur.
    rng = random.Random(59)
    verdicts = set()
    for p, B_I, els in _random_problems(rng):
        for semantics in (MPT, FITTING):
            candidates = [random_valuation(rng, p.lattice, p.universe, els=els)
                          for _ in range(3)]
            candidates += [o.candidate for o in enumerate_revisions(p, B_I, semantics)]
            for B_R in candidates:
                got = is_justified_revision(p, B_I, B_R, semantics)
                want = literal_justification(p, B_I, B_R, semantics)
                assert ((got.verified, got.necessary_change, got.trace)
                        == (want.verified, want.necessary_change, want.trace))
                verdicts.add(got.verified)
    assert verdicts == {True, False}


def _deep_problems(rng):
    """Derivation chains of 30-60 rules with cross rules, in both syntaxes,
    over chain4, powerset{p,q} and unit-chain quarters."""
    for lat, els in ((chain4(), None), (powerset_pq(), None), (unit, unit_quarters(unit))):
        for syntax in (OLD, NEW):
            depth = rng.randint(30, 60)
            p, late = deep_chain_program(rng, lat, syntax, depth, depth // 3, els)
            yield p, depth, late, els


def test_deep_chain_necessary_change_matches_naive_iteration():
    for p, depth, _, _ in _deep_problems(random.Random(61)):
        v = PairValuation.bottom(p.lattice, p.universe)
        steps = 0
        while (image := tpb(p, v)) != v:
            v = image
            steps += 1
        assert steps == depth
        assert necessary_change(p) == v


def test_deep_chain_verification_agrees_with_definition():
    # Accepted candidate: every rule fires in the necessary change C, so with
    # any B_I the reduct keeps them all and its fixpoint is C again.  The
    # perturbed candidate moves one atom of it.
    rng = random.Random(67)
    verdicts = set()
    for p, depth, late, els in _deep_problems(rng):
        lat, atoms = p.lattice, p.universe
        bottom = PairValuation.bottom(lat, atoms)
        change = necessary_change(p)
        for B_I in (bottom, random_valuation(rng, lat, atoms, els=els)):
            accepted = apply_change(B_I, change)
            a = rng.choice(atoms)
            moved = accepted
            while moved == accepted:
                moved = accepted.replace(a, random_valuation(rng, lat, (a,), els=els)[a])
            for semantics in (MPT, FITTING):
                for B_R in (accepted, moved):
                    got = is_justified_revision(p, B_I, B_R, semantics)
                    want = literal_justification(p, B_I, B_R, semantics)
                    assert ((got.verified, got.necessary_change, got.trace)
                            == (want.verified, want.necessary_change, want.trace))
                    assert got.verified or B_R is moved
                    verdicts.add(got.verified)
        # From bottom the reduct is the program: one trace entry per chain
        # step, and the rule that first fires on the final, unproductive
        # step is in none of them.
        trace = is_justified_revision(p, bottom, change).trace
        assert len(trace) == depth
        assert late not in trace[-1]
        assert set(trace[-1]) == set(range(len(p.rules))) - {late}
    assert verdicts == {True, False}


def _trace_problems(rng):
    """(program, initial valuation or None, candidates): every fixture, with
    its init, its candidate, its init revised by the necessary change and
    its revisions; then seeded random and deep-chain problems with random
    candidates and the init revised by the necessary change."""
    for path in sorted(FIXTURES.glob("*.arp")):
        doc = parse(path.read_text())
        p, B_I = doc.program, doc.init
        if B_I is None:
            yield p, None, []
            continue
        cands = [B_I, apply_change(B_I, necessary_change(p))]
        cands += [doc.candidate] if doc.candidate is not None else []
        cands += [o.candidate for o in enumerate_revisions(p, B_I)]
        yield p, B_I, cands
    problems = [(p, B_I, els) for p, B_I, els in _random_problems(rng)]
    problems += [(p, random_valuation(rng, p.lattice, p.universe, els=els), els)
                 for p, _, _, els in _deep_problems(rng)]
    for p, B_I, els in problems:
        cands = [random_valuation(rng, p.lattice, p.universe, els=els) for _ in range(2)]
        yield p, B_I, cands + [apply_change(B_I, necessary_change(p))]


def _assert_nested(trace):
    for step in trace:
        assert list(step) == sorted(set(step))
    for step, after in zip(trace, trace[1:]):
        assert set(step) < set(after)


def test_trace_matches_sorted_fired_reference():
    # The engine's incremental trace against a naive loop that sorts the
    # fired set on every productive step: for the necessary change (the
    # loop ``necessary_change`` runs) and for each candidate check, whose
    # reference iterates the public ``reduct``/``f_reduct``.  ``_lfp``
    # returns per-step fired sets, and ``_trace`` makes them cumulative.
    steps = 0
    for p, B_I, candidates in _trace_problems(random.Random(71)):
        codec, rules = _compile(p)
        vals, fired = _lfp(rules, _watch(rules, len(p.universe)), range(len(rules)))
        vals, trace = dict(zip(p.universe, map(codec.unpair, vals))), _trace(fired)
        assert (vals, trace) == reference_lfp(
            p.lattice, p.universe, range(len(p.rules)), p.rules)
        assert PairValuation(p.lattice, vals) == necessary_change(p)
        _assert_nested(trace)
        steps += len(trace)
        for B_R in candidates:
            for semantics in (MPT, FITTING):
                got = is_justified_revision(p, B_I, B_R, semantics)
                red = (reduct if semantics == MPT else f_reduct)(p, B_I, B_R)
                change, trace = reference_lfp(p.lattice, p.universe, red.sources, red.rules)
                assert got.trace == trace
                assert got.necessary_change == PairValuation(p.lattice, change)
                _assert_nested(got.trace)
    assert steps > 100


def test_lfp_keeps_one_fired_set_per_step():
    # Each entry of ``_lfp`` holds only the rules that first fire at its
    # step, so the entries are disjoint and together hold every rule that
    # fires, the late one aside, which fires on the final, unproductive
    # step.  ``_trace`` rebuilds the cumulative trace that the naive
    # reference records and a returned outcome carries.
    rng = random.Random(73)
    lat = powerset_pq()
    for syntax in (OLD, NEW):
        for cross in (0, 100):
            p, late = deep_chain_program(rng, lat, syntax, 300, cross)
            _, rules = _compile(p)
            _, steps = _lfp(rules, _watch(rules, len(p.universe)), range(len(rules)))
            assert len(steps) == 300
            for step in steps:
                assert list(step) == sorted(set(step))
            fired = set().union(*steps)
            assert sum(map(len, steps)) == len(fired) == len(rules) - 1
            assert fired == set(range(len(rules))) - {late}
            trace = _trace(steps)
            assert trace == reference_lfp(lat, p.universe, range(len(p.rules)), p.rules)[1]
            bottom = PairValuation.bottom(lat, p.universe)
            for semantics in (MPT, FITTING):
                got = is_justified_revision(p, bottom, necessary_change(p), semantics)
                assert got.verified and got.trace == trace


def test_outcome_builds_its_trace_from_its_steps():
    # An outcome keeps ``_lfp``'s per-step deltas and builds the cumulative
    # trace from them when ``trace`` is read.  The literal oracle builds its
    # outcome from the differences of its cumulative fired sets, and agrees
    # field for field.  Steps are sorted and disjoint, so outcomes that
    # differ only in their steps compare equal exactly when their traces do.
    outs = []
    for p, B_I, candidates in _trace_problems(random.Random(79)):
        for B_R in candidates:
            for semantics in (MPT, FITTING):
                got = is_justified_revision(p, B_I, B_R, semantics)
                assert got.trace == _trace(got.steps)
                assert got == literal_justification(p, B_I, B_R, semantics)
                outs.append(got)
    rng = random.Random(83)
    same = 0
    for o in outs:
        for q in [o, *rng.sample(outs, 5)]:
            moved = replace(o, steps=q.steps)
            assert moved.trace == q.trace
            assert (moved == o) == (q.trace == o.trace)
            same += q is not o and q.trace == o.trace
    assert same and len({o.trace for o in outs}) > 30


def test_enumeration_deterministic():
    lat, p, B_I = proposal()
    a = enumerate_revisions(p, B_I, MPT)
    b = enumerate_revisions(p, B_I, MPT)
    assert [o.candidate for o in a] == [o.candidate for o in b]
    texts = [o.candidate.canonical_text() for o in a]
    assert texts == sorted(texts)


def _checked_revisions(p, B_I, semantics):
    """Guess and check with the engine's verdict: every valuation over the
    universe, kept when ``is_justified_revision`` accepts it."""
    return [o for o in (is_justified_revision(p, B_I, B_R, semantics)
                        for B_R in all_valuations(p.lattice, p.universe)) if o.verified]


def test_search_agrees_with_guess_and_check_on_three_atoms():
    # Three atoms give the rule search room to branch and prune: under
    # both semantics, outcome by outcome, against the literal oracle on
    # two and against guess and check on chain4 and powerset{p,q}, whose
    # 4,096 candidates per problem the literal check is too slow for.
    rng = random.Random(67)
    atoms = ("a", "b", "c")
    for lat, oracle, trials in ((TwoLattice(), brute_force_revisions, 12),
                                (chain4(), _checked_revisions, 2),
                                (powerset_pq(), _checked_revisions, 2)):
        for gen in (random_old_program, random_new_program):
            for _ in range(trials):
                p = gen(rng, lat, atoms, 6)
                B_I = random_valuation(rng, lat, atoms)
                for semantics in (MPT, FITTING):
                    assert (_outcome_key(enumerate_revisions(p, B_I, semantics))
                            == _outcome_key(oracle(p, B_I, semantics)))


def test_revisions_of_a_disjoint_union_are_the_products_of_its_parts():
    # Programs over disjoint atoms share no rule bodies, so a revision of
    # their union is a revision of each part side by side, with the parts'
    # necessary changes side by side, and every such pair is one.
    rng = random.Random(71)
    found = 0
    for lat, els in ((TwoLattice(), None), (chain4(), None), (powerset_pq(), None),
                     (unit, unit_quarters(unit))):
        for gen in (random_old_program, random_new_program):
            for _ in range(8):
                parts = [(gen(rng, lat, atoms, 5, els=els),
                          random_valuation(rng, lat, atoms, els=els))
                         for atoms in (("a", "b"), ("c", "d"))]
                p = Program(parts[0][0].syntax, lat, ("a", "b", "c", "d"),
                            parts[0][0].rules + parts[1][0].rules)
                B_I = PairValuation(lat, dict(parts[0][1].items() + parts[1][1].items()))
                for semantics in (MPT, FITTING):
                    (one, two) = [enumerate_revisions(q, B, semantics) for q, B in parts]
                    want = {(PairValuation(lat, dict(x.candidate.items() + y.candidate.items())),
                             PairValuation(lat, dict(x.necessary_change.items()
                                                     + y.necessary_change.items())))
                            for x in one for y in two}
                    got = enumerate_revisions(p, B_I, semantics)
                    assert {(o.candidate, o.necessary_change) for o in got} == want
                    assert len(got) == len(want)
                    found += len(got)
    assert found > 100


def test_search_finds_each_revision_once():
    # One revision: a kept rule set of {1} gives a = <t, t>, b = <t, f>,
    # which satisfies rule 1's body and fails rule 0's.  Keeping both rules
    # revises B_I to the same candidate, since a is top either way, but
    # that candidate fails rule 0's body, so the branch that keeps rule 0
    # has to end when the upper bound fails it, not at a leaf.
    doc = parse("lattice two\nsyntax new\nuniverse { a, b }\nprogram {\n"
                "  a:<t,t> <- a:<t,t>, b:<t,t>.\n  b:<t,f> <- a:<f,t>, a:<t,t>.\n}\n"
                "init { a = <t, t>. b = <t, t>. }\n")
    lat = doc.lattice
    (o,) = enumerate_revisions(doc.program, doc.init, MPT)
    assert o.candidate == valuation(lat, {"a": ("t", "t"), "b": ("t", "f")})
    assert o.necessary_change == valuation(lat, {"a": ("f", "f"), "b": ("t", "f")})
    assert o.steps == ((1,),)


def _cycle(atoms):
    """The cyclic family over ``powerset{p,q}``: per atom an ``in:{p}`` and
    an ``in:{q}`` rule, each reading the same side of the previous atom in
    the cycle, plus the fact ``in(atoms[0]):{p}``."""
    rules = [(("in", atoms[0], {"p"}), [])]
    for prev, a in zip(atoms[-1:] + atoms[:-1], atoms):
        rules += [(("in", a, {x}), [("in", prev, {x})]) for x in ("p", "q")]
    return rules


# (initial pair, revision, necessary change), the same on every atom of a
# cycle.  q held: every q rule's body holds from the start, so each fires
# and q stays, and the initial denial of p falls to the change's
# conflation.  q denied, p not held: no q rule can ever fire, and the
# denial stays.
_HELD = (({"q"}, {"p"}), ({"p", "q"}, set()), ({"p", "q"}, set()))
_DENIED = ((set(), {"q"}), ({"p"}, {"q"}), ({"p"}, set()))


def test_wide_cycles_have_their_known_revision():
    # Each cycle has one revision, fixed by construction.  The fact puts p
    # in the first atom and the p rules carry it round the cycle, one atom
    # per step, and nothing derives negative evidence, so the initial
    # positive side survives.  Every atom has 4 changes to choose from, so
    # the widest change space here is 4**40.
    lat = powerset_pq()
    for cycles in ([(12, _HELD)], [(40, _HELD)], [(4, _HELD), (4, _DENIED)]):
        rules, init, cand, change = [], {}, {}, {}
        for c, (n, (start, revised, needed)) in enumerate(cycles):
            atoms = tuple(f"x{c}_{k:02d}" for k in range(n))
            rules += _cycle(atoms)
            init.update(dict.fromkeys(atoms, start))
            cand.update(dict.fromkeys(atoms, revised))
            change.update(dict.fromkeys(atoms, needed))
        p = old_program(lat, tuple(init), rules)
        B_I = valuation(lat, init)
        for prog in (p, tr1(p)):
            for semantics in (MPT, FITTING):
                (o,) = enumerate_revisions(prog, B_I, semantics)
                assert o.candidate == valuation(lat, cand)
                assert o.necessary_change == valuation(lat, change)
                assert len(o.steps) == max(n for n, _ in cycles)
                assert o == literal_justification(prog, B_I, o.candidate, semantics)


def test_enumeration_exact_on_unit_chain():
    p = lights_program()
    B_I = valuation(unit, {"a": (Fraction(3, 10), Fraction(7, 10)),
                           "b": (Fraction(9, 10), Fraction(1, 10))})
    outs = enumerate_revisions(p, B_I, MPT)
    assert [o.candidate for o in outs] == [valuation(unit, {"a": (0, 1), "b": (1, 0)})]


def test_unit_chain_per_call_codes_agree_with_literal_oracle():
    # The unit chain is the one kind whose codes are built per call, over
    # the constants the call reads and their complements.  0, 1, 1/2 and
    # the complement pair 1/3, 2/3 sit in heads, bodies, B_I and B_R.  1/5
    # is a head whose complement 4/5 occurs in no input: only the revision
    # makes it, as the conflation of its change.  3/7 occurs only in
    # candidates, so only the codes of the check that reads it cover it.
    h, t, f = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    p = old_program(unit, ("a", "b"), [
        (("in", "a", 1 - t), [("out", "b", h)]),
        (("out", "b", f), [("in", "a", 1 - t)]),
        (("in", "b", h), [("in", "a", t), ("out", "a", 0)]),
        (("out", "a", 1), [("in", "b", 1 - t)]),
        (("out", "a", t), [("out", "b", f)]),
        (("in", "a", t), []),
    ])
    B_I = valuation(unit, {"a": (h, 1 - t), "b": (1, h)})
    odd = [valuation(unit, {"a": (Fraction(3, 7), 1 - t), "b": (1, h)}),
           valuation(unit, {"a": (1 - t, 0), "b": (0, Fraction(4, 7))})]
    for prog in (p, tr1(p)):
        space = oracle_space(prog, B_I)
        assert len(space) == 49
        candidates = [PairValuation(unit, {"a": x, "b": y}) for x in space for y in space]
        for semantics in (MPT, FITTING):
            expected = brute_force_revisions(prog, B_I, semantics)
            assert [o.candidate for o in expected] == [
                valuation(unit, {"a": (1 - t, 1), "b": (1 - f, h)})]
            assert enumerate_revisions(prog, B_I, semantics) == expected
            for B_R in candidates[::7] + odd + [o.candidate for o in expected]:
                assert (is_justified_revision(prog, B_I, B_R, semantics)
                        == literal_justification(prog, B_I, B_R, semantics))


def test_engine_rejects_non_distributive_custom_lattice():
    # M3 cannot be built, through parse or the API, so the engine, diff and
    # pair maps never meet a lattice without codes.
    with pytest.raises(InvalidLatticeError, match="^distributivity fails at a, b, c$"):
        CustomLattice(
            ("bot", "a", "b", "c", "top"),
            [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"),
             ("c", "top")],
            {"bot": "top", "a": "a", "b": "c", "c": "b", "top": "bot"})


def test_trace_reports_source_rule_indices():
    lat, p, B_I = proposal()
    out = enumerate_revisions(p, B_I, MPT)[0]
    flat = {i for step in out.trace for i in step}
    assert flat <= set(range(len(p.rules)))
    assert out.trace  # at least one productive iteration


def test_fixpoint_trace_stays_within_bound():
    # The trace has one entry per productive step.  From bottom, the
    # necessary change is its own justified revision, and its check runs one
    # fixpoint over the reduct's rules, bounded by their number.
    lat = powerset_pq()
    rng = random.Random(47)
    for _ in range(50):
        p = random_old_program(rng, lat, ("a", "b"), 6)
        nc = necessary_change(p)
        bottom = PairValuation.bottom(lat, p.universe)
        out = is_justified_revision(p, bottom, nc, MPT)
        assert out.verified
        assert out.necessary_change == nc
        assert len(out.trace) <= len(reduct(p, bottom, nc).sources)


def test_fixpoint_bound_is_tight_on_a_chain():
    # Rule t reads the head of rule t - 1, so each step fires exactly one new
    # rule: k productive steps for k rules, the bound itself.
    k = 12
    lat = TwoLattice()
    atoms = tuple(f"x{t}" for t in range(k))
    p = old_program(lat, atoms, [(("in", atoms[0], "t"), [])] + [
        (("in", atoms[t], "t"), [("in", atoms[t - 1], "t")]) for t in range(1, k)])
    bottom = PairValuation.bottom(lat, atoms)
    out = is_justified_revision(p, bottom, necessary_change(p), MPT)
    assert len(out.trace) == len(p.rules) == k


def test_new_syntax_verification_matches_old():
    from annrev import tr1
    rng = random.Random(53)
    lat = powerset_pq()
    for _ in range(50):
        p = random_old_program(rng, lat, ("a", "b"), 4)
        B_I = random_valuation(rng, lat, ("a", "b"))
        B_R = random_valuation(rng, lat, ("a", "b"))
        for semantics in (MPT, FITTING):
            assert (is_justified_revision(p, B_I, B_R, semantics).verified
                    == is_justified_revision(tr1(p), B_I, B_R, semantics).verified)


def test_consistent_valuation_smodel_iff_model():
    rng = random.Random(59)
    lat = powerset_pq()
    space = [v for v in pair_space(lat) if v.is_consistent()]
    for _ in range(200):
        p = random_old_program(rng, lat, ("a", "b"), 6)
        B = PairValuation(lat, {a: rng.choice(space) for a in ("a", "b")})
        assert is_smodel(p, B) == is_model(p, B)


def test_join_transform_invariance_under_mpt():
    from annrev import join_transform
    rng = random.Random(61)
    lat = powerset_pq()
    for _ in range(40):
        p = random_old_program(rng, lat, ("a",), 4, max_body=3)
        B_I = random_valuation(rng, lat, ("a",))
        assert revision_set(p, B_I, MPT) == revision_set(join_transform(p), B_I, MPT)


def test_closer_valuations_inherit_revisions():
    # Boolean lattice, consistent R a revision of consistent I: any B at
    # most as far from R as I is also revised into R.
    from annrev import diff
    rng = random.Random(67)
    lat = powerset_pq()
    space = pair_space(lat)
    consistent = [v for v in space if v.is_consistent()]
    checked = 0
    while checked < 120:
        p = random_old_program(rng, lat, ("a",), 4)
        I = PairValuation(lat, {"a": rng.choice(consistent)})
        revs = [o.candidate for o in enumerate_revisions(p, I, MPT)
                if o.candidate.is_consistent()]
        if not revs:
            continue
        R = rng.choice(revs)
        c = diff(R, I)
        hit = False
        for pv in space:
            B = PairValuation(lat, {"a": pv})
            if diff(R, B).leq_k(c):
                assert is_justified_revision(p, B, R, MPT).verified
                hit = True
        if hit:
            checked += 1


def test_classic_empty_program_fixes_database():
    from annrev import decode_classic, encode_classic
    prog, b_v = encode_classic([], {"a"}, ("a", "b"))
    outs = enumerate_revisions(prog, b_v, MPT)
    decoded = {decode_classic(o.candidate) for o in outs
               if decode_classic(o.candidate) is not None
               and o.necessary_change.is_consistent()}
    assert decoded == {frozenset({"a"})}
