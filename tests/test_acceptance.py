"""Acceptance suite.

One test per criterion; each prints a single CRITERION line so a `-s` run
reads as a checklist.  All comparisons are exact (lattice values are exact
rationals or finite elements); the only tolerance anywhere is the one-second
wall-clock budget of criterion 1.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from annrev import (
    FITTING,
    MPT,
    ClassicRule,
    PairValuation,
    Program,
    apply_change,
    apply_iso,
    decode_classic,
    diff,
    encode_classic,
    enumerate_revisions,
    is_justified_revision,
    is_model,
    is_smodel,
    join_transform,
    necessary_change,
    parse,
    parse_iso,
    preserves_conflation,
    reduct,
    rin,
    rout,
    tr1,
    tr2,
)
import classic_oracle
from helpers import (
    all_valuations,
    chain4,
    grow_to_model,
    old_program,
    powerset_pq,
    random_conflation_iso,
    random_new_program,
    random_old_program,
    random_universe,
    random_valuation,
    revision_set,
    valuation,
)

FIXTURES = Path(__file__).parent / "fixtures"
N_INSTANCES = 200


def load(name):
    return parse((FIXTURES / name).read_text())


def report(num, name, ok):
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_proposal_enumeration():
    doc = load("proposal.arp")
    lat = doc.lattice
    start = time.perf_counter()
    outs = enumerate_revisions(doc.program, doc.init, MPT)
    elapsed = time.perf_counter() - start
    expected = [
        valuation(lat, {"accept": ({"Ann", "Bob", "Pete"}, frozenset())}),
        valuation(lat, {"accept": (frozenset(), {"Bob", "Pete"})}),
    ]
    ok = [o.candidate for o in outs] == expected and elapsed < 1.0
    report(1, "experts-vote enumeration", ok)


def test_criterion_02_lights_verification():
    doc = load("lights.arp")
    out = is_justified_revision(doc.program, doc.init, doc.candidate, MPT)
    cand = doc.candidate
    exact = (cand["a"].pos.key == Fraction(0) and cand["a"].neg.key == Fraction(1)
             and cand["b"].pos.key == Fraction(1) and cand["b"].neg.key == Fraction(0))
    init_exact = (doc.init["a"].pos.key == Fraction(3, 10)
                  and doc.init["a"].neg.key == Fraction(7, 10)
                  and doc.init["b"].pos.key == Fraction(9, 10)
                  and doc.init["b"].neg.key == Fraction(1, 10))
    report(2, "light-signal verification", out.verified and exact and init_exact)


def test_criterion_03_fitting_accepts_non_model():
    doc = load("notmodel.arp")
    fit = is_justified_revision(doc.program, doc.init, doc.candidate, FITTING)
    mpt = is_justified_revision(doc.program, doc.init, doc.candidate, MPT)
    ok = fit.verified and not is_model(doc.program, doc.candidate) and not mpt.verified
    report(3, "fitting anomaly: revision is not a model", ok)


def test_criterion_04_fitting_join_sensitivity():
    merged = load("notmodel.arp")
    split = load("join_split.arp")
    lat = merged.lattice
    # the two programs are related by the join transformation (each document
    # carries its own lattice handle, so compare canonical rule text)
    rebuilt = join_transform(split.program)
    same_shape = ([str(r) for r in rebuilt.rules]
                  == [str(r) for r in merged.program.rules])
    b_i = merged.init

    fit_merged = revision_set(merged.program, b_i, FITTING)
    fit_split = revision_set(split.program, split.init, FITTING)
    b_r = valuation(lat, {"a": (frozenset(), frozenset()), "b": ({"p", "q"}, frozenset())})
    b_r_prime = valuation(split.lattice,
                          {"a": ({"p"}, frozenset()), "b": ({"p", "q"}, frozenset())})
    fitting_differs = (fit_merged == {b_r} and fit_split == {b_r_prime})

    def texts(vals):
        return {v.canonical_text() for v in vals}

    mpt_same = (texts(revision_set(merged.program, b_i, MPT))
                == texts(revision_set(split.program, split.init, MPT)))
    report(4, "fitting anomaly: join sensitivity",
           same_shape and fitting_differs and mpt_same)


def classic_revisions(rules, db, universe, semantics=MPT):
    prog, b_i = encode_classic(rules, db, universe)
    out = set()
    for o in enumerate_revisions(prog, b_i, semantics):
        decoded = decode_classic(o.candidate)
        if decoded is not None and o.necessary_change.is_consistent():
            out.add(decoded)
    return out


def test_criterion_05_classic_embedding():
    rules = [
        ClassicRule(rin("b"), (rout("c"),)),
        ClassicRule(rin("c"), (rin("a"), rout("b"))),
    ]
    universe = ("a", "b", "c")
    with_a = classic_revisions(rules, {"a"}, universe)
    empty = classic_revisions(rules, set(), universe)
    ok = with_a == {frozenset("ab"), frozenset("ac")} and empty == {frozenset("b")}
    report(5, "classic embedding", ok)


def random_classic_program(rng, universe):
    """1-6 unannotated revision rules over ``universe``, bodies of 0-2
    revision atoms."""
    def lit():
        return (rin if rng.random() < 0.5 else rout)(rng.choice(universe))
    return [ClassicRule(lit(), tuple(lit() for _ in range(rng.randint(0, 2))))
            for _ in range(rng.randint(1, 6))]


def test_criterion_05b_classic_embedding_matches_set_oracle():
    # The embedding against Marek and Truszczynski's definition on plain
    # sets, on 600 random programs of 1-5 atoms under both semantics.
    mismatches, sizes = [], set()
    for seed in (1, 2):
        rng = random.Random(seed)
        for _ in range(300):
            universe = tuple("abcde"[:rng.randint(1, 5)])
            rules = random_classic_program(rng, universe)
            db = {a for a in universe if rng.random() < 0.5}
            expected = classic_oracle.justified_revisions(rules, db, universe)
            sizes.add(min(len(expected), 2))
            for semantics in (MPT, FITTING):
                got = classic_revisions(rules, db, universe, semantics)
                if got != expected:
                    mismatches.append((seed, rules, db, semantics, got, expected))
    assert not mismatches, mismatches[:3]
    # programs with no revision, with one and with several all occur
    report(5, "classic embedding matches the set oracle", sizes == {0, 1, 2})


def test_criterion_06_linearity():
    rng = random.Random(601)
    lat = chain4()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 5)
        b_i = random_valuation(rng, lat, atoms)
        if revision_set(p, b_i, MPT) != revision_set(p, b_i, FITTING):
            violations += 1

    cex = load("linear_cex.arp")
    mpt_ok = is_justified_revision(cex.program, cex.init, cex.candidate, MPT).verified
    fit_bad = not is_justified_revision(cex.program, cex.init, cex.candidate, FITTING).verified
    sets_differ = (revision_set(cex.program, cex.init, MPT)
                   != revision_set(cex.program, cex.init, FITTING))
    report(6, "linearity: chain agreement, non-linear disagreement",
           violations == 0 and mpt_ok and fit_bad and sets_differ)


def test_criterion_07a_revisions_are_smodels():
    rng = random.Random(701)
    lat = powerset_pq()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 6)
        b_i = random_valuation(rng, lat, atoms)
        for o in enumerate_revisions(p, b_i, MPT):
            if not is_smodel(p, o.candidate) or not is_model(p, o.candidate):
                violations += 1
    report(7, "revisions are s-models", violations == 0)


def test_criterion_07b_self_revision_iff_smodel():
    rng = random.Random(702)
    lat = powerset_pq()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 6)
        b = grow_to_model(p, random_valuation(rng, lat, atoms))
        assert is_model(p, b)
        if is_smodel(p, b) != is_justified_revision(p, b, b, MPT).verified:
            violations += 1
    report(7, "model is self-revision iff s-model", violations == 0)


def test_criterion_07c_revisions_of_models_shrink():
    rng = random.Random(703)
    lat = powerset_pq()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 6)
        b_i = grow_to_model(p, random_valuation(rng, lat, atoms))
        for o in enumerate_revisions(p, b_i, MPT):
            if not o.candidate.leq_k(b_i):
                violations += 1
    report(7, "revisions of models shrink", violations == 0)


def test_criterion_07d_consistent_model_unique_self_revision():
    rng = random.Random(704)
    lat = powerset_pq()
    violations = 0
    done = 0
    while done < N_INSTANCES:
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 6)
        seed = random_valuation(rng, lat, atoms)
        consistent_seed = PairValuation(lat, {
            a: seed[a] if seed[a].is_consistent() else -seed[a] & seed[a]
            for a in atoms})
        b_i = grow_to_model(p, consistent_seed)
        if not b_i.is_consistent():
            continue
        if revision_set(p, b_i, MPT) != {b_i}:
            violations += 1
        done += 1
    report(7, "consistent model is its unique revision", violations == 0)


def test_criterion_07e_smodel_union():
    rng = random.Random(705)
    lat = powerset_pq()
    violations = 0
    premise_hits = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng, weights=((1, 3), (2, 1)))
        p1 = random_old_program(rng, lat, atoms, 4)
        p2 = random_old_program(rng, lat, atoms, 4)
        union = p1 + p2
        if len(atoms) == 1:
            candidates = all_valuations(lat, atoms)
        else:
            candidates = (random_valuation(rng, lat, atoms) for _ in range(40))
        for b in candidates:
            if is_smodel(p1, b) and is_smodel(p2, b):
                premise_hits += 1
                if not is_smodel(union, b):
                    violations += 1
    report(7, "s-model of both is s-model of union",
           violations == 0 and premise_hits >= N_INSTANCES)


def test_criterion_07f_added_evidence():
    rng = random.Random(706)
    lat = powerset_pq()
    violations = 0
    checked = 0
    while checked < N_INSTANCES:
        atoms = random_universe(rng, weights=((1, 3), (2, 2)))
        p = random_old_program(rng, lat, atoms, 4)
        b_i = random_valuation(rng, lat, atoms)
        revs = enumerate_revisions(p, b_i, MPT)
        if not revs:
            continue
        b_r = rng.choice(revs).candidate
        extra = None
        for _ in range(25):
            cand = random_old_program(rng, lat, atoms, 3)
            if is_smodel(p, b_r) and is_smodel(cand, b_r):
                extra = cand
                break
        if extra is None:
            extra = Program("old", lat, atoms, [])
        if not is_justified_revision(p + extra, b_i, b_r, MPT).verified:
            violations += 1
        checked += 1
    report(7, "added evidence keeps revisions", violations == 0)


def test_criterion_07g_meet_of_models_and_smodel_counterexample():
    rng = random.Random(707)
    lat = powerset_pq()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 6)
        b1 = grow_to_model(p, random_valuation(rng, lat, atoms))
        b2 = grow_to_model(p, random_valuation(rng, lat, atoms))
        if not is_model(p, b1 & b2):
            violations += 1

    cex = load("smodel_meet.arp")
    b1 = valuation(lat, {"a": ({"p"}, {"p"}), "b": ({"p"}, frozenset())})
    b2 = valuation(lat, {"a": ({"p"}, {"p"}), "b": (frozenset(), {"p"})})
    prog = Program("old", lat, cex.universe,
                   [r for r in _relabel_rules(cex.program, lat)])
    cex_ok = (is_smodel(prog, b1) and is_smodel(prog, b2)
              and not is_smodel(prog, b1 & b2))
    report(7, "meet of models; meet of s-models counterexample",
           violations == 0 and cex_ok)


def _relabel_rules(program, lat):
    """Rebuild rules over an equivalent lattice handle so fixture programs
    can meet locally built valuations."""
    from annrev import AnnotatedRevisionAtom, OldRule
    out = []
    for r in program.rules:
        def conv(a):
            return AnnotatedRevisionAtom(a.ratom, lat.element(a.ann.key))
        out.append(OldRule(conv(r.head), tuple(conv(b) for b in r.body)))
    return out


def test_criterion_08_example_of_multiple_revisions():
    p1 = load("ex_multi_p1.arp")
    p2 = load("ex_multi_p2.arp")
    p3 = load("ex_multi_p3.arp")
    oks = []
    for doc, expected_keys in (
            (p1, {(("q",), ("q",))}),
            (p2, {(("q",), ("q",)), ((), ("q",))}),
            (p3, {(("q",), ("q",)), ((), ("q",)), (("q",), ())})):
        lat = doc.lattice
        expected = {
            valuation(lat, {"a": (frozenset(x), frozenset(y))})
            for x, y in expected_keys}
        oks.append(revision_set(doc.program, doc.init, MPT) == expected)
    report(8, "inconsistent self-model revision sets", all(oks))


def test_criterion_09_boolean_minimality():
    rng = random.Random(901)
    lat = powerset_pq()
    violations = 0
    checked = 0
    while checked < N_INSTANCES:
        atoms = random_universe(rng, weights=((1, 3), (2, 2)))
        p = random_old_program(rng, lat, atoms, 5)
        seed = random_valuation(rng, lat, atoms)
        b_i = PairValuation(lat, {
            a: seed[a] if seed[a].is_consistent() else (seed[a] & -seed[a])
            for a in atoms})
        if not b_i.is_consistent():
            continue
        consistent_revisions = [
            o.candidate for o in enumerate_revisions(p, b_i, MPT)
            if o.candidate.is_consistent()]
        if not consistent_revisions:
            continue
        family = [
            diff(b, b_i) for b in all_valuations(lat, atoms)
            if b.is_consistent() and is_model(p, b)]
        for r in consistent_revisions:
            d = diff(r, b_i)
            if any(other.leq_k(d) and other != d for other in family):
                violations += 1
        checked += 1

    cex = load("minimality_cex.arp")
    lat_p = cex.lattice
    i_val = cex.init
    r1 = valuation(lat_p, {"a": ({"p"}, {"p"})})
    r2 = valuation(lat_p, {"a": ({"p"}, frozenset())})
    both_revise = (is_justified_revision(cex.program, i_val, r1, MPT).verified
                   and is_justified_revision(cex.program, i_val, r2, MPT).verified)
    d1, d2 = diff(r1, i_val), diff(r2, i_val)
    cex_ok = (both_revise
              and d1 == valuation(lat_p, {"a": ({"p"}, {"p"})})
              and d2 == valuation(lat_p, {"a": ({"p"}, frozenset())})
              and d2.leq_k(d1) and d1 != d2
              and not r1.is_consistent() and r2.is_consistent()
              and is_model(cex.program, r2))
    report(9, "boolean minimality with inconsistent counterexample",
           violations == 0 and cex_ok)


def test_criterion_10_shifting():
    rng = random.Random(1001)
    lat = powerset_pq()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng, weights=((1, 2), (2, 2)))
        p = random_new_program(rng, lat, atoms, 4)
        b_i = random_valuation(rng, lat, atoms)
        iso = random_conflation_iso(rng, lat, atoms)
        if not preserves_conflation(iso):
            violations += 1
            continue
        before = {apply_iso(iso, o.candidate) for o in enumerate_revisions(p, b_i, MPT)}
        after = {o.candidate for o in
                 enumerate_revisions(apply_iso(iso, p), apply_iso(iso, b_i), MPT)}
        if before != after:
            violations += 1

    doc = load("shift_cex.arp")
    iso = parse_iso((FIXTURES / "shift_cex.iso").read_text(), doc.lattice, doc.universe)
    lat_c = doc.lattice
    base_ok = is_justified_revision(doc.program, doc.init, doc.candidate, MPT).verified
    s_init, s_cand = apply_iso(iso, doc.init), apply_iso(iso, doc.candidate)
    s_prog = apply_iso(iso, doc.program)
    shifted = is_justified_revision(s_prog, s_init, s_cand, MPT)
    applied = apply_change(s_init, shifted.necessary_change)
    cex_ok = (not preserves_conflation(iso)
              and base_ok
              and not shifted.verified
              and applied == valuation(lat_c, {"a": ({"p"}, frozenset())})
              and s_cand == valuation(lat_c, {"a": ({"p"}, {"q"})}))
    report(10, "shifting with conflation preservation", violations == 0 and cex_ok)


def test_criterion_11_translations_preserve_revisions():
    rng = random.Random(1101)
    lat = powerset_pq()
    violations = 0
    for i in range(N_INSTANCES):
        atoms = random_universe(rng, weights=((1, 2), (2, 2)))
        b_i = random_valuation(rng, lat, atoms)
        if i % 2 == 0:
            p = random_old_program(rng, lat, atoms, 5)
            translated = tr1(p)
        else:
            p = random_new_program(rng, lat, atoms, 5)
            translated = tr2(p)
        if revision_set(p, b_i, MPT) != revision_set(translated, b_i, MPT):
            violations += 1
    report(11, "tr1/tr2 preserve revisions", violations == 0)


def test_criterion_12_fixpoint_bound():
    # Every check runs one fixpoint over the rules the reduct keeps and
    # returns its trace, one entry per productive step.
    rng = random.Random(1201)
    lat = powerset_pq()
    violations = 0
    for _ in range(N_INSTANCES):
        atoms = random_universe(rng)
        p = random_old_program(rng, lat, atoms, 6)
        necessary_change(p)
        b_i = random_valuation(rng, lat, atoms)
        b_r = random_valuation(rng, lat, atoms)
        bound = len(reduct(p, b_i, b_r).sources)
        for semantics in (MPT, FITTING):
            if len(is_justified_revision(p, b_i, b_r, semantics).trace) > bound:
                violations += 1
    report(12, "fixpoint stabilizes within #rules productive steps", violations == 0)
