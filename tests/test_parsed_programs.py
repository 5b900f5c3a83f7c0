"""Programs the parser builds against programs built from rule objects.

The parser hands ``Program`` its rules as literal lists, deduplicated on
those literals, and the rule objects are built only when ``rules`` is
read.  The programs here are generated as literal descriptions, written
out as text with varied spellings and repeated rules, and parsed.  The
same descriptions also become rule objects through the ``Program``
constructor, which is the reference.
"""

import contextlib
import io
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annrev import (
    FITTING,
    IN,
    MPT,
    NEW,
    OLD,
    OUT,
    AnnotatedRevisionAtom,
    LevelChain,
    NewRule,
    OldRule,
    PairAnnotatedAtom,
    PairValue,
    Program,
    RevisionAtom,
    TwoLattice,
    UnitChain,
    is_justified_revision,
    model_status,
    necessary_change,
    parse,
    theta_inv,
    tp_heads,
)
from annrev import syntax as syntax_module
from annrev.cli import main
from annrev.textio import _lattice_decl_text, serialize_document
from helpers import chain_product, powerset_pq, powerset_pqr_custom, unit_quarters

FIXTURES = Path(__file__).parent / "fixtures"

LATTICES = {
    "two": TwoLattice,
    "chain": lambda: LevelChain(("lo", "mid", "hi")),
    "powerset": powerset_pq,
    "pqr_complement": powerset_pqr_custom,
    "grid": lambda: chain_product(3, 3),
    "unit": UnitChain,
}


def _values(lat):
    """The annotations a generated document uses, in a fixed order: every
    element of a finite lattice, the quarters on the unit chain."""
    return unit_quarters(lat) if lat.kind == "unit" else lat.elements()


@st.composite
def _documents(draw):
    """``(kind, syntax, atoms, rules, init, candidate, seed)``: a rule is a
    list of literals ``(polarity, atom, i, j)``, head first, annotated with
    value ``i`` (revision-atom syntax) or the pair of values ``i`` and
    ``j``; the valuations are lists of value-index pairs.  Some rules are
    drawn twice, as they are or with their polarities flipped, and the seed
    picks the spelling of each annotation."""
    kind = draw(st.sampled_from(sorted(LATTICES)))
    syntax = draw(st.sampled_from((OLD, NEW)))
    atoms = ("a", "b", "c")[:draw(st.integers(1, 3))]
    value = st.integers(0, len(_values(LATTICES[kind]())) - 1)
    polarity = st.sampled_from((IN, OUT)) if syntax == OLD else st.none()
    literal = st.tuples(polarity, st.sampled_from(atoms), value, value)
    rules = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=8))
    if rules:
        # Copies, some with every polarity flipped: on bottom annotations
        # such a copy has the same pair codes as its rule and is another rule.
        flip = {IN: OUT, OUT: IN, None: None}
        copies = draw(st.lists(st.tuples(st.sampled_from(rules), st.booleans()), max_size=3))
        rules += [[(flip[pol] if flipped else pol, *rest) for pol, *rest in rule]
                  for rule, flipped in copies]
    pairs = st.lists(st.tuples(value, value), min_size=len(atoms), max_size=len(atoms))
    return (kind, syntax, atoms, rules, draw(pairs), draw(pairs),
            draw(st.integers(0, 2**32 - 1)))


def _document_text(lat, syntax, atoms, rules, init, cand, rng):
    """The document, each annotation spelled one of the ways that parse to
    it: label sets in any order, unit-chain quarters as fractions or
    decimals."""
    vals = _values(lat)

    def ann(i):
        e = vals[i]
        if lat.kind == "powerset" and rng.random() < 0.5:
            labels = sorted(e.key)
            rng.shuffle(labels)
            return "{ " + ", ".join(labels) + " }"
        if lat.kind == "unit" and rng.random() < 0.5:
            return str(float(e.key))
        return repr(e)

    def literal(pol, a, i, j):
        return f"{pol}({a}):{ann(i)}" if syntax == OLD else f"{a}:<{ann(i)}, {ann(j)}>"

    def valuation(name, pairs):
        entries = "".join(f"  {a} = <{ann(i)}, {ann(j)}>.\n" for a, (i, j) in zip(atoms, pairs))
        return f"{name} {{\n{entries}}}\n"

    lines = [f"{literal(*head)} <- {', '.join(literal(*b) for b in body)}."
             for head, *body in rules]
    return (f"{_lattice_decl_text(lat)}\nsyntax {syntax}\n"
            f"universe {{ {', '.join(atoms)} }}\n"
            "program {\n" + "".join(f"  {line}\n" for line in lines) + "}\n"
            + valuation("init", init) + valuation("candidate", cand))


def _reference(lat, syntax, atoms, rules):
    """The generated rules as rule objects, through the constructor."""
    vals = _values(lat)

    def literal(pol, a, i, j):
        if syntax == OLD:
            return AnnotatedRevisionAtom(RevisionAtom(pol, a), vals[i])
        return PairAnnotatedAtom(a, PairValue(vals[i], vals[j]))

    rule = OldRule if syntax == OLD else NewRule
    return Program(syntax, lat, atoms, [
        rule(literal(*head), tuple(literal(*b) for b in body)) for head, *body in rules])


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_parsed_programs_agree_with_constructed_ones(drawn):
    kind, syntax, atoms, rules, init, cand, seed = drawn
    text = _document_text(LATTICES[kind](), syntax, atoms, rules, init, cand,
                          random.Random(seed))
    doc = parse(text)
    program, built = doc.program, _reference(doc.lattice, syntax, atoms, rules)
    n = len(program)
    # The engine encodes the parsed literals before any rule object exists;
    # the constructed program records the literals of its rule objects.
    assert necessary_change(program) == necessary_change(built)
    for target in (doc.init, doc.candidate):
        assert model_status(program, target) == model_status(built, target)
    for semantics in (MPT, FITTING):
        got, want = (is_justified_revision(p, doc.init, doc.candidate, semantics)
                     for p in (program, built))
        assert (got.verified, got.necessary_change, got.steps) == (
            want.verified, want.necessary_change, want.steps)
    assert len(built) == n
    assert program._literals == built._literals
    assert program == built
    rebuilt = Program(doc.syntax, doc.lattice, doc.universe, program.rules)
    assert program == rebuilt and len(rebuilt) == n
    # A parse makes its own lattice handle, and programs over different
    # handles never compare equal, so the round trip compares texts.
    canonical = serialize_document(doc)
    again = parse(canonical)
    assert len(again.program) == n and serialize_document(again) == canonical


def test_old_syntax_rules_differing_only_in_polarity_stay_distinct():
    # ``in(a):bot`` and ``out(a):bot`` have the same pair code, 0, so the
    # dedup keys on the literals, polarity included, on both constructors.
    for lattice, bot in (("two", "f"), ("chain unit", "0")):
        rules = [f"in(a):{bot} <- .", f"out(a):{bot} <- .", f"in(a):{bot} <- in(a):{bot}.",
                 f"in(a):{bot} <- out(a):{bot}.", f"out(a):{bot} <- ."]
        program = parse(f"lattice {lattice}\nuniverse {{ a }}\nprogram {{\n"
                        + "".join(f"  {r}\n" for r in rules) + "}\n").program
        lat = program.lattice
        built = Program(OLD, lat, ("a",), [
            OldRule(head, tuple(body)) for head, *body in (
                [AnnotatedRevisionAtom(RevisionAtom(pol, "a"), lat.bot) for pol in pols]
                for pols in ([IN], [OUT], [IN, IN], [IN, OUT], [OUT]))])
        for p in (program, built):
            assert len(p) == 4
            assert [str(r) for r in p.rules] == rules[:4]
        assert program._literals == built._literals
        assert program == built and hash(program) == hash(built)


def _count_rule_builds(monkeypatch):
    """A list that gains one entry per rule object ``Program.rules`` builds."""
    built = []
    build = syntax_module._build_rule

    def counting(syntax, lits):
        built.append(lits)
        return build(syntax, lits)

    monkeypatch.setattr(syntax_module, "_build_rule", counting)
    return built


FIXTURE_PATHS = sorted(FIXTURES.glob("*.arp")) + sorted(FIXTURES.glob("kinds/*.arp"))


@pytest.mark.parametrize("argv", [
    ["validate"], ["nc"], ["check"], ["verify", "--semantics", "both"], ["diff"],
    ["revise", "--semantics", "both"],
], ids=lambda argv: argv[0])
def test_engine_commands_build_no_rule_objects(monkeypatch, argv):
    built = _count_rule_builds(monkeypatch)
    for path in FIXTURE_PATHS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([argv[0], str(path), *argv[1:], "--format", "json"]) in (0, 1, 2)
    assert built == []


@pytest.mark.parametrize("argv", [
    ["translate", "--to", "old"], ["translate", "--to", "new"],
    ["shift", "--iso", str(FIXTURES / "shift_cex.iso")],
], ids=["translate-old", "translate-new", "shift"])
def test_rewriting_commands_build_each_rule_once(monkeypatch, argv):
    built = _count_rule_builds(monkeypatch)
    path = FIXTURES / "shift_cex.arp"
    rules = len(parse(path.read_text(encoding="utf-8")).program)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([argv[0], str(path), *argv[1:]]) == 0
    assert len(built) == rules


def test_length_equality_hash_and_union_build_no_rule_objects(monkeypatch):
    built = _count_rule_builds(monkeypatch)
    for path in FIXTURE_PATHS:
        text = path.read_text(encoding="utf-8")
        program, again = parse(text).program, parse(text).program
        assert program != again  # each parse makes its own lattice handle
        union = program + program
        assert union == program and hash(union) == hash(program)
        assert len(union) == len(program) == len(program._literals)
        assert union + union == union
    assert built == []


def test_rules_are_built_once_on_first_read(monkeypatch):
    built = _count_rule_builds(monkeypatch)
    doc = parse((FIXTURES / "proposal.arp").read_text(encoding="utf-8"))
    program, B = doc.program, theta_inv(doc.init)
    assert len(program) == 6
    necessary_change(program)
    assert built == []
    heads = tp_heads(program, B)
    assert len(built) == 6
    assert program.rules is program.rules
    assert tp_heads(program, B) == heads and len(built) == 6


def test_concurrent_first_reads_see_equal_rules():
    # Threads that read ``rules`` of a fresh parsed program at once may each
    # build the tuple; every one of them gets the rules of the text.
    text = (FIXTURES / "shift_cex.arp").read_text(encoding="utf-8")
    want = [str(r) for r in parse(text).program.rules]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            program = parse(text).program
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(lambda _: program.rules, range(8), timeout=30))
            assert all([str(r) for r in rules] == want for rules in seen)
            assert all(rules == program.rules for rules in seen)
    finally:
        sys.setswitchinterval(interval)
