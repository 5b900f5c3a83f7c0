"""Parsing, serialization, and round trips."""

import json
import random
import time
from pathlib import Path

import pytest

from annrev import (
    Document,
    DslLexError,
    DslSemanticError,
    DslSyntaxError,
    enumerate_revisions,
    parse,
    parse_iso,
    serialize,
)
from helpers import powerset_pq, random_new_program, random_old_program, random_valuation

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text()


def test_parse_proposal_fixture():
    doc = parse(fixture_text("proposal.arp"))
    assert doc.lattice.kind == "powerset"
    assert doc.universe == ("accept",)
    assert len(doc.program.rules) == 6
    assert doc.init is not None and doc.candidate is None


def test_parse_empty_program_block():
    doc = parse("lattice two\nuniverse { a }\nprogram { }\n")
    assert doc.program.rules == ()


def test_undeclared_atom_is_semantic_error():
    text = "lattice two\nuniverse { a }\nprogram { in(c):t <- . }\n"
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert "'c'" in str(err.value)
    assert err.value.line == 3


def test_unknown_block_is_syntax_error():
    with pytest.raises(DslSyntaxError):
        parse("lattice two\nuniverse { a }\nprogram { }\nmystery { }\n")


def test_unexpected_character_is_lex_error():
    with pytest.raises(DslLexError):
        parse("lattice two\nuniverse { a }\nprogram { } @\n")


def test_foreign_annotation_value():
    with pytest.raises(DslSemanticError):
        parse("lattice powerset { p }\nuniverse { a }\nprogram { in(a):{z} <- . }\n")
    with pytest.raises(DslSemanticError):
        parse("lattice two\nuniverse { a }\nprogram { in(a):{p} <- . }\n")


def test_invalid_complement_table_rejected_at_parse():
    text = ("lattice powerset { p } complement { {}: {}, {p}: {p} }\n"
            "universe { a }\nprogram { }\n")
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert "invalid lattice" in str(err.value)


def test_duplicate_blocks_rejected():
    with pytest.raises(DslSemanticError):
        parse("lattice two\nlattice two\nuniverse { a }\nprogram { }\n")
    with pytest.raises(DslSemanticError):
        parse("lattice two\nuniverse { a }\nprogram { }\nprogram { }\n")


def test_missing_program_rejected():
    with pytest.raises(DslSemanticError):
        parse("lattice two\nuniverse { a }\n")


def test_chain_values_parse_exactly():
    doc = parse("lattice chain unit\nuniverse { a }\nprogram { }\n"
                "init { a = <0.3, 7/10>. }\n")
    from fractions import Fraction
    assert doc.init["a"].pos.key == Fraction(3, 10)
    assert doc.init["a"].neg.key == Fraction(7, 10)
    assert "3/10" in serialize(doc.init) and "7/10" in serialize(doc.init)
    assert "0.3" not in serialize(doc.init)


def test_new_syntax_rules_parse():
    text = ("lattice powerset { p, q }\nsyntax new\nuniverse { a, b }\n"
            "program { a:<{p},{q}> <- b:<{p},{}>. }\n")
    doc = parse(text)
    assert doc.program.syntax == "new"
    rule = doc.program.rules[0]
    assert rule.head.atom == "a" and rule.body[0].atom == "b"


def test_mixed_syntax_is_rejected():
    text = ("lattice powerset { p }\nsyntax new\nuniverse { a }\n"
            "program { in(a):{p} <- . }\n")
    with pytest.raises((DslSyntaxError, DslSemanticError)):
        parse(text)


@pytest.mark.parametrize("name", [
    "proposal.arp", "lights.arp", "notmodel.arp", "join_split.arp",
    "linear_cex.arp", "ex_multi_p1.arp", "ex_multi_p2.arp", "ex_multi_p3.arp",
    "smodel_meet.arp", "minimality_cex.arp", "shift_cex.arp",
])
def test_fixture_round_trip(name):
    text = fixture_text(name)
    once = serialize(parse(text))
    again = serialize(parse(once))
    assert once == again


def test_random_document_round_trip():
    rng = random.Random(19)
    lat = powerset_pq()
    for _ in range(40):
        if rng.random() < 0.5:
            prog = random_old_program(rng, lat, ("a", "b"), 5, max_body=3)
            syntax = "old"
        else:
            prog = random_new_program(rng, lat, ("a", "b"), 5, max_body=3)
            syntax = "new"
        doc = Document(lat, syntax, ("a", "b"), prog,
                       init=random_valuation(rng, lat, ("a", "b")),
                       candidate=random_valuation(rng, lat, ("a", "b")))
        once = serialize(doc)
        assert serialize(parse(once)) == once


def test_custom_lattice_round_trip():
    text = ("lattice custom {\n"
            "  elements { bot, mid, top }\n"
            "  order { bot < mid, mid < top }\n"
            "  complement { bot: top, mid: mid, top: bot }\n"
            "}\n"
            "universe { a }\nprogram { in(a):mid <- . }\n")
    once = serialize(parse(text))
    assert serialize(parse(once)) == once


def test_level_chain_round_trip():
    text = ("lattice chain [lo < mid < hi]\nuniverse { a }\n"
            "program { in(a):mid <- out(a):lo. }\n")
    once = serialize(parse(text))
    assert serialize(parse(once)) == once


def test_iso_round_trip():
    text = fixture_text("shift_cex.arp")
    doc = parse(text)
    iso = parse_iso(fixture_text("shift_cex.iso"), doc.lattice, doc.universe)
    doc2 = Document(doc.lattice, doc.syntax, doc.universe, doc.program,
                    doc.init, doc.candidate, iso)
    once = serialize(doc2)
    assert "perm(q->r, r->q)" in once
    assert serialize(parse(once)) == once


def test_iso_entries_validate():
    doc = parse(fixture_text("shift_cex.arp"))
    with pytest.raises(DslSemanticError):
        parse_iso("iso { z: swap; }", doc.lattice, doc.universe)
    with pytest.raises(DslSemanticError):
        parse_iso("iso { a: perm(p->q); }", doc.lattice, doc.universe)  # not a bijection


def test_iso_without_default_must_cover_the_universe():
    doc = parse("lattice two\nuniverse { a, b, c }\nprogram { }\n")
    with pytest.raises(DslSemanticError) as exc:
        parse_iso("iso { b: swap; }", doc.lattice, doc.universe)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "iso has no entry for atom 'a' and no '*' default", 1, 1)
    with pytest.raises(DslSemanticError, match=r"^line 3, col 1: .*atom 'c'"):
        parse("lattice two\nuniverse { b, c, a }\niso { a: id; b: swap; }\nprogram { }\n")
    parse_iso("iso { a: id; b: swap; c: id; }", doc.lattice, doc.universe)
    parse_iso("iso { b: swap; *: id; }", doc.lattice, doc.universe)


def test_iso_star_default_and_composition():
    doc = parse("lattice powerset { p, q }\nuniverse { a, b }\nprogram { }\n")
    iso = parse_iso("iso { a: perm(p->q, q->p) swap; *: id; }",
                    doc.lattice, doc.universe)
    lat = doc.lattice
    from annrev import PairValue
    v = PairValue(lat.element({"p"}), lat.bot)
    # perm first, then swap: <{p}, {}> -> <{q}, {}> -> <{}, {q}>
    assert iso.map_for("a")(v) == PairValue(lat.bot, lat.element({"q"}))
    assert iso.map_for("b")(v) == v


def test_serialize_valuation_json():
    doc = parse(fixture_text("proposal.arp"))
    payload = json.loads(serialize(doc.init, "json"))
    assert payload == {"accept": ["{Pete}", "{Bob}"]}


def test_serialize_outcome_json():
    doc = parse(fixture_text("ex_multi_p2.arp"))
    out = enumerate_revisions(doc.program, doc.init)[0]
    payload = json.loads(serialize(out, "json"))
    assert payload["semantics"] == "mpt"
    assert payload["verified"] is True
    assert set(payload) == {"valuation", "necessary_change", "semantics", "verified", "trace"}


def test_serialization_orders_valuations_canonically():
    doc = parse("lattice two\nuniverse { b, a }\nprogram { }\n"
                "init { b = <t, f>. a = <f, t>. }\n")
    text = serialize(doc.init)
    assert text.index("a =") < text.index("b =")


@pytest.mark.parametrize("with_table", [False, True])
def test_twelve_label_powerset_parses_in_bounded_time(with_table):
    # PowersetLattice.MAX_LABELS is 12; validation must stay far below the
    # cubic scan there.  The table is S -> full - sigma(S) for the label
    # involution swapping l0<->l1, l2<->l3, ... (about 180 KB of text).
    labels = [f"l{i}" for i in range(12)]
    decl = "lattice powerset { " + ", ".join(labels) + " }"
    if with_table:
        def fmt(s):
            return "{" + ",".join(labels[i] for i in range(12) if s >> i & 1) + "}"
        swapped = [(s & 0x555) << 1 | (s & 0xAAA) >> 1 for s in range(1 << 12)]
        decl += " complement { " + ", ".join(
            f"{fmt(s)}: {fmt(0xFFF ^ swapped[s])}" for s in range(1 << 12)) + " }"
    t0 = time.perf_counter()
    doc = parse(decl + "\nuniverse { a }\nprogram { }\n")
    assert time.perf_counter() - t0 < 5.0
    assert len(doc.lattice.elements()) == 4096
    assert doc.lattice.has_custom_complement == with_table
