"""Parsing, serialization, and round trips."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annrev import (
    FITTING,
    MPT,
    NEW,
    OLD,
    Document,
    DslLexError,
    DslSemanticError,
    DslSyntaxError,
    PairValuation,
    Program,
    TwoLattice,
    UnitChain,
    apply_change,
    enumerate_revisions,
    is_justified_revision,
    necessary_change,
    parse,
    parse_iso,
    serialize,
)
from annrev import textio
from annrev.textio import (
    _Parser,
    _check_characters,
    _json_text,
    _line_col,
    outcome_to_json,
    serialize_document,
    revisions_to_json,
    valuation_to_json,
)
from helpers import (
    Token,
    chain4,
    chain_product,
    deep_chain_program,
    oracle_lex,
    powerset_pq,
    powerset_pqr_custom,
    random_new_program,
    random_old_program,
    random_valuation,
    unit_quarters,
)

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


def test_iso_drops_a_default_that_no_atom_uses():
    # The q<->r permutation breaks conflation over shift_cex's complement;
    # only an atom that falls back on the default brings it into play.
    text = fixture_text("shift_cex.arp")
    spec = "iso { a: id; *: perm(q->r, r->q); }"
    doc = parse(text)
    iso = parse_iso(spec, doc.lattice, doc.universe)
    assert iso.default is None and iso.preserves_conflation()
    once = serialize(Document(doc.lattice, doc.syntax, doc.universe, doc.program,
                              doc.init, doc.candidate, iso))
    assert "iso {\n  a: id;\n}" in once and "*:" not in once
    wide = parse(text.replace("universe { a }", "universe { a, b }"))
    iso = parse_iso(spec, wide.lattice, wide.universe)
    assert iso.default is not None and not iso.preserves_conflation()


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


def test_iso_composition_applies_left_to_right():
    doc = parse("lattice powerset { p, q, r }\nuniverse { a }\nprogram { }\n")
    iso = parse_iso("iso { a: perm(p->q, q->r, r->p) perm(q->r, r->q); }",
                    doc.lattice, doc.universe)
    lat = doc.lattice
    from annrev import PairValue
    # p->q first, then q->r; the reverse order would give <{q}, {}>
    v = PairValue(lat.element({"p"}), lat.bot)
    assert iso.map_for("a")(v) == PairValue(lat.element({"r"}), lat.bot)


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


def _kind(tok):
    if not tok:
        return "eof"
    if tok[0].isdecimal():
        return "number"
    return "ident" if tok[0].isalpha() or tok[0] == "_" else "sym"


def _lex_result(text):
    """``(kind, text, line, col)`` per token that the parser's cursor lexes
    from ``text``, up to and with the eof token, or the text of the
    ``DslLexError`` that the whole-text character check raises."""
    try:
        _check_characters(text)
    except DslLexError as e:
        return str(e)
    p, out = _Parser(text), []
    while True:
        t = p.peek()
        out.append(Token(_kind(t), t, *_line_col(text, p.at)))
        if not t:
            return out
        p.advance()


def _oracle_result(text):
    try:
        return oracle_lex(text)
    except DslLexError as e:
        return str(e)


def _assert_lexes_like_oracle(text):
    got, want = _lex_result(text), _oracle_result(text)
    if got != want and isinstance(got, list) and isinstance(want, list):
        # The oracle does not advance the column over a comment, so its
        # eof after a final comment with no newline sits at the '#'.
        last = text[text.rfind("\n") + 1:]
        assert got[:-1] == want[:-1]
        assert want[-1] == ("eof", "", got[-1].line, last.index("#") + 1)
        assert got[-1].col == len(last) + 1
        return
    assert got == want


def test_lexer_matches_character_oracle():
    rng = random.Random(23)
    docs = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.arp"))]
    docs.append(fixture_text("shift_cex.iso"))
    pieces = [chr(c) for c in range(128)] + [
        "é", "٣", " ", "\n", "#", "<-", "->", "1.5", "in(a)", "0.", "x_1"]
    for text in docs:
        _assert_lexes_like_oracle(text)
        _assert_lexes_like_oracle(text.rstrip("\n") + "  # trailing comment")
    for _ in range(20000):
        _assert_lexes_like_oracle(
            "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12))))
    for _ in range(2000):
        text = rng.choice(docs)
        k = rng.randrange(len(text) + 1)
        _assert_lexes_like_oracle(
            text[:k] + rng.choice(pieces) + text[k + rng.randint(0, 3):])


# A token, or a comment, which respacing leaves whole.  The split follows
# the document language's tokens but is written out here on its own.
_SPAN = re.compile(r"#[^\n]*|[^\W\d]\w*|\d+(?:\.\d+)?|<-|->|\S")
_GAPS = (" ", "\t", "\n", "\n\n    ", " # a comment\n", "#\n", "  #{<,>}.\n  ")


def _respaced(text, rng, rate):
    """``text`` with a blank, a line break or a comment put in at a share
    ``rate`` of its token boundaries, inside literals, pairs and numerals
    too; the tokens stay the same."""
    cuts = sorted({i for m in _SPAN.finditer(text) if m.group()[0] != "#" for i in m.span()})
    out, prev = [], 0
    for i in cuts:
        if rng.random() < rate:
            out += (text[prev:i], rng.choice(_GAPS))
            prev = i
    out.append(text[prev:])
    return "".join(out)


def _generated_texts(rng):
    """A random document in each syntax on every lattice kind, with some
    unit-chain fractions written as decimals."""
    for lat in (TwoLattice(), chain4(), powerset_pq(), powerset_pqr_custom(),
                chain_product(3, 3), UnitChain()):
        els = unit_quarters(lat) if lat.kind == "unit" else None
        atoms = ("a", "b", "c")
        for syntax, gen in ((OLD, random_old_program), (NEW, random_new_program)):
            p = gen(rng, lat, atoms, 6, els=els)
            text = serialize_document(Document(
                lat, syntax, atoms, p, random_valuation(rng, lat, atoms, els=els),
                random_valuation(rng, lat, atoms, els=els)))
            yield re.sub(r"(\d+)/(\d+)", lambda m: rng.choice(
                (m.group(), str(int(m.group(1)) / int(m.group(2))))), text)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_blanks_and_comments_between_tokens_change_nothing(seed):
    # The parser reads most of a document a construct at a time and falls
    # back to token-wise reads where a comment stands inside one; either
    # way the document is the same.
    rng = random.Random(seed)
    fixtures = sorted(FIXTURES.glob("*.arp")) + sorted(FIXTURES.glob("kinds/*.arp"))
    texts = [p.read_text(encoding="utf-8") for p in fixtures] + list(_generated_texts(rng))
    for text in texts:
        want = parse(text)
        for rate in (0.1, 0.5, 1.0):
            got = parse(_respaced(text, rng, rate))
            assert serialize_document(got) == serialize_document(want)
            assert (serialize(necessary_change(got.program))
                    == serialize(necessary_change(want.program)))


_DECLARATION_WORDS = {"lattice", "two", "powerset", "chain", "unit", "custom", "syntax",
                      "old", "new", "universe", "program", "init", "candidate", "iso"}


def test_a_clean_document_is_read_without_token_wise_lexing(monkeypatch):
    # Every lattice declaration, rule literal (a fact's ``<- .`` with it),
    # valuation entry and first-seen annotation of a document without
    # comments inside them is read in one match: the cursor lexes only the
    # words that open and fill the top-level declarations, the braces of the
    # program and valuation blocks, and the end of the text.  An iso block
    # is read token-wise, so what follows its keyword is not counted.
    lexed = []

    class CountingNext:
        def match(self, text, pos):
            m = next_match(text, pos)
            lexed.append(m.group(1) or "")
            return m
    next_match = textio._NEXT.match
    monkeypatch.setattr(textio, "_NEXT", CountingNext())
    fixtures = sorted(FIXTURES.glob("*.arp")) + sorted(FIXTURES.glob("kinds/*.arp"))
    texts = [p.read_text(encoding="utf-8") for p in fixtures]
    for seed in range(4):
        texts += _generated_texts(random.Random(seed))
    for text in texts:
        lexed.clear()
        parse(text)
        if "iso" in lexed:
            del lexed[lexed.index("iso") + 1:]
        blocks = sum(t in ("program", "init", "candidate") for t in lexed)
        assert set(lexed) <= _DECLARATION_WORDS | {"{", "}", ""}, (text, lexed)
        assert lexed.count("{") == lexed.count("}") == blocks, (text, lexed)
        assert lexed[-1] in ("", "iso")


def test_a_comment_hides_the_rest_of_its_line():
    # A construct read in one match must not end a comment early and read
    # the rest of its line as tokens.
    pq = "lattice powerset { p, q }\nuniverse { a, b }\n"
    for text, message in [
            (pq + "program {\n  in(a):{q} <- #in(a):{q}.\n}\n",
             "line 5, col 1: expected 'in' or 'out', found '}'"),
            ("lattice two\nuniverse #{ a }\nprogram { }\n",
             "line 3, col 1: expected '{', found 'program'")]:
        with pytest.raises(DslSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == message
    doc = parse("lattice powerset { p, q }\nsyntax new\nuniverse { a, b }\nprogram {\n"
                "  a:<{p}, {q}> <- #b:<{p}, {}>.\n  .\n}\n"
                "init {\n  a = <{p}, {q}>.\n  #b = <{p}, {}>.\n}\n")
    assert [str(r) for r in doc.program.rules] == ["a:<{p},{q}> <- ."]
    assert repr(doc.init["b"]) == "<{}, {}>"
    doc = parse("lattice chain unit\nuniverse { a }\n"
                "program { in(a):1 <- #in(a):1/2.\n in(a):1/2, in(a):0.5.\n}\n")
    assert [str(r) for r in doc.program.rules] == ["in(a):1 <- in(a):1/2, in(a):1/2."]


_LONG_GAPS = r'''
import sys, time
from annrev.textio import DslSyntaxError, parse
gaps = [" " * 200, "\r\n\t " * 50, "   # note\r\n  " * 15]
table = ", ".join(f"{{k{i}}}: {{k{i}}}" for i in range(5000))
order = ", ".join(["lo < hi"] * 5000)
t0 = time.perf_counter()
for g in gaps:
    for text in [
            "lattice two\nuniverse { a }\nprogram {\n  in(a):t <-" + g + ".\n" + g + "}\n"
            "init {\n  a = <f," + g + "t>.\n" + g + "}\n",
            "lattice powerset { p, q }\nsyntax new\nuniverse { a }\nprogram {\n"
            "  a:<{p" + g + "}, {}> <-" + g + ".\n" + g + "}\ninit {" + g + "}\n",
            "lattice chain unit\nuniverse { a }\nprogram {\n  in(a):1" + g + "/ 2 <-"
            + g + "in(a):1 / 2" + g + ",\n" + g + ".\n" + g + "}\n",
            "lattice chain [lo" + g + "<" + g + "mid <" + g + "hi" + g + "]" + g
            + "universe { a }\nprogram { }\n",
            "lattice powerset { p, q }" + g + "complement" + g + "{" + g + "{}:" + g
            + "{p, q}," + g + "{p" + g + "}: {q}, {q}:" + g + "{p}, {p, q}: {}" + g + "}"
            + g + "universe { a }\nprogram { }\n",
            "lattice custom" + g + "{" + g + "elements" + g + "{ lo," + g + "hi }" + g
            + "order" + g + "{" + g + "lo" + g + "<" + g + "hi," + g + "}" + g + "complement"
            + g + "{ lo:" + g + "hi," + g + "hi" + g + ": lo" + g + "}" + g + "}" + g
            + "universe { a }\nprogram { }\n"]:
        parse(text)
# Unterminated 5,000-entry blocks: each pattern fails at the end of the
# block, and the token-wise read reports where it ends.
for text, message in [
        ("lattice powerset { p } complement { " + table + "\nuniverse { a }\n",
         "line 2, col 1: expected '}', found 'universe'"),
        ("lattice custom {\n  elements { lo, hi }\n  order { " + order
         + "\n  complement { lo: hi, hi: lo }\n}\n",
         "line 4, col 3: expected '}', found 'complement'")]:
    try:
        parse(text)
    except DslSyntaxError as e:
        assert str(e) == message, str(e)
    else:
        raise AssertionError("parsed")
print(time.perf_counter() - t0)
'''


def test_long_runs_of_blanks_and_comments_parse_in_linear_time():
    # The one-match patterns are expected to fail before every ``}``,
    # before the ``.`` of an empty body after a comment, at a comment inside
    # a lattice declaration and at the end of an unterminated block; a
    # pattern that could split a run of blanks several ways would
    # backtrack through every split, 2**n of them for n blanks.  A child
    # process, so that a regression fails the test instead of hanging it.
    src = str(Path(parse.__code__.co_filename).parents[1])
    out = subprocess.run([sys.executable, "-c", _LONG_GAPS], capture_output=True, text=True,
                         timeout=60, check=True, env={**os.environ, "PYTHONPATH": src})
    assert float(out.stdout) < 2.0


_HEAD = "lattice two\nuniverse { a }\n"
_UNIT = "lattice chain unit\nuniverse { a }\n"
_EMPTY = "universe { a }\nprogram { }\n"
_LO_HI = "lattice custom {\n  elements { lo, hi }\n"


@pytest.mark.parametrize("text, error, message", [
    (_HEAD + "program { } @\n", DslLexError, "line 3, col 13: unexpected character '@'"),
    (_UNIT + "program {\n  in(a):² <- .\n}\n", DslLexError,
     "line 4, col 9: unexpected character '²'"),
    (_UNIT + "program { in(a):1² <- . }\n", DslLexError,
     "line 3, col 18: unexpected character '²'"),
    ("lattice two\nuniverse { ½ }\n", DslLexError, "line 2, col 12: unexpected character '½'"),
    ("lattice two\nuniverse a\n", DslSyntaxError, "line 2, col 10: expected '{', found 'a'"),
    ("lattice two\nuniverse { a", DslSyntaxError,
     "line 2, col 13: expected '}', found 'end of input'"),
    ("lattice two\nuniverse { , }\n", DslSyntaxError, "line 2, col 12: expected a name, found ','"),
    ("lattice lumpy\n", DslSyntaxError, "line 1, col 9: unknown lattice kind 'lumpy'"),
    (_UNIT + "program { in(a):1/0.5 <- . }\n", DslSyntaxError,
     "line 3, col 19: expected an integer denominator"),
    (_HEAD + "program { in(a): <- . }\n", DslSyntaxError,
     "line 3, col 18: expected an annotation, found '<-'"),
    (_HEAD + "program { inn(a):t <- . }\n", DslSyntaxError,
     "line 3, col 11: expected 'in' or 'out', found 'inn'"),
    (_HEAD + "iso { a: ; }\n", DslSyntaxError,
     "line 3, col 10: expected an isomorphism: id, swap, or perm(...)"),
    ("{ }\n", DslSyntaxError, "line 1, col 1: expected a declaration, found '{'"),
    (_HEAD + "mystery { }\n", DslSyntaxError, "line 3, col 1: unknown block 'mystery'"),
    # The eof column after a final comment is the true end of the line.
    (_HEAD + "program { # end", DslSyntaxError,
     "line 3, col 16: expected 'in' or 'out', found 'end of input'"),
    # The whole text is lexed first, so a bad character anywhere wins over
    # an earlier syntax error, and the first bad character in the text is
    # the one reported.
    ("lattice two\nuniverse a\nprogram { } @\n", DslLexError,
     "line 3, col 13: unexpected character '@'"),
    ("lattice two\nuniverse { a } ~\nprogram { } @ $ ! ² %\n", DslLexError,
     "line 2, col 16: unexpected character '~'"),
    ("lattice two @\nuniverse { a } @\n", DslLexError,
     "line 1, col 13: unexpected character '@'"),
    # Lattice declarations read in one match report what the token-wise
    # reads report, with or without a comment inside the block.
    ("lattice powerset { p } complement { {}: {p}, {p}: {}, { }: {p} }\n" + _EMPTY,
     DslSemanticError, "line 1, col 55: duplicate complement entry"),
    ("lattice powerset { p } complement { {}: {p}, # note\n  {p}: {}, { }: {p} }\n" + _EMPTY,
     DslSemanticError, "line 2, col 12: duplicate complement entry"),
    ("lattice chain [lo < mid < lo]\n" + _EMPTY, DslSemanticError,
     "line 1, col 9: duplicate level names"),
    ("lattice chain [lo < mid # note\n  < lo]\n" + _EMPTY, DslSemanticError,
     "line 1, col 9: duplicate level names"),
    ("lattice chain [lo < ² < hi]\n" + _EMPTY, DslLexError,
     "line 1, col 21: unexpected character '²'"),
    ("lattice chain [lo < # note\n  ² < hi]\n" + _EMPTY, DslLexError,
     "line 2, col 3: unexpected character '²'"),
    (_LO_HI + "  order { lo < mid }\n  complement { lo: hi, hi: lo }\n}\n" + _EMPTY,
     DslSemanticError, "line 1, col 9: order pair ('lo', 'mid') uses unknown elements"),
    (_LO_HI + "  order { # note\n    lo < mid }\n  complement { lo: hi, hi: lo }\n}\n"
     + _EMPTY, DslSemanticError,
     "line 1, col 9: order pair ('lo', 'mid') uses unknown elements"),
    (_LO_HI + "  order { lo < hi }\n  complement { lo: hi, hi: lo, lo: lo }\n}\n" + _EMPTY,
     DslSemanticError, "line 4, col 32: duplicate complement entry for 'lo'"),
    (_LO_HI + "  order { lo < hi }\n  complement { lo: hi, hi: lo, # note\n    lo: lo }\n}\n"
     + _EMPTY, DslSemanticError, "line 5, col 5: duplicate complement entry for 'lo'"),
    # The checks that every top-level word shares.
    ("lattice two\nsyntax old\nsyntax new\n", DslSemanticError,
     "line 3, col 1: duplicate syntax declaration"),
    (_HEAD + "universe { b }\n", DslSemanticError, "line 3, col 1: duplicate universe declaration"),
    (_HEAD + "program { }\nprogram { }\n", DslSemanticError,
     "line 4, col 1: duplicate program block"),
    (_HEAD + "program { }\ncandidate { }\ncandidate { }\n", DslSemanticError,
     "line 5, col 1: duplicate candidate block"),
    (_HEAD + "program { }\niso { *: id; }\niso { *: id; }\n", DslSemanticError,
     "line 5, col 1: duplicate iso block"),
    (_HEAD + "program { }\nsyntax new\n", DslSemanticError,
     "line 4, col 1: syntax declaration must precede the program"),
    (_EMPTY, DslSemanticError, "line 2, col 1: program needs lattice and universe declarations first"),
    ("lattice two\ninit { }\n", DslSemanticError,
     "line 2, col 1: init needs lattice and universe declarations first"),
    ("candidate { }\n", DslSemanticError,
     "line 1, col 1: candidate needs lattice and universe declarations first"),
    ("lattice two\niso { *: id; }\n", DslSemanticError,
     "line 2, col 1: iso needs lattice and universe declarations first"),
    ("universe { a }\n", DslSemanticError, "missing lattice declaration"),
    ("lattice two\n", DslSemanticError, "missing universe declaration"),
    (_HEAD, DslSemanticError, "missing program block"),
    ("lattice two\nsyntax newer\n", DslSemanticError,
     "line 2, col 8: syntax must be 'old' or 'new', got 'newer'"),
    # Annotations of the wrong kind, and annotations that the token-wise
    # reader reads because a comment stands inside their literal.
    (_HEAD + "program { in(a):{p} <- . }\n", DslSemanticError,
     "line 3, col 17: set annotations need a powerset lattice"),
    (_HEAD + "program { in(a):1 <- . }\n", DslSemanticError,
     "line 3, col 17: numeric annotations need the unit chain lattice"),
    (_UNIT + "program { in(a):t <- . }\n", DslSemanticError,
     "line 3, col 17: expected a rational between 0 and 1"),
    ("lattice powerset { p }\nuniverse { a }\nprogram { in(a):{p, # note\n  z} <- . }\n",
     DslSemanticError, "line 3, col 17: unknown labels ['z']"),
    ("lattice chain [lo < hi]\nuniverse { a }\nprogram { in(a): # note\n  mid <- . }\n",
     DslSemanticError, "line 4, col 3: unknown chain level 'mid'"),
    (_UNIT + "program { in(a):3 # note\n  / 2 <- . }\n", DslSemanticError,
     "line 3, col 17: chain value 3/2 outside [0, 1]"),
    (_UNIT + "program { in(a):1 / # note\n  0 <- . }\n", DslSemanticError,
     "line 4, col 3: zero denominator"),
    # Permutations that do not give an isomorphism.
    ("lattice powerset { p, q }\n" + _EMPTY + "iso { *: perm(p->r); }\n", DslSemanticError,
     "line 4, col 10: perm mentions unknown label 'r'"),
    ("lattice chain [lo < hi]\n" + _EMPTY + "iso { *: perm(lo->mid); }\n", DslSemanticError,
     "line 4, col 10: perm mentions unknown element 'mid'"),
    ("lattice powerset { p, q }\n" + _EMPTY + "iso { *: perm(p->q); }\n", DslSemanticError,
     "line 4, col 10: perm is not a permutation of the labels"),
    ("lattice chain [lo < hi]\n" + _EMPTY + "iso { *: perm(lo->hi); }\n", DslSemanticError,
     "line 4, col 10: perm is not a permutation of the elements"),
    (_UNIT + "program { }\niso { *: perm(a->b); }\n", DslSemanticError,
     "line 4, col 10: perm is not supported on the unit chain"),
    ("lattice chain [lo < mid < hi]\n" + _EMPTY + "iso { *: perm(lo->mid, mid->lo); }\n",
     DslSemanticError, "line 4, col 10: permutation does not preserve the order at lo, mid"),
], ids=["bad-char", "superscript", "superscript-after-digit", "vulgar-fraction",
        "expected-sym", "expected-sym-at-eof", "expected-ident", "lattice-kind",
        "denominator", "annotation", "polarity", "iso-expr", "declaration", "block",
        "eof-after-comment", "lex-error-after-syntax-error", "first-of-several-bad",
        "same-bad-twice", "table-duplicate-key", "table-duplicate-key-comment",
        "level-duplicate", "level-duplicate-comment", "level-superscript",
        "level-superscript-comment", "order-unknown-element", "order-unknown-element-comment",
        "custom-complement-duplicate", "custom-complement-duplicate-comment",
        "duplicate-syntax", "duplicate-universe", "duplicate-program", "duplicate-candidate",
        "duplicate-iso", "syntax-after-program", "program-first", "init-first",
        "candidate-first", "iso-first", "missing-lattice", "missing-universe",
        "missing-program", "syntax-word", "set-annotation", "numeric-annotation",
        "rational", "unknown-labels-comment", "chain-level-comment", "chain-value-comment",
        "zero-denominator-comment", "perm-unknown-label", "perm-unknown-element",
        "perm-labels", "perm-elements", "perm-unit", "perm-order"])
def test_document_error_texts(text, error, message):
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("isomorphism { }", "line 1, col 1: expected an iso block, found 'isomorphism'"),
    ("\n  iso { *: id; } x", "line 2, col 18: unexpected trailing input 'x'"),
    ("iso { *: perm(a->b,) }", "line 1, col 20: expected a name, found ')'"),
    ("iso { *: perm() }", "line 1, col 15: expected a name, found ')'"),
])
def test_iso_error_texts(text, message):
    doc = parse("lattice chain [a < b]\nuniverse { x }\nprogram { }\n")
    with pytest.raises(DslSyntaxError) as exc:
        parse_iso(text, doc.lattice, doc.universe)
    assert str(exc.value) == message


# Keys and strings mix ASCII, quotes, backslashes, control characters and
# characters beyond ASCII and beyond the basic plane, which the writer must
# escape as ``json.dumps`` does.
_json_strings = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\ufeff\U0001f600'),
    st.characters()))
_json_scalars = st.one_of(st.booleans(), st.integers(), _json_strings)
_json_values = st.recursive(_json_scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=5),
    st.lists(kids, max_size=5).map(tuple),
    st.dictionaries(_json_strings, kids, max_size=5),
    # Lists that mix bools and ints, all-int lists, and all-str lists,
    # which take the writer's one-join path.
    st.lists(st.one_of(st.booleans(), st.integers()), max_size=8),
    st.lists(st.integers(), max_size=8),
    st.lists(_json_strings, max_size=5)), max_leaves=40)


@given(_json_values)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_json_writer_edge_cases():
    for obj in ([], {}, (), [[]], {"": {}}, [True, 1, False, 0], (1, (2, ())),
                {"a": [[1, 2], [3]], "b": ["x", True]}, -0, 10**30, "\ud800"):
        assert _json_text(obj) == json.dumps(obj, indent=2)
    for obj in (1.5, None, {1}, [b""], {1: "int key"}, {("a",): 1}):
        with pytest.raises(TypeError):
            _json_text(obj)


def test_json_writer_renders_every_report_as_json_dumps():
    for name in sorted(p.name for p in FIXTURES.glob("*.arp")):
        doc = parse(fixture_text(name))
        text = serialize(doc, "json")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        if doc.init is not None:
            for out in enumerate_revisions(doc.program, doc.init):
                text = serialize(out, "json")
                assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _report_problem(rng, kind):
    """A program, an initial valuation and candidates for the report test:
    a random program on one to three atoms, a shuffled derivation chain
    with a bottom init (its trace then has one entry per chain rule) or a
    random one, or a program without rules, whose traces are empty.  The
    candidates are a random valuation and the init revised by the
    necessary change; small lattices make pair values repeat across atoms."""
    lat = rng.choice([TwoLattice(), chain4(), powerset_pq(), UnitChain()])
    els = unit_quarters(lat) if lat.kind == "unit" else None
    syntax = rng.choice((OLD, NEW))
    if kind == "chain":
        depth = rng.randint(3, 40)
        p, _ = deep_chain_program(rng, lat, syntax, depth, rng.randint(0, depth), els)
        B_I = (PairValuation.bottom(lat, p.universe) if rng.random() < 0.5
               else random_valuation(rng, lat, p.universe, els=els))
    else:
        atoms = ("a", "b", "c")[:rng.randint(1, 3)]
        gen = random_old_program if syntax == OLD else random_new_program
        p = gen(rng, lat, atoms, 5, els=els)
        if kind == "empty":
            p = Program(syntax, lat, atoms, [])
        B_I = random_valuation(rng, lat, atoms, els=els)
    cands = [apply_change(B_I, necessary_change(p)),
             random_valuation(rng, lat, p.universe, els=els)]
    return p, B_I, cands


@given(st.integers(0, 2**32 - 1), st.sampled_from(("random", "chain", "empty")))
def test_report_values_render_as_json_dumps(seed, kind):
    # The report values carry the outcome's deltas and share one list per
    # distinct pair; the writer renders them from those, and json.dumps
    # from the plain lists, at several depths.
    rng = random.Random(seed)
    p, B_I, cands = _report_problem(rng, kind)
    outcomes = [is_justified_revision(p, B_I, c, s) for c in cands for s in (MPT, FITTING)]
    reports = [valuation_to_json(v) for v in (B_I, *cands)]
    reports += [outcome_to_json(o) for o in outcomes]
    reports.append({s: outcome_to_json(o) for s, o in zip((MPT, FITTING), outcomes)})
    stats = {"atoms": len(p.universe), "rules": len(p.rules)}
    reports.append(revisions_to_json(MPT, outcomes, stats))
    if kind != "chain":
        found = enumerate_revisions(p, B_I)
        reports.append(revisions_to_json(MPT, found, {**stats, "revisions": len(found)}))
    for report in reports:
        assert _json_text(report) == json.dumps(report, indent=2)
    for o in outcomes:
        trace = outcome_to_json(o)["trace"]
        assert trace == [list(step) for step in o.trace]
        assert json.loads(json.dumps(trace)) == trace


def test_report_values_cover_empty_traces_and_repeated_pairs():
    # The cases the property test must reach: an empty trace, a trace whose
    # deltas insert before indices fired earlier, and a valuation in which
    # atoms share one pair value, and so one list.
    rng = random.Random(7)
    p, _ = deep_chain_program(rng, powerset_pq(), NEW, 30, 10)
    bottom = PairValuation.bottom(p.lattice, p.universe)
    o = is_justified_revision(p, bottom, apply_change(bottom, necessary_change(p)))
    assert len(o.steps) == 30
    assert any(min(step) < max(max(s) for s in o.steps[:k])
               for k, step in enumerate(o.steps) if k)
    shared = valuation_to_json(bottom)
    assert len({id(v) for v in shared.values()}) == 1
    empty = is_justified_revision(Program(NEW, p.lattice, p.universe, []), bottom, bottom)
    assert empty.steps == () and outcome_to_json(empty)["trace"] == []
    for report in (outcome_to_json(o), outcome_to_json(empty), shared):
        assert _json_text(report) == json.dumps(report, indent=2)


_PQ_HEAD = "lattice powerset { p, q }\nsyntax new\nuniverse { a, b, c, d }\n"
_UNIT_HEAD = "lattice chain unit\nuniverse { a, b }\nprogram {\n"


def test_repeated_pair_texts_parse_as_single_ones():
    # One pair text in a rule body and in four init entries, with blanks and
    # comments inside some copies, against the same document with each
    # pair written once in its own document.
    copies = ["<{p}, {q}>", "< {p} ,{q} >", "<\n  {p}, # a comment\n {q}\n>",
              "<{ p }, { q }>"]
    text = (_PQ_HEAD + "program {\n  a: <{p}, {q}> <- b: <{p}, {q}>.\n"
            "  c: <{p}, {}> <- d: <{p}, {q}>, a: <{p}, {}>.\n}\ninit {\n"
            + "".join(f"  {a} = {c}.\n" for a, c in zip("abcd", copies)) + "}\n")
    doc = parse(text)
    want = parse(_PQ_HEAD + "program { }\ninit { a = <{p}, {q}>. }\n").init["a"]
    for a in "abcd":
        assert doc.init[a].pos.key == want.pos.key and doc.init[a].neg.key == want.neg.key
        assert doc.init[a].pos.lattice is doc.lattice
    assert str(doc.program.rules[0]) == "a:<{p},{q}> <- b:<{p},{q}>."
    assert str(doc.program.rules[1]) == "c:<{p},{}> <- d:<{p},{q}>, a:<{p},{}>."
    # Copies with the same tokens give back the same immutable value.
    assert doc.init["a"] is doc.program.rules[0].head.ann is doc.program.rules[0].body[0].ann
    old = parse("lattice powerset { p, q }\nuniverse { a }\n"
                "program { in(a):{p,q} <- out(a):{ p, q }, in(a):{q, p}. }\n")
    (rule,) = old.program.rules
    assert rule.head.ann == rule.body[0].ann == rule.body[1].ann
    assert rule.head.ann is rule.body[0].ann


def test_repeated_numerals_parse_once():
    # Numerals with the same tokens give back one element; ``0.5`` is
    # another numeral with the same value.
    doc = parse(_UNIT_HEAD + "  in(a):1/2 <- in(b):1 / 2, out(a):0.5.\n"
                "  in(b):1 <- in(a):1.\n}\ninit { a = <1/2, 1>. }\n")
    first, second = doc.program.rules
    half, one = first.head.ann, second.head.ann
    assert half.key == Fraction(1, 2) and one.key == 1
    assert first.body[0].ann is half is doc.init["a"].pos
    assert first.body[1].ann == half and first.body[1].ann is not half
    assert second.body[0].ann is one is doc.init["a"].neg


@pytest.mark.parametrize("text, error, message", [
    # A bad pair that repeats is reported where it first stands.
    (_PQ_HEAD + "program { }\ninit {\n  a = <{p}, {q}>.\n  b = <{p}, {z}>.\n"
     "  c = <{p}, {z}>.\n}\n", DslSemanticError, "line 7, col 13: unknown labels ['z']"),
    # A pair missing its '>', followed by a copy of a pair read before: the
    # next '>' closes the following pair, and the error is the one without
    # a memo.
    (_PQ_HEAD + "program { }\ninit {\n  a = <{p}, {q}>.\n  b = <{p}, {q} .\n"
     "  c = <{p}, {q}>.\n}\n", DslSyntaxError, "line 7, col 17: expected '>', found '.'"),
    (_PQ_HEAD + "program { a: <{p}, {q}> <- b: <{p}, {q}.\n  c: <{p}, {q}> <- . }\n",
     DslSyntaxError, "line 4, col 40: expected '>', found '.'"),
    # A numeral read before, followed by a zero denominator or, after a
    # decimal, by a '/' that the numeral does not take.
    (_UNIT_HEAD + "  in(a):1/2 <- in(b):1/2.\n  in(b):1/0 <- in(a):1/0.\n}\n",
     DslSemanticError, "line 5, col 11: zero denominator"),
    (_UNIT_HEAD + "  in(a):0.5 <- in(b):0.5/2.\n}\n",
     DslSyntaxError, "line 4, col 25: expected '.', found '/'"),
    # A set literal missing its '}' runs into the next one.
    ("lattice powerset { p, q }\nuniverse { a }\n"
     "program { in(a):{p} <- in(a):{p. in(a):{p} <- . }\n",
     DslSyntaxError, "line 3, col 32: expected '}', found '.'"),
])
def test_memo_keeps_error_texts(text, error, message):
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_memo_is_per_parse():
    text = _PQ_HEAD + "program { a: <{p}, {q}> <- . }\ninit { a = <{p}, {q}>. }\n"
    one, two = parse(text), parse(text)
    assert one.lattice is not two.lattice
    for doc in (one, two):
        pv = doc.init["a"]
        assert pv.pos.lattice is doc.lattice and pv.neg.lattice is doc.lattice
        assert doc.program.rules[0].head.ann.pos.lattice is doc.lattice
    assert one.init["a"] is not two.init["a"]
