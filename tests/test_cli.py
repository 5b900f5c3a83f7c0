"""Command-line behavior: commands, exit codes, determinism."""

import contextlib
import io
import json
import random
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annrev import (
    FITTING,
    MPT,
    NEW,
    Document,
    DslError,
    PairValuation,
    PairValue,
    PowersetLattice,
    apply_change,
    is_justified_revision,
    lattice,
    necessary_change,
    parse,
    parse_iso,
    serialize,
)
from annrev.cli import build_parser, main
from annrev.textio import outcome_to_json
from helpers import deep_chain_program, powerset_pq

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_revise_proposal(capsys):
    code, out, _ = run(capsys, "revise", FIXTURES / "proposal.arp")
    assert code == 0
    assert "revisions: 2" in out
    assert "accept = <{Ann,Bob,Pete}, {}>" in out
    assert "accept = <{}, {Bob,Pete}>" in out
    assert out.index("{Ann,Bob,Pete}") < out.index("{Bob,Pete}>")


def test_revise_json_schema(capsys):
    code, out, _ = run(capsys, "revise", FIXTURES / "proposal.arp", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["semantics"] == "mpt"
    assert len(payload["revisions"]) == 2
    assert set(payload["revisions"][0]) == {"valuation", "necessary_change", "trace"}
    assert payload["stats"]["revisions"] == 2


def test_verify_lights(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "lights.arp")
    assert code == 0
    assert "verified: true" in out


def test_verify_both_on_chain_reports_agreement(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "lights.arp", "--semantics", "both")
    assert code == 0
    assert "agreement: true" in out


def test_verify_notmodel_fitting_but_not_a_model(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "notmodel.arp",
                       "--semantics", "fitting")
    assert code == 0
    code2, out2, _ = run(capsys, "check", FIXTURES / "notmodel.arp")
    assert code2 == 1
    assert "model: false" in out2


def test_verify_notmodel_mpt_fails(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "notmodel.arp")
    assert code == 1
    assert "verified: false" in out


def test_verify_disagreement_exit_code(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "notmodel.arp",
                       "--semantics", "both")
    assert code == 1
    assert "agreement: false" in out


def test_nc_command(capsys):
    code, out, _ = run(capsys, "nc", FIXTURES / "ex_multi_p1.arp")
    assert code == 0
    assert "a = <{q}, {q}>" in out


def test_check_smodel_status(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "ex_multi_p1.arp")
    assert code == 0
    assert "model: true" in out and "s-model: true" in out


def test_diff_command(capsys):
    code, out, _ = run(capsys, "diff", FIXTURES / "lights.arp")
    assert code == 0
    assert "transformable: true" in out
    assert "a = <0, 1>" in out


def test_translate_round(capsys, tmp_path):
    code, out, _ = run(capsys, "translate", FIXTURES / "proposal.arp", "--to", "new")
    assert code == 0
    assert "syntax new" in out
    back = tmp_path / "new.arp"
    back.write_text(out)
    code2, out2, _ = run(capsys, "translate", back, "--to", "old")
    assert code2 == 0
    assert "syntax old" in out2


def test_translate_same_syntax_notice(capsys):
    code, out, err = run(capsys, "translate", FIXTURES / "proposal.arp", "--to", "old")
    assert code == 0
    assert "already" in err


def test_shift_counterexample(capsys):
    code, out, err = run(capsys, "shift", FIXTURES / "shift_cex.arp",
                         "--iso", FIXTURES / "shift_cex.iso")
    assert code == 0
    assert "does not preserve conflation" in err
    assert "a = <{}, {q}>." in out
    assert "a = <{p}, {q}>." in out


def test_shift_auto_translates_old_syntax(capsys):
    code, out, err = run(capsys, "shift", FIXTURES / "proposal.arp",
                         "--iso", "/dev/null")
    # /dev/null is not a valid iso spec; expect a clean input error
    assert code == 2

    iso = FIXTURES / "proposal_swap.iso"
    iso.write_text("iso { *: swap; }\n")
    try:
        code, out, err = run(capsys, "shift", FIXTURES / "proposal.arp", "--iso", iso)
        assert code == 0
        assert "translating the program to pair syntax" in err
        assert "syntax new" in out
        assert "accept = <{Bob}, {Pete}>." in out
    finally:
        iso.unlink()


def test_validate_command(capsys):
    code, out, _ = run(capsys, "validate", FIXTURES / "shift_cex.arp")
    assert code == 0
    assert "valid" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", FIXTURES / "proposal.arp",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_scans_the_lattice_once(capsys, tmp_path, monkeypatch):
    # The lattice's constructor checks the complement; the validate command
    # reports that verdict without a second check.
    doc = tmp_path / "custom.arp"
    doc.write_text("lattice custom {\n"
                   "  elements { bot, x, y, top }\n"
                   "  order { bot < x, bot < y, x < top, y < top }\n"
                   "  complement { bot: top, x: y, y: x, top: bot }\n"
                   "}\n"
                   "universe { a }\nprogram { in(a):x <- . }\n")
    calls = []
    check = lattice._complement_failure

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(lattice, "_complement_failure", counted)
    assert run(capsys, "validate", doc) == (
        0, "lattice: custom (valid)\nsyntax: old\nuniverse: 1 atoms, program: 1 rules\n", "")
    assert len(calls) == 1


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "nc", FIXTURES / "no_such_file.arp")
    assert code == 2
    assert "error:" in err


def test_parse_error_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.arp"
    bad.write_text("lattice two\nuniverse { a }\nprogram { in(zz):t <- . }\n")
    code, _, err = run(capsys, "nc", bad)
    assert code == 2
    assert "'zz'" in err


def test_revise_unit_chain_exact(capsys):
    code, out, _ = run(capsys, "revise", FIXTURES / "lights.arp")
    assert code == 0
    assert "revisions: 1" in out
    assert "  a = <0, 1>.\n  b = <1, 0>.\n" in out


def test_byte_identical_outputs(capsys):
    _, out1, _ = run(capsys, "revise", FIXTURES / "proposal.arp")
    _, out2, _ = run(capsys, "revise", FIXTURES / "proposal.arp")
    assert out1 == out2


def test_revise_both_reports_stats_per_semantics(capsys, tmp_path):
    # mpt accepts one revision of this document and fitting none; each
    # report must count its own.
    doc = tmp_path / "split.arp"
    doc.write_text(
        "lattice powerset { p, q }\n"
        "universe { b }\n"
        "program {\n"
        "  out(b):{p} <- in(b):{p,q}.\n"
        "  in(b):{p} <- out(b):{p,q}.\n"
        "}\n"
        "init { b = <{q}, {p,q}>. }\n")
    code, out, _ = run(capsys, "revise", doc, "--semantics", "both", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for s in ("mpt", "fitting"):
        assert payload[s]["stats"]["revisions"] == len(payload[s]["revisions"])
    assert [payload[s]["stats"]["revisions"] for s in ("mpt", "fitting")] == [1, 0]
    assert payload["agreement"] is False


def test_verify_needs_candidate(capsys):
    code, _, err = run(capsys, "verify", FIXTURES / "proposal.arp")
    assert code == 2
    assert "candidate" in err


def test_parser_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    good = ("revise", FIXTURES / "proposal.arp", "--format", "json")
    first = run(capsys, *good)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["revise", str(FIXTURES / "proposal.arp"), "--semantics", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, *good) == first


@pytest.mark.parametrize("table, message", [
    ("{}: {p,q}, {p}: {p}, {q}: {p}, {p,q}: {}",
     "complement not an involution at {q}"),
    ("{}: {}, {p}: {q}, {q}: {p}, {p,q}: {p,q}",
     "complement not order-reversing at {}, {p}"),
], ids=["not-an-involution", "cover-not-reversed"])
def test_validate_rejects_powerset_complement_table(capsys, tmp_path, table, message):
    doc = tmp_path / "table.arp"
    doc.write_text("universe { a }\n"
                   f"lattice powerset {{ p, q }} complement {{ {table} }}\n"
                   "program { }\n")
    assert run(capsys, "validate", doc) == (
        2, "", f"error: line 2, col 1: invalid lattice: {message}\n")


@pytest.mark.parametrize("name, lattice, order, complement, message", [
    ("antisymmetry", "a, b", "a < b, b < a", "a: b, b: a",
     "order not antisymmetric at a, b"),
    ("no-meet", "a, b, top", "a < top, b < top", "a: a, b: b, top: top",
     "no meet of a and b"),
    ("no-join", "bot, a, b", "bot < a, bot < b", "bot: bot, a: b, b: a",
     "no join of a and b"),
    ("n5", "bot, a, b, c, top", "bot < a, a < b, b < top, bot < c, c < top",
     "bot: top, a: c, b: c, c: a, top: bot", "distributivity fails at b, a, c"),
    ("m3", "bot, a, b, c, top", "bot < a, bot < b, bot < c, a < top, b < top, c < top",
     "bot: top, a: a, b: c, c: b, top: bot", "distributivity fails at a, b, c"),
    ("involution", "bot, top", "bot < top", "bot: bot, top: bot",
     "complement not an involution at top"),
    ("order-reversal", "bot, a, b, top", "bot < a, bot < b, a < top, b < top",
     "bot: bot, a: a, b: b, top: top", "complement not order-reversing at bot, a"),
    # An involution that fixes both ends of a chain reverses no cover; the
    # De Morgan laws follow from order reversal, so it is what is named.
    ("de-morgan", "top, bot", "bot < top", "top: top, bot: bot",
     "complement not order-reversing at bot, top"),
])
def test_validate_rejects_custom_lattice(capsys, tmp_path, name, lattice, order,
                                         complement, message):
    doc = tmp_path / f"{name}.arp"
    doc.write_text("universe { a }\n"
                   f"lattice custom {{ elements {{ {lattice} }} order {{ {order} }} "
                   f"complement {{ {complement} }} }}\n"
                   "program { }\n")
    assert run(capsys, "validate", doc) == (
        2, "", f"error: line 2, col 1: invalid lattice: {message}\n")


@pytest.mark.parametrize("universe, warned", [("a", False), ("a, b", True)],
                         ids=["default-unused", "default-used"])
def test_shift_warns_only_about_maps_in_use(capsys, tmp_path, universe, warned):
    # The q<->r permutation breaks conflation over shift_cex's complement;
    # it matters only when some atom falls back on the default.
    text = (FIXTURES / "shift_cex.arp").read_text()
    doc = tmp_path / "doc.arp"
    doc.write_text(text.replace("universe { a }", f"universe {{ {universe} }}"))
    iso = tmp_path / "default.iso"
    iso.write_text("iso { a: id; *: perm(q->r, r->q); }\n")
    code, out, err = run(capsys, "shift", doc, "--iso", iso)
    assert code == 0 and "a = <{p}, {r}>." in out
    assert ("does not preserve conflation" in err) == warned


def test_shift_rejects_perm_that_is_not_an_order_automorphism(capsys, tmp_path):
    doc = tmp_path / "chain.arp"
    doc.write_text("lattice chain [c0 < c1 < c2 < c3]\nuniverse { a }\nprogram { }\n")
    iso = tmp_path / "bad.iso"
    iso.write_text("iso { *: perm(c0->c1, c1->c0); }\n")
    assert run(capsys, "shift", doc, "--iso", iso) == (
        2, "", "error: line 1, col 10: permutation does not preserve the order at c0, c1\n")


def test_shift_rejects_iso_that_misses_an_atom(capsys, tmp_path):
    doc = tmp_path / "two.arp"
    doc.write_text("lattice two\nsyntax new\nuniverse { a, b }\n"
                   "program { a:<t,f> <- b:<f,t>. }\n")
    iso = tmp_path / "partial.iso"
    iso.write_text("\n  iso { a: swap; }\n")
    assert run(capsys, "shift", doc, "--iso", iso) == (
        2, "", "error: line 2, col 3: iso has no entry for atom 'b' and no '*' default\n")


def test_diff_and_shift_take_bounded_time_at_max_labels(capsys, tmp_path):
    labels = [f"l{i}" for i in range(PowersetLattice.MAX_LABELS)]
    full = "{" + ",".join(labels) + "}"
    doc = tmp_path / "wide.arp"
    doc.write_text(f"lattice powerset {{ {', '.join(labels)} }}\nsyntax new\n"
                   "universe { a }\nprogram { }\n"
                   f"init {{ a = <{{}}, {full}>. }}\ncandidate {{ a = <{full}, {full}>. }}\n")
    iso = tmp_path / "swap.iso"
    iso.write_text("iso { a: perm(l0->l1, l1->l0); }\n")
    for argv in [("diff", doc), ("shift", doc, "--iso", iso)]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0, argv[0]
        assert (code, err) == (0, "") and f"  a = <{full}, {full}>.\n" in out


def test_non_decimal_digit_is_a_located_input_error(capsys, tmp_path):
    doc = tmp_path / "sup.arp"
    doc.write_text("lattice chain unit\nuniverse { a }\nprogram {\n  in(a):² <- .\n}\n",
                   encoding="utf-8")
    assert run(capsys, "nc", doc) == (
        2, "", "error: line 4, col 9: unexpected character '²'\n")
    # Decimal digits of other scripts are digits that int() reads.
    doc.write_text("lattice chain unit\nuniverse { a }\nprogram { in(a):٣/٤ <- . }\n",
                   encoding="utf-8")
    assert run(capsys, "nc", doc) == (0, "necessary change:\n  a = <3/4, 0>.\n", "")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter reads integers of any length")
@pytest.mark.parametrize("command", ["nc", "check", "verify", "diff", "revise"])
@pytest.mark.parametrize("numeral, col", [
    (lambda n: "9" * (n + 1), 9),                     # numerator
    (lambda n: "1/" + "9" * (n + 1), 11),             # denominator
    (lambda n: "0." + "9" * (n + 1), 9),              # fraction part
    (lambda n: "9" * (n + 1) + ".5", 9),              # integer part
    (lambda n: "0." + "0" * (n - 1) + "1", 9),        # denominator 10**n: unprintable
], ids=["numerator", "denominator", "decimal-fraction", "decimal-integer",
        "decimal-unprintable"])
def test_over_long_number_is_a_located_input_error(capsys, tmp_path, command, numeral, col):
    limit = sys.get_int_max_str_digits()
    doc = tmp_path / "long.arp"
    doc.write_text("lattice chain unit\nuniverse { a }\nprogram {\n"
                   f"  in(a):{numeral(limit)} <- .\n}}\n"
                   "init { a = <0, 0>. }\ncandidate { a = <1, 0>. }\n", encoding="utf-8")
    assert run(capsys, command, doc) == (
        2, "", f"error: line 4, col {col}: number too long: more than {limit} digits\n")
    # A numeral longer than the limit whose parts and value fit reads as before.
    doc.write_text("lattice chain unit\nuniverse { a }\nprogram {\n"
                   f"  in(a):0.5{'0' * (limit - 2)} <- .\n}}\n"
                   "init { a = <0, 0>. }\ncandidate { a = <1/2, 0>. }\n", encoding="utf-8")
    assert run(capsys, command, doc)[0] in (0, 1)


def test_document_not_utf8_is_a_located_input_error(capsys, tmp_path):
    doc = tmp_path / "latin1.arp"
    doc.write_bytes(b"lattice two\r\nuniverse { a\xe9 }\nprogram { }\n")
    assert run(capsys, "validate", doc) == (
        2, "", "error: line 2, col 13: invalid UTF-8 byte 0xe9\n")


def test_iso_not_utf8_is_a_located_input_error(capsys, tmp_path):
    iso = tmp_path / "bad.iso"
    iso.write_bytes(b"iso {\n  *: id\xff; }\n")
    assert run(capsys, "shift", FIXTURES / "shift_cex.arp", "--iso", iso) == (
        2, "", "error: line 2, col 8: invalid UTF-8 byte 0xff\n")


def test_diff_untransformable_exit_code(capsys, tmp_path):
    doc = tmp_path / "untransformable.arp"
    doc.write_text("lattice powerset { p }\nuniverse { a, b }\nprogram { }\n"
                   "init { a = <{p}, {p}>. }\ncandidate { b = <{p}, {}>. }\n")
    assert run(capsys, "diff", doc) == (
        1, "transformable: false\ndiff:\n  a = <{p}, {p}>.\n  b = <{p}, {p}>.\n", "")


@pytest.mark.parametrize("accepted", [True, False])
def test_verify_json_on_a_deep_chain_matches_json_dumps(capsys, tmp_path, accepted):
    # A 300-step chain with its rules shuffled, so that the report's trace
    # is written from deltas that insert before rules fired earlier.
    rng = random.Random(29)
    p, _ = deep_chain_program(rng, powerset_pq(), NEW, 300, 100)
    init = PairValuation.bottom(p.lattice, p.universe)
    cand = apply_change(init, necessary_change(p))
    if not accepted:
        # No body reads ``z``, so the reduct and its 300 steps stay as they are.
        cand = cand.replace("z", PairValue(p.lattice.bot, p.lattice.bot))
    doc = tmp_path / "chain.arp"
    doc.write_text(serialize(Document(p.lattice, NEW, p.universe, p, init, cand), "text"),
                   encoding="utf-8")
    code, out, _ = run(capsys, "verify", doc, "--semantics", "both", "--format", "json")
    outcomes = [is_justified_revision(p, init, cand, s) for s in (MPT, FITTING)]
    assert len(outcomes[0].steps) == 300 and all(o.verified == accepted for o in outcomes)
    want = {o.semantics: outcome_to_json(o) for o in outcomes}
    want["agreement"] = True
    assert code == (0 if accepted else 1)
    assert out == json.dumps(want, indent=2) + "\n"


# Fuzz material: pieces of every token kind, blanks, a comment start and
# characters that start no token.
_PIECES = ("{", "}", "<", ">", ",", ".", ":", "(", ")", "[", "]", "<-", "->", "/", "=", "*",
           "0", "1", "1/2", "0.5", "7", "in", "out", "t", "f", "a", "b", "p", "q", "z",
           "{p}", "<t, f>", "<{p}, {}>", " ", "\n", "#", "@", "²")
_FUZZ_ARGS = (["validate"], ["nc"], ["check"], ["verify", "--semantics", "both"],
              ["revise", "--semantics", "both"], ["translate", "--to", "old"],
              ["translate", "--to", "new"], ["shift", "--iso", str(FIXTURES / "shift_cex.iso")],
              ["diff"])


def _mutated(draw, text, pieces):
    """``text`` after one to three edits, each deleting or duplicating a
    span of up to 12 characters or putting in one of ``pieces``."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        op = draw(st.sampled_from(("delete", "duplicate", "insert")))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + draw(st.sampled_from(pieces)) + text[i:]
    return text


@st.composite
def _mutated_fixture(draw):
    """The text of a fixture after one to three edits."""
    fixtures = sorted(FIXTURES.glob("*.arp")) + sorted(FIXTURES.glob("kinds/*.arp"))
    path = draw(st.sampled_from(fixtures))
    return _mutated(draw, path.read_text(encoding="utf-8"), _PIECES)


# The errors that name no place in a document: a block it lacks, or one
# that a command needs and the document does not have.
_UNLOCATED = re.compile(r"missing (?:lattice|universe) declaration|missing program block"
                        r"|\w+ needs an? \w+ block")


def _assert_located(error):
    """``error`` names a line and a column, unless no place is at fault."""
    if error.line is None:
        assert _UNLOCATED.fullmatch(str(error)), str(error)
    else:
        assert re.match(r"line [1-9]\d*, col [1-9]\d*: ", str(error)), str(error)


def _main(argv):
    """``(exit status, stdout, stderr)`` of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_mutated_fixture())
def test_mutated_fixtures_exit_0_1_or_2_on_every_command(text):
    # Whatever a command makes of a damaged document, it answers with an
    # exit status; no exception escapes ``main``.  A document that does not
    # parse exits 2 on every command with the parse error, which names its
    # line and column unless a whole block is missing; so does an error in
    # the iso file that ``shift`` reads against the document.
    try:
        doc, error = parse(text), None
    except DslError as e:
        doc, error = None, e
        _assert_located(e)
    if doc is not None:
        try:
            parse_iso((FIXTURES / "shift_cex.iso").read_text(encoding="utf-8"),
                      doc.lattice, doc.universe)
        except DslError as e:
            _assert_located(e)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.arp"
        path.write_text(text, encoding="utf-8")
        for args in _FUZZ_ARGS:
            code, _, err = _main([args[0], path, *args[1:]])
            assert code in (0, 1, 2)
            if error is not None:
                assert (code, err) == (2, f"error: {error}\n")


# Isomorphism specs to mutate, each with the document that ``shift`` reads
# it against; the grid's spec is the iso block of its own document.
_ISO_CASES = (
    ("shift_cex.arp", (FIXTURES / "shift_cex.iso").read_text(encoding="utf-8")),
    ("kinds/grid3x3.arp", (FIXTURES / "kinds/grid3x3.arp").read_text(
        encoding="utf-8").partition("\niso ")[2].join(("iso ", ""))),
    ("kinds/chain5.arp", "iso {\n  a: id;\n  *: swap;\n}\n"),
)
_ISO_PIECES = ("iso", "{", "}", "*", ":", ";", "id", "swap", "perm", "(", ")", "->", "<-",
               ",", "a", "b", "z", "p", "q", "r", "x0y1", "x1y0", "low", "mid", " ", "\n",
               "#", "@", "²", "perm(p->q)", "perm(q->r, r->q)")


@st.composite
def _mutated_iso(draw):
    name, text = draw(st.sampled_from(_ISO_CASES))
    return name, _mutated(draw, text, _ISO_PIECES)


@settings(max_examples=150, deadline=None)
@given(_mutated_iso())
def test_mutated_iso_texts_exit_0_or_2_through_shift(case):
    # A damaged spec is a located input error, exit status 2, and never a
    # traceback; a spec that still parses shifts the document.
    name, text = case
    doc = parse((FIXTURES / name).read_text(encoding="utf-8"))
    try:
        parse_iso(text, doc.lattice, doc.universe)
        error = None
    except DslError as e:
        error = e
        assert e.line is not None, str(e)
        _assert_located(e)
    with tempfile.TemporaryDirectory() as tmp:
        iso = Path(tmp) / "spec.iso"
        iso.write_text(text, encoding="utf-8")
        code, out, err = _main(["shift", FIXTURES / name, "--iso", iso])
    if error is None:
        assert code == 0 and out
    else:
        assert (code, out, err) == (2, "", f"error: {error}\n")
