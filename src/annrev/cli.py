"""Command-line front end: documents in, deterministic reports out.

Exit status: 0 on success, 1 on a semantic negative (a candidate that does
not verify, a non-model, an untransformable pair), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import engine, textio
from .engine import FITTING, MPT
from .isomorphism import apply_iso
from .lattice import LatticeError, UnsupportedOperationError
from .syntax import NEW, OLD, tr1, tr2
from .valuation import _least_change

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="annrev",
        description="Annotated revision programming: necessary change, model checks, "
                    "and justified revisions over annotation lattices.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", help="input document")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    add("validate", "check the lattice axioms and document wellformedness")
    add("nc", "necessary change of the program")
    add("check", "model and s-model status of the candidate (or init) valuation")

    sp = add("verify", "is the candidate a justified revision of init?")
    sp.add_argument("--semantics", choices=(MPT, FITTING, "both"), default=MPT)

    sp = add("revise", "enumerate all justified revisions of init, by deciding rules")
    sp.add_argument("--semantics", choices=(MPT, FITTING, "both"), default=MPT)

    sp = add("translate", "translate the program between the two rule syntaxes")
    sp.add_argument("--to", choices=(OLD, NEW), required=True)

    sp = add("shift", "apply an order isomorphism to program and valuations")
    sp.add_argument("--iso", required=True, help="isomorphism spec file")

    add("diff", "least change valuation turning init into the candidate")
    return ap


def _read(path):
    """A file's text as UTF-8 with universal newlines, the way text-mode
    ``open`` reads it; bytes that are not UTF-8 raise a ``DslLexError`` at
    the line and column of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise textio.DslLexError(f"invalid UTF-8 byte {data[e.start]:#04x}",
                                 head.count("\n") + 1, len(head) - head.rfind("\n"))
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _need(doc, which, command):
    v = getattr(doc, which)
    if v is None:
        article = "an" if which[0] in "aeiou" else "a"
        raise textio.DslSemanticError(f"{command} needs {article} {which} block")
    return v


def _print_valuation(v, indent="  "):
    for line in v.canonical_text().splitlines():
        print(indent + line)


def _cmd_validate(doc, args):
    # ``parse`` rejects an invalid lattice, so every document here is valid.
    if args.format == "json":
        payload = {
            "ok": True,
            "failures": [],
            "atoms": len(doc.universe),
            "rules": len(doc.program),
        }
        print(textio._json_text(payload))
    else:
        print(f"lattice: {doc.lattice.kind} (valid)")
        print(f"syntax: {doc.syntax}")
        print(f"universe: {len(doc.universe)} atoms, program: {len(doc.program)} rules")
    return EXIT_OK


def _cmd_nc(doc, args):
    nc = engine.necessary_change(doc.program)
    if args.format == "json":
        print(textio._json_text({"necessary_change": textio.valuation_to_json(nc)}))
    else:
        print("necessary change:")
        _print_valuation(nc)
    return EXIT_OK


def _cmd_check(doc, args):
    target_name = "candidate" if doc.candidate is not None else "init"
    target = _need(doc, target_name, "check")
    model, smodel = engine.model_status(doc.program, target)
    if args.format == "json":
        print(textio._json_text({"target": target_name, "model": model, "smodel": smodel}))
    else:
        print(f"target: {target_name}")
        print(f"model: {str(model).lower()}")
        print(f"s-model: {str(smodel).lower()}")
    return EXIT_OK if model else EXIT_NEGATIVE


def _cmd_verify(doc, args):
    init = _need(doc, "init", "verify")
    cand = _need(doc, "candidate", "verify")
    semantics = [MPT, FITTING] if args.semantics == "both" else [args.semantics]
    outcomes = [engine.is_justified_revision(doc.program, init, cand, s)
                for s in semantics]
    if args.format == "json":
        payload = {o.semantics: textio.outcome_to_json(o) for o in outcomes}
        if len(outcomes) > 1:
            payload["agreement"] = outcomes[0].verified == outcomes[1].verified
        print(textio._json_text(payload))
    else:
        for o in outcomes:
            print(textio.serialize(o, "text"), end="")
        if len(outcomes) > 1:
            agree = outcomes[0].verified == outcomes[1].verified
            print(f"agreement: {str(agree).lower()}")
    return EXIT_OK if all(o.verified for o in outcomes) else EXIT_NEGATIVE


def _run_enumeration(doc, init, semantics):
    outcomes = engine.enumerate_revisions(doc.program, init, semantics)
    stats = {
        "atoms": len(doc.universe),
        "rules": len(doc.program),
        "revisions": len(outcomes),
    }
    return outcomes, stats


def _print_enumeration(semantics, outcomes):
    print(f"semantics: {semantics}")
    print(f"revisions: {len(outcomes)}")
    for i, o in enumerate(outcomes, 1):
        print(f"revision {i}:")
        _print_valuation(o.candidate)
        print("  necessary change:")
        _print_valuation(o.necessary_change, indent="    ")


def _cmd_revise(doc, args):
    init = _need(doc, "init", "revise")
    semantics = [MPT, FITTING] if args.semantics == "both" else [args.semantics]
    runs = {s: _run_enumeration(doc, init, s) for s in semantics}
    found = [[o.candidate for o in outcomes] for outcomes, _ in runs.values()]
    if args.format == "json":
        reports = {s: textio.revisions_to_json(s, *run) for s, run in runs.items()}
        if len(runs) > 1:
            payload = {"semantics": "both", **reports, "agreement": found[0] == found[1]}
        else:
            (payload,) = reports.values()
        print(textio._json_text(payload))
    else:
        for s, (outcomes, _) in runs.items():
            _print_enumeration(s, outcomes)
        if len(runs) > 1:
            print(f"agreement: {str(found[0] == found[1]).lower()}")
    return EXIT_OK


def _cmd_translate(doc, args):
    if doc.syntax == args.to:
        print("note: program already in the requested syntax", file=sys.stderr)
        out = doc
    else:
        prog = tr1(doc.program) if args.to == NEW else tr2(doc.program)
        out = textio.Document(doc.lattice, args.to, doc.universe, prog,
                              doc.init, doc.candidate, doc.iso)
    print(textio.serialize_document(out), end="")
    return EXIT_OK


def _cmd_shift(doc, args):
    iso = textio.parse_iso(_read(args.iso), doc.lattice, doc.universe)
    prog = doc.program
    if prog.syntax == OLD:
        print("note: translating the program to pair syntax before shifting",
              file=sys.stderr)
        prog = tr1(prog)
    shifted = textio.Document(
        doc.lattice, NEW, doc.universe, apply_iso(iso, prog),
        apply_iso(iso, doc.init) if doc.init is not None else None,
        apply_iso(iso, doc.candidate) if doc.candidate is not None else None,
        None)
    if not iso.preserves_conflation():
        print("warning: isomorphism does not preserve conflation; "
              "justified revisions are not preserved", file=sys.stderr)
    print(textio.serialize_document(shifted), end="")
    return EXIT_OK


def _cmd_diff(doc, args):
    init = _need(doc, "init", "diff")
    cand = _need(doc, "candidate", "diff")
    d, ok = _least_change(cand, init)
    if args.format == "json":
        print(textio._json_text({"transformable": ok, "diff": textio.valuation_to_json(d)}))
    else:
        print(f"transformable: {str(ok).lower()}")
        print("diff:")
        _print_valuation(d)
    return EXIT_OK if ok else EXIT_NEGATIVE


_COMMANDS = {
    "validate": _cmd_validate,
    "nc": _cmd_nc,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "revise": _cmd_revise,
    "translate": _cmd_translate,
    "shift": _cmd_shift,
    "diff": _cmd_diff,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = textio.parse(_read(args.input))
        return _COMMANDS[args.command](doc, args)
    except (textio.DslError, UnsupportedOperationError, LatticeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
