"""Command-line front end: documents in, deterministic reports out.

Exit status: 0 on success, 1 on a semantic negative (a candidate that does
not verify, a non-model, an untransformable pair), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import engine, textio
from .engine import FITTING, MPT
from .isomorphism import apply_iso
from .lattice import LatticeError, UnsupportedOperationError, validate
from .syntax import NEW, OLD, tr1, tr2
from .valuation import diff as valuation_diff
from .valuation import transformable

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

    sp = add("revise", "enumerate all justified revisions of init")
    sp.add_argument("--semantics", choices=(MPT, FITTING, "both"), default=MPT)
    sp.add_argument("--cap", type=int, default=engine.DEFAULT_ENUMERATION_CAP,
                    help="abort if the change space (the product over atoms of "
                         "the joins of rule heads) exceeds this size")

    sp = add("translate", "translate the program between the two rule syntaxes")
    sp.add_argument("--to", choices=(OLD, NEW), required=True)

    sp = add("shift", "apply an order isomorphism to program and valuations")
    sp.add_argument("--iso", required=True, help="isomorphism spec file")

    add("diff", "least change valuation turning init into the candidate")
    return ap


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return textio.parse(fh.read())


def _need(doc, which, command):
    v = getattr(doc, which)
    if v is None:
        raise textio.DslSemanticError(f"{command} needs an {which} block")
    return v


def _print_valuation(v, indent="  "):
    for line in v.canonical_text().splitlines():
        print(indent + line)


def _cmd_validate(doc, args):
    report = validate(doc.lattice)
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "failures": list(report.failures),
            "atoms": len(doc.universe),
            "rules": len(doc.program.rules),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"lattice: {doc.lattice.kind} ({'valid' if report.ok else 'INVALID'})")
        for f in report.failures:
            print(f"  {f}")
        print(f"syntax: {doc.syntax}")
        print(f"universe: {len(doc.universe)} atoms, program: {len(doc.program.rules)} rules")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_nc(doc, args):
    nc = engine.necessary_change(doc.program)
    if args.format == "json":
        print(json.dumps({"necessary_change": textio.valuation_to_json(nc)}, indent=2))
    else:
        print("necessary change:")
        _print_valuation(nc)
    return EXIT_OK


def _cmd_check(doc, args):
    target_name = "candidate" if doc.candidate is not None else "init"
    target = _need(doc, target_name, "check")
    model = engine.is_model(doc.program, target)
    smodel = engine.is_smodel(doc.program, target)
    if args.format == "json":
        print(json.dumps({"target": target_name, "model": model, "smodel": smodel},
                         indent=2))
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
        print(json.dumps(payload, indent=2))
    else:
        for o in outcomes:
            print(textio.serialize(o, "text"), end="")
        if len(outcomes) > 1:
            agree = outcomes[0].verified == outcomes[1].verified
            print(f"agreement: {str(agree).lower()}")
    return EXIT_OK if all(o.verified for o in outcomes) else EXIT_NEGATIVE


def _run_enumeration(doc, init, semantics, args):
    outcomes = engine.enumerate_revisions(doc.program, init, semantics, cap=args.cap)
    stats = {
        "atoms": len(doc.universe),
        "rules": len(doc.program.rules),
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
    if args.semantics == "both":
        mpt_out, mpt_stats = _run_enumeration(doc, init, MPT, args)
        fit_out, fit_stats = _run_enumeration(doc, init, FITTING, args)
        agree = ([o.candidate for o in mpt_out] == [o.candidate for o in fit_out])
        if args.format == "json":
            payload = {
                "semantics": "both",
                "mpt": textio.revisions_to_json(MPT, mpt_out, mpt_stats),
                "fitting": textio.revisions_to_json(FITTING, fit_out, fit_stats),
                "agreement": agree,
            }
            print(json.dumps(payload, indent=2))
        else:
            _print_enumeration(MPT, mpt_out)
            _print_enumeration(FITTING, fit_out)
            print(f"agreement: {str(agree).lower()}")
        return EXIT_OK
    outcomes, stats = _run_enumeration(doc, init, args.semantics, args)
    if args.format == "json":
        print(json.dumps(textio.revisions_to_json(args.semantics, outcomes, stats),
                         indent=2))
    else:
        _print_enumeration(args.semantics, outcomes)
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
    with open(args.iso, encoding="utf-8") as fh:
        iso = textio.parse_iso(fh.read(), doc.lattice, doc.universe)
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
    ok = transformable(init, cand)
    d = valuation_diff(cand, init)
    if args.format == "json":
        print(json.dumps({"transformable": ok, "diff": textio.valuation_to_json(d)},
                         indent=2))
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
        doc = _load(args.input)
        return _COMMANDS[args.command](doc, args)
    except (textio.DslError, engine.CapExceededError, UnsupportedOperationError,
            LatticeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
