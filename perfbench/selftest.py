"""Checks of the reference itself: against the fixture answers the
acceptance tests assert, and its change-space search against brute force.
``run.py --selftest`` runs these, then every operation of every workload
once through the CLI against the reference."""

from __future__ import annotations

from itertools import product

from .model import Doc, canonical_valuation_text, powerset_lattice, unit_lattice
from .reference import Pairs, answer, compile_rules, verify_outcome
from .workloads import Op

# The fixtures tests/test_acceptance.py checks, transcribed as models.
ANN, BOB, PETE = 1, 2, 4
P, Q = 1, 2


def proposal():
    lat = powerset_lattice(("Ann", "Bob", "Pete"))
    rules = [(("in", "accept", ANN), (("in", "accept", BOB),)),
             (("in", "accept", ANN), (("in", "accept", PETE),)),
             (("in", "accept", BOB), (("in", "accept", ANN),)),
             (("in", "accept", BOB), (("in", "accept", PETE),)),
             (("out", "accept", PETE), (("out", "accept", ANN),)),
             (("out", "accept", PETE), (("out", "accept", BOB),))]
    return Doc(lat, "old", ("accept",), tuple(rules), {"accept": (PETE, BOB)})


def lights():
    lat = unit_lattice(10)
    rules = [(("in", "a", 10), (("in", "a", 8), ("out", "b", 6))),
             (("out", "b", 10), (("in", "a", 8), ("out", "b", 6))),
             (("in", "b", 10), (("in", "b", 8), ("out", "a", 6))),
             (("out", "a", 10), (("in", "b", 8), ("out", "a", 6)))]
    return Doc(lat, "old", ("a", "b"), tuple(rules), {"a": (3, 7), "b": (9, 1)},
               {"a": (0, 10), "b": (10, 0)})


def notmodel():
    lat = powerset_lattice(("p", "q"))
    rules = [(("in", "a", P), (("in", "b", P | Q),)), (("in", "b", Q), ())]
    return Doc(lat, "old", ("a", "b"), tuple(rules), {"a": (0, 0), "b": (P, 0)},
               {"a": (0, 0), "b": (P | Q, 0)})


def fixture_checks():
    """(name, op, holds) for each fixture answer the acceptance tests assert."""
    ops = [Op("proposal", "revise", ("--semantics", "both"), "proposal", proposal()),
           Op("lights", "verify", ("--semantics", "both"), "lights", lights()),
           Op("notmodel", "verify", ("--semantics", "both"), "notmodel", notmodel()),
           Op("notmodel-check", "check", (), "notmodel", notmodel())]
    got = {op.id: answer(op) for op in ops}
    revs = [r["valuation"] for r in got["proposal"][1]["mpt"]["revisions"]]
    checks = [
        ("proposal: two revisions", revs == [{"accept": ["{Ann,Bob,Pete}", "{}"]},
                                             {"accept": ["{}", "{Bob,Pete}"]}]),
        ("lights: verifies under mpt", got["lights"][1]["mpt"]["verified"]),
        ("notmodel: fitting verifies, mpt does not",
         got["notmodel"][1]["fitting"]["verified"] and not got["notmodel"][1]["mpt"]["verified"]),
        ("notmodel: candidate is not a model", got["notmodel-check"][1]["model"] is False),
    ]
    return ops, got, checks


def brute_force_revisions(doc, semantics):
    """Every candidate valuation checked directly, in canonical order."""
    Pr, rules = Pairs(doc.lat), compile_rules(doc)
    found = {}
    for combo in product(Pr.space(), repeat=len(doc.universe)):
        cand = dict(zip(doc.universe, combo))
        o = verify_outcome(doc, Pr, rules, doc.init, cand, semantics)
        if o["verified"]:
            found[canonical_valuation_text(doc.lat, cand)] = o["valuation"]
    return [found[k] for k in sorted(found)]
