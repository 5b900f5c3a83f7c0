"""The per-label split of powerset programs.

Over a powerset whose complement is ``S -> full - sigma(S)``, every
coordinate ``l`` of a pair behaves as the lattice ``two``.  Under mpt a
program and its split into atoms ``a_l`` have the same necessary change
and the same justified revisions, each with the same necessary change,
through the split; under fitting they can differ, and the fixture
``split/fitting_cex.arp`` pins a program where they do.
"""

import random
from pathlib import Path

import pytest

from annrev import FITTING, MPT, NEW, OLD, enumerate_revisions, necessary_change, parse
from helpers import (
    label_involution_powerset,
    label_split,
    powerset_p,
    powerset_pq,
    powerset_pqr_custom,
    random_new_program,
    random_old_program,
    random_valuation,
)

FIXTURES = Path(__file__).parent / "fixtures"


def outcomes(p, B_I, semantics):
    return {(o.candidate, o.necessary_change) for o in enumerate_revisions(p, B_I, semantics)}


@pytest.mark.parametrize("syntax", [OLD, NEW])
@pytest.mark.parametrize("make", [
    powerset_p, powerset_pq, powerset_pqr_custom,
    lambda: label_involution_powerset(("p", "q", "r", "s"), [("p", "s")])],
    ids=["p", "pq", "pqr-custom", "pqrs-swap-ps"])
def test_split_agrees_under_mpt(make, syntax):
    lat = make()
    split_program, split_valuation = label_split(lat)
    rng = random.Random(f"split:{lat.labels}:{syntax}")
    random_program = random_old_program if syntax == OLD else random_new_program
    for _ in range(150):
        atoms = ("a", "b")[:rng.randint(1, 2)]
        p = random_program(rng, lat, atoms, 4)
        B_I = random_valuation(rng, lat, atoms)
        sp, sB_I = split_program(p), split_valuation(B_I)
        assert split_valuation(necessary_change(p)) == necessary_change(sp)
        assert {(split_valuation(r), split_valuation(c)) for r, c in outcomes(p, B_I, MPT)} \
            == outcomes(sp, sB_I, MPT)


def test_split_fitting_counterexample():
    doc = parse((FIXTURES / "split" / "fitting_cex.arp").read_text(encoding="utf-8"))
    split_program, split_valuation = label_split(doc.lattice)
    sp, sB_I = split_program(doc.program), split_valuation(doc.init)
    assert len(outcomes(doc.program, doc.init, FITTING)) == 1
    assert outcomes(sp, sB_I, FITTING) == set()
    mpt = outcomes(doc.program, doc.init, MPT)
    assert {(split_valuation(r), split_valuation(c)) for r, c in mpt} == outcomes(sp, sB_I, MPT)
