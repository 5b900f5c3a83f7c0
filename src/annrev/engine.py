"""Fixpoint engine.

The one-step operator of a program joins the heads of all rules whose
bodies a valuation satisfies; its least fixpoint is the necessary change.
Candidate revisions are verified through a reduct: rules whose bodies the
candidate does not satisfy are dropped, and the remaining bodies are either
weakened by what the initial valuation already provides (the default
semantics, tagged ``mpt``) or stripped of the atoms it satisfies (the
deletion variant, tagged ``fitting``).  A candidate is a justified revision
when applying the reduct's necessary change to the initial valuation
reproduces the candidate exactly.

All of it runs on one compiled form, a ``(source_index, head_atom,
head_pair, body)`` tuple per rule.  One step function serves ``tp``,
``tp_heads`` and ``tpb``, and one least-fixpoint loop serves
``necessary_change`` and the reduct inside each check.  The loop is
semi-naive: after the first step it tests only the unfired rules that read
an atom whose value just changed, and it reaches the fixpoint within
#rules productive steps.  One check, which keeps the rules the candidate
satisfies and reduces only their bodies, serves ``is_justified_revision``
and ``enumerate_revisions``; enumeration reduces each body once.
``reduct`` and ``f_reduct`` build the reducts literally, as rule objects.
Both rule syntaxes reach this module through the annotated atoms' ``atom``
and ``pair`` (``in(a):x`` is ``<x, bot>``, ``out(a):x`` is ``<bot, x>``),
and the reducts rewrite an annotation through ``with_pair``, so nothing
here reads the polarity of a revision atom.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import product
from math import prod

from .lattice import (
    LatticeMismatchError,
    UnsupportedOperationError,
    bot_pair,
    pcomp_pair,
)
from .syntax import OLD, Program
from .valuation import PairValuation, TValuation, satisfies, theta, theta_inv

MPT = "mpt"
FITTING = "fitting"
SEMANTICS = (MPT, FITTING)

DEFAULT_ENUMERATION_CAP = 10**7


class CapExceededError(Exception):
    """The change space of an enumeration exceeds the configured cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"change space of {size} changes exceeds the cap of {cap}")


class FixpointBoundError(Exception):
    """Internal invariant violation: fixpoint iteration ran past its bound,
    which indicates a broken lattice or operator."""


def _check_semantics(semantics):
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


def _check_compatible(p, *valuations):
    for v in valuations:
        if v.lattice is not p.lattice:
            raise LatticeMismatchError("valuation lattice differs from the program's")
        if v.atoms != p.universe:
            raise ValueError("valuation universe differs from the program's")


def _compile(p: Program):
    """Compiled form of the rules: one ``(source_index, head_atom, head_pair,
    body)`` tuple per rule, the body a tuple of ``(atom, pair)`` read off the
    annotated atoms' ``atom`` and ``pair``; satisfaction, the one-step
    operator, and both reducts agree with the literal definitions under
    this encoding."""
    return [(i, r.head.atom, r.head.pair, tuple((b.atom, b.pair) for b in r.body))
            for i, r in enumerate(p.rules)]


def _bottom(p: Program):
    return dict.fromkeys(p.universe, bot_pair(p.lattice))


def _step(rules, vals, bottom):
    """One step of the compiled rules' operator: each atom gets the join of
    the heads of the rules whose bodies ``vals`` satisfies, ``bottom``'s
    value where none fires.  Returns the new values and the source indices
    of the fired rules."""
    new = dict(bottom)
    fired = []
    for i, ha, hp, body in rules:
        if all(pv <= vals[a] for a, pv in body):
            new[ha] = new[ha] | hp
            fired.append(i)
    return new, tuple(fired)


def _fire(p: Program, v):
    """``_step`` on the program's compiled rules over ``v``: a revision-atom
    valuation, read through ``theta``, for revision-atom programs, a pair
    valuation for pair-annotation programs."""
    if p.syntax == OLD:
        if not isinstance(v, TValuation):
            raise TypeError("revision-atom programs are evaluated over TValuation")
        v = theta(v)
    elif not isinstance(v, PairValuation):
        raise TypeError("pair-annotation programs are evaluated over PairValuation")
    _check_compatible(p, v)
    return _step(_compile(p), dict(v.items()), _bottom(p))


def tp_heads(p: Program, v):
    """Heads of the rules whose bodies the valuation satisfies.

    Revision-atom programs take a revision-atom valuation; pair-annotation
    programs take a pair valuation.
    """
    _, fired = _fire(p, v)
    return frozenset(p.rules[i].head for i in fired)


def tp(p: Program, v: TValuation) -> TValuation:
    """One step of the program over a revision-atom valuation: each revision
    atom gets the join of the annotations of its fired heads."""
    if p.syntax != OLD:
        raise UnsupportedOperationError("tp is defined for revision-atom programs")
    new, _ = _fire(p, v)
    return theta_inv(PairValuation(p.lattice, new))


def tpb(p: Program, B: PairValuation) -> PairValuation:
    """One step of the program over a pair valuation; monotone in the
    information ordering."""
    _check_compatible(p, B)
    new, _ = _step(_compile(p), dict(B.items()), _bottom(p))
    return PairValuation(p.lattice, new)


def _lfp(rules, bottom):
    """Least fixpoint of the compiled rules' operator, iterated from the
    bottom valuation.  Returns the fixpoint and, per productive step, the
    source indices of every rule fired so far, in source order.

    The iteration is semi-naive.  A fired rule stays fired along the
    increasing iterates, so each iterate is the join of the heads of a
    growing fired set: a step joins the old values with the heads of the
    rules that fire for the first time, and only the unfired rules that
    read an atom the previous step changed are tested again.  A step is
    productive when some value changes, which takes a newly fired rule, so
    the fixpoint is reached within #rules productive steps; a further
    productive step is an internal invariant violation.  The trace has one
    entry per productive step, so its length is the step count.  The fired
    source indices are kept in one sorted list, which each newly fired rule
    joins by ``insort``; a productive step appends a tuple copy of it, so
    no step sorts the whole fired set again.
    """
    watch = {}
    for k, (_, _, _, body) in enumerate(rules):
        for a, _ in body:
            watch.setdefault(a, []).append(k)
    vals = dict(bottom)
    fired = set()
    sources = []
    trace = []
    todo = range(len(rules))
    for _ in range(len(rules) + 1):
        new = [k for k in todo if all(pv <= vals[a] for a, pv in rules[k][3])]
        changed = set()
        for k in new:
            i, ha, hp, _ = rules[k]
            insort(sources, i)
            joined = vals[ha] | hp
            if joined != vals[ha]:
                vals[ha] = joined
                changed.add(ha)
        if not changed:
            return vals, tuple(trace)
        fired.update(new)
        trace.append(tuple(sources))
        todo = {k for a in changed for k in watch.get(a, ()) if k not in fired}
    raise FixpointBoundError(
        f"no fixpoint within {len(rules) + 1} steps for {len(rules)} rules")


def necessary_change(p: Program) -> PairValuation:
    """Least fixpoint of the program's one-step operator: the change every
    revision must include regardless of the initial valuation."""
    vals, _ = _lfp(_compile(p), _bottom(p))
    return PairValuation(p.lattice, vals)


def is_model(p: Program, B: PairValuation) -> bool:
    """A valuation is a model exactly when it dominates its own one-step
    image."""
    return tpb(p, B).leq_k(B)


def is_smodel(p: Program, B: PairValuation) -> bool:
    """Supported model check: the valuation must dominate its one-step image
    and stay below that image joined with its conflation, so that any
    inconsistency is explicitly or implicitly supported."""
    t = tpb(p, B)
    return t.leq_k(B) and B.leq_k(t | -t)


@dataclass(frozen=True)
class Reduct:
    """Reduced rules aligned one-to-one with their source rule indices."""

    base: Program
    rules: tuple
    sources: tuple[int, ...]

    def program(self) -> Program:
        """The reduced rules as a standalone program (set semantics)."""
        return Program(self.base.syntax, self.base.lattice, self.base.universe, self.rules)


def reduct(p: Program, B_I: PairValuation, B_R: PairValuation) -> Reduct:
    """Two-step reduction: drop every rule whose body the candidate does not
    satisfy, then replace each remaining body annotation by what still has
    to be derived given the evidence the initial valuation already holds."""
    _check_compatible(p, B_I, B_R)
    kept = [(i, r) for i, r in enumerate(p.rules) if satisfies(B_R, r.body)]
    rules = tuple(
        type(r)(r.head, tuple(b.with_pair(pcomp_pair(B_I[b.atom], b.pair)) for b in r.body))
        for _, r in kept)
    return Reduct(p, rules, tuple(i for i, _ in kept))


def f_reduct(p: Program, B_I: PairValuation, B_R: PairValuation) -> Reduct:
    """Deletion-based reduction: drop unsatisfied rules as above, then delete
    from the remaining bodies every atom the initial valuation satisfies."""
    _check_compatible(p, B_I, B_R)
    kept = [(i, r) for i, r in enumerate(p.rules) if satisfies(B_R, r.body)]
    rules = tuple(
        type(r)(r.head, tuple(b for b in r.body if not satisfies(B_I, b)))
        for _, r in kept)
    return Reduct(p, rules, tuple(i for i, _ in kept))


@dataclass(frozen=True)
class RevisionOutcome:
    """Result of checking one candidate: the reduct's necessary change, the
    verdict, and which source rules fired at each fixpoint step."""

    candidate: PairValuation
    semantics: str
    necessary_change: PairValuation
    verified: bool
    trace: tuple[tuple[int, ...], ...]


def _reducer(semantics, B_I):
    """Step two of the reduction as a function of a compiled rule's source
    index and body: mpt replaces each annotation by what is still needed
    beyond ``B_I``, fitting deletes the body atoms ``B_I`` satisfies."""
    if semantics == MPT:
        return lambda _, body: tuple((a, pcomp_pair(B_I[a], pv)) for a, pv in body)
    return lambda _, body: tuple((a, pv) for a, pv in body if not pv <= B_I[a])


def _justify(rules, reduce, B_I, B_R, bottom):
    """Check one candidate ``B_R`` (atom -> pair): keep the rules whose
    bodies it satisfies, reduce their bodies with ``reduce(index, body)``,
    and compare ``(B_I & -C) | C`` with it, ``C`` the kept rules' least
    fixpoint.  Returns (verified, change, trace)."""
    kept = [(i, ha, hp, reduce(i, body)) for i, ha, hp, body in rules
            if all(pv <= B_R[a] for a, pv in body)]
    change, trace = _lfp(kept, bottom)
    ok = all((B_I[a] & -c) | c == B_R[a] for a, c in change.items())
    return ok, change, trace


def is_justified_revision(p, B_I, B_R, semantics=MPT) -> RevisionOutcome:
    """Grounded fixpoint check: the candidate is a justified revision when it
    equals the initial valuation revised by the necessary change of the
    reduct taken with respect to (initial, candidate)."""
    _check_semantics(semantics)
    _check_compatible(p, B_I, B_R)
    i_vals = dict(B_I.items())
    ok, change, trace = _justify(
        _compile(p), _reducer(semantics, i_vals), i_vals, dict(B_R.items()), _bottom(p))
    return RevisionOutcome(B_R, semantics, PairValuation(p.lattice, change), ok, trace)


def enumerate_revisions(p, B_I, semantics=MPT, cap=DEFAULT_ENUMERATION_CAP):
    """All justified revisions of the initial valuation, returned in
    canonical serialization order.

    Every justified revision is ``(B_I & -C) | C`` where ``C`` is the
    necessary change of the reduct.  The reduct keeps rule heads, so
    ``C[a]`` is a join of some of the head annotations on ``a``.  The search
    runs over the product of those per-atom head-join closures (the change
    space, bounded by ``cap``), maps each change to its candidate, and
    checks each distinct candidate.  The closures are finite on every
    lattice, so the search is exact on the unit chain too.
    """
    _check_semantics(semantics)
    _check_compatible(p, B_I)
    lat = p.lattice
    atoms = p.universe
    rules = _compile(p)
    bot = bot_pair(lat)
    # Per atom, every join of a subset of its rule heads, bottom included.
    joins = {a: {bot: None} for a in atoms}
    for _, ha, hp, _ in rules:
        closure = joins[ha]
        for j in tuple(closure):
            closure.setdefault(j | hp)
    size = prod(len(joins[a]) for a in atoms)
    if size > cap:
        raise CapExceededError(size, cap)
    # The candidate is computed atom by atom, so changes that give the same
    # value on an atom collapse before the product is taken.
    per_atom = [
        tuple(dict.fromkeys((B_I[a] & -c) | c for c in joins[a])) for a in atoms]
    i_vals = dict(B_I.items())
    reduce = _reducer(semantics, i_vals)
    reduced = [reduce(i, body) for i, _, _, body in rules]

    def reduce_once(i, _):
        return reduced[i]

    bottom = _bottom(p)
    found = []
    for cand in product(*per_atom):
        B_R = dict(zip(atoms, cand))
        ok, change, trace = _justify(rules, reduce_once, i_vals, B_R, bottom)
        if ok:
            found.append(RevisionOutcome(
                PairValuation(lat, B_R), semantics, PairValuation(lat, change), True, trace))
    found.sort(key=lambda o: o.candidate.canonical_text())
    return found
