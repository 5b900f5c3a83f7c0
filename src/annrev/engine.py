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

All of it runs on integers.  Each call takes its lattice's codes
(``Lattice.codec``): an element is the bitmask of the join-irreducibles
below it, and an evidence pair is one int, the positive side in the low
bits and the negative side shifted above them.  So ``<=`` is
``x & y == x``, join is ``|``, meet is ``&``, conflation is one complement
lookup per side, and the mpt reduct weakens a body annotation ``b`` to
``b & ~a``, whose down-closure is ``pcomp``.  A valuation is a sequence of
pair codes in universe order, and the compiled form of a rule is a
``(head_atom, head_code, body)`` tuple at its source index, atoms
numbered in universe order and the body a tuple of ``(atom, code)``.
Each call compiles its program's literals with one encoder
(``syntax._encode_rules``), whoever built the program; on the unit chain
the codes depend on the call's values.  Elements, pair values,
valuations and outcomes are the API boundary: a call encodes its inputs
once and decodes each value it returns once.

One step function serves ``tp``, ``tp_heads``, ``tpb`` and both model
checks, and one least-fixpoint loop serves ``necessary_change`` and the
reduct inside each check.  The loop is semi-naive: after the first step it
tests only the unfired rules that read an atom whose value just changed,
and it reaches the fixpoint within #rules productive steps.  It records
only the rules that first fire at each step, and an outcome keeps just
these ``steps``: its cumulative ``trace``, quadratic in the derivation
depth, is built from them only when it is read.  One check, which keeps
the rules the candidate satisfies and reduces only their bodies, serves
``is_justified_revision`` and confirms each revision that
``enumerate_revisions`` finds.  Enumeration reduces each body and builds
the loop's dependency lists once, then searches over which rules a
revision keeps: the fixpoints of the rules kept so far and of the rules
not yet dropped bound every revision below a search node, and those
bounds decide rules before the search branches on one.

``reduct`` and ``f_reduct`` build the reducts literally, as rule objects.
Both rule syntaxes reach this module as pair codes, which ``syntax``
encodes, or through the annotated atoms' ``atom`` and ``pair``
(``in(a):x`` is ``<x, bot>``, ``out(a):x`` is ``<bot, x>``), and the
reducts rewrite an annotation through ``with_pair``, so nothing here
reads the polarity of a revision atom.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain

from .lattice import LatticeMismatchError, UnsupportedOperationError, pcomp_pair
from .syntax import OLD, Program, _encode_rules
from .valuation import PairValuation, TValuation, satisfies, theta, theta_inv

MPT = "mpt"
FITTING = "fitting"
SEMANTICS = (MPT, FITTING)


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


def _compile(p: Program, *valuations):
    """The call's codec and compiled rules (``syntax._encode_rules``).

    Rule ``i`` becomes ``rules[i] = (head_atom, head_code, body)``, the
    body a tuple of ``(atom, code)``; satisfaction, the one-step operator,
    and both reducts agree with the literal definitions under this
    encoding.  A finite lattice has one codec; the unit chain's covers the
    rules' annotations and the values of ``valuations``, so its codes are
    the call's own."""
    values = (e for v in valuations for _, pv in v.items() for e in (pv.pos, pv.neg))
    codec = p.lattice.codec(chain(p._annotations(), values))
    return codec, _encode_rules(codec, p)


def _encode(codec, v):
    """A valuation's pair codes in universe order."""
    return tuple([codec.pair(pv) for _, pv in v.items()])


def _decode(p, codec, vals):
    return PairValuation(p.lattice, zip(p.universe, map(codec.unpair, vals)))


def _step(rules, vals):
    """One step of the compiled rules' operator: each atom gets the join of
    the heads of the rules whose bodies ``vals`` satisfies, bottom where
    none fires.  Returns the new values and the source indices of the fired
    rules."""
    new = [0] * len(vals)
    fired = []
    for i, (ha, hc, body) in enumerate(rules):
        if all(c & vals[a] == c for a, c in body):
            new[ha] |= hc
            fired.append(i)
    return new, tuple(fired)


def _image(p: Program, B: PairValuation):
    """``_step`` on the program's compiled rules over ``B``.  Returns the
    codec, ``B``'s codes, the new values and the fired source indices."""
    _check_compatible(p, B)
    codec, rules = _compile(p, B)
    b = _encode(codec, B)
    return (codec, b, *_step(rules, b))


def _fire(p: Program, v):
    """``_image`` over ``v``: a revision-atom valuation, read through
    ``theta``, for revision-atom programs, a pair valuation for
    pair-annotation programs."""
    if p.syntax == OLD:
        if not isinstance(v, TValuation):
            raise TypeError("revision-atom programs are evaluated over TValuation")
        v = theta(v)
    elif not isinstance(v, PairValuation):
        raise TypeError("pair-annotation programs are evaluated over PairValuation")
    return _image(p, v)


def tp_heads(p: Program, v):
    """Heads of the rules whose bodies the valuation satisfies.

    Revision-atom programs take a revision-atom valuation; pair-annotation
    programs take a pair valuation.
    """
    *_, fired = _fire(p, v)
    return frozenset(p.rules[i].head for i in fired)


def tp(p: Program, v: TValuation) -> TValuation:
    """One step of the program over a revision-atom valuation: each revision
    atom gets the join of the annotations of its fired heads."""
    if p.syntax != OLD:
        raise UnsupportedOperationError("tp is defined for revision-atom programs")
    codec, _, new, _ = _fire(p, v)
    return theta_inv(_decode(p, codec, new))


def tpb(p: Program, B: PairValuation) -> PairValuation:
    """One step of the program over a pair valuation; monotone in the
    information ordering."""
    codec, _, new, _ = _image(p, B)
    return _decode(p, codec, new)


def _watch(rules, n):
    """Per atom ``0 <= a < n``, the indices of the rules whose bodies read
    it: the dependency lists of ``_lfp``."""
    watch = [[] for _ in range(n)]
    for k, (_, _, body) in enumerate(rules):
        for a, _ in body:
            watch[a].append(k)
    return watch


def _lfp(rules, watch, kept):
    """Least fixpoint of the operator of the rules ``kept`` (indices into
    ``rules``, whose dependency lists are ``watch``), iterated from the
    bottom valuation.  Returns the fixpoint and, per productive step, the
    indices of the rules that first fire at that step, in source order.

    The iteration is semi-naive.  A fired rule stays fired along the
    increasing iterates, so each iterate is the join of the heads of a
    growing fired set: a step joins the old values with the heads of the
    rules that fire for the first time, and only the kept, unfired rules
    that read an atom the previous step changed are tested again.  A step
    is productive when some value changes, which takes a newly fired rule,
    so the fixpoint is reached within #rules productive steps; a further
    productive step is an internal invariant violation.  There is one entry
    per productive step, so the entries' count is the step count; they are
    disjoint, and ``_trace`` accumulates them into a trace.
    """
    vals = [0] * len(watch)
    live, todo = set(kept), kept
    steps = []
    for _ in range(len(kept) + 1):
        new = sorted([k for k in todo if all(c & vals[a] == c for a, c in rules[k][2])])
        changed = set()
        for k in new:
            ha, hc, _ = rules[k]
            if hc & ~vals[ha]:
                vals[ha] |= hc
                changed.add(ha)
        if not changed:
            return vals, tuple(steps)
        live.difference_update(new)
        steps.append(tuple(new))
        todo = {k for a in changed for k in watch[a] if k in live}
    raise FixpointBoundError(
        f"no fixpoint within {len(kept) + 1} steps for {len(kept)} rules")


def _trace(steps):
    """Entry ``k``: the rules fired by ``_lfp``'s step ``k``, in source order."""
    fired, trace = [], []
    for step in steps:
        for i in step:
            insort(fired, i)
        trace.append(tuple(fired))
    return tuple(trace)


def necessary_change(p: Program) -> PairValuation:
    """Least fixpoint of the program's one-step operator: the change every
    revision must include regardless of the initial valuation."""
    codec, rules = _compile(p)
    vals, _ = _lfp(rules, _watch(rules, len(p.universe)), range(len(rules)))
    return _decode(p, codec, vals)


def model_status(p: Program, B: PairValuation) -> tuple[bool, bool]:
    """Whether ``B`` is a model and whether it is a supported model, both
    read off one step ``T`` of the operator: a model dominates ``T``, and
    a supported model is a model that stays below ``T | -T``, so that any
    inconsistency is explicitly or implicitly supported."""
    codec, b, t, _ = _image(p, B)
    if not all(x & y == x for x, y in zip(t, b)):
        return False, False
    conflate = codec.conflate
    return True, all(y & (x | conflate(x)) == y for x, y in zip(t, b))


def is_model(p: Program, B: PairValuation) -> bool:
    """A valuation is a model exactly when it dominates its own one-step
    image."""
    return model_status(p, B)[0]


def is_smodel(p: Program, B: PairValuation) -> bool:
    """Supported model check: the valuation must dominate its one-step image
    and stay below that image joined with its conflation."""
    return model_status(p, B)[1]


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
    verdict, and which source rules fired at each fixpoint step.

    ``steps`` has one entry per productive step of the reduct's fixpoint:
    the source indices, ascending, of the rules that first fire at that
    step.  ``trace`` accumulates them: entry ``k`` holds every rule fired
    by step ``k``, in source order.  It is built from ``steps`` on each
    read, and two outcomes' steps are equal exactly when their traces are.
    """

    candidate: PairValuation
    semantics: str
    necessary_change: PairValuation
    verified: bool
    steps: tuple[tuple[int, ...], ...]

    @property
    def trace(self) -> tuple[tuple[int, ...], ...]:
        return _trace(self.steps)


def _reduce(rules, semantics, bi):
    """Step two of the reduction on compiled rules, given the initial
    values ``bi``: mpt weakens each body annotation ``c`` on atom ``a`` to
    ``c & ~bi[a]``, the bits of ``c`` that ``bi`` lacks, and fitting deletes
    the body atoms ``bi`` satisfies.  Both drop a literal ``bi`` satisfies,
    since mpt would weaken it to bottom, which every value satisfies.

    The down-closure of mpt's mask is the annotation's ``pcomp``, what is
    still needed beyond ``bi[a]``.  A reduced body is only tested with
    ``c & v == c`` against ``_lfp``'s values, which are joins of head codes
    and so down-sets, and a down-set holds a mask exactly when it holds the
    mask's down-closure: the mask gives the closure's verdicts."""
    mpt = semantics == MPT
    return [(ha, hc, tuple([(a, c & ~bi[a] if mpt else c) for a, c in body if c & bi[a] != c]))
            for ha, hc, body in rules]


def _checker(p, semantics, B_I, *valuations):
    """The candidate check that one call shares among its candidates.

    Returns the codec and four functions on pair codes.  ``fix(kept)`` is
    the least fixpoint of the reduced rules in the index set ``kept`` and
    its steps; ``revise(low, high)`` is ``(B_I & -high) | low``;
    ``satisfied(br)`` is the set of rules whose bodies ``br`` satisfies.
    ``justify(br)`` checks the candidate ``br``, a tuple of pair codes: it
    keeps the rules ``br`` satisfies, takes the least fixpoint ``C`` of
    their reduced bodies, and compares ``(B_I & -C) | C`` with ``br``.  It
    returns (verified, change, steps).
    """
    codec, rules = _compile(p, B_I, *valuations)
    bi = _encode(codec, B_I)
    conflate = codec.conflate
    reduced = _reduce(rules, semantics, bi)
    watch = _watch(reduced, len(bi))

    def fix(kept):
        return _lfp(reduced, watch, kept)

    def revise(low, high):
        return tuple([(b & conflate(h)) | l for b, l, h in zip(bi, low, high)])

    def satisfied(br):
        return {k for k, (_, _, body) in enumerate(rules)
                if all(c & br[a] == c for a, c in body)}

    def justify(br):
        change, steps = fix(satisfied(br))
        return revise(change, change) == br, change, steps

    return codec, fix, revise, satisfied, justify


def is_justified_revision(p, B_I, B_R, semantics=MPT) -> RevisionOutcome:
    """Grounded fixpoint check: the candidate is a justified revision when it
    equals the initial valuation revised by the necessary change of the
    reduct taken with respect to (initial, candidate)."""
    _check_semantics(semantics)
    _check_compatible(p, B_I, B_R)
    codec, *_, justify = _checker(p, semantics, B_I, B_R)
    ok, change, steps = justify(_encode(codec, B_R))
    return RevisionOutcome(B_R, semantics, _decode(p, codec, change), ok, steps)


def enumerate_revisions(p, B_I, semantics=MPT):
    """All justified revisions of the initial valuation, returned in
    canonical serialization order.

    A justified revision is fixed by the set ``K`` of rules whose bodies it
    satisfies: it is ``(B_I & -C) | C`` for the necessary change ``C`` of
    ``K``'s reduct.  The search decides rules.  A node keeps some rules and
    allows the rest that it has not dropped; ``L``, the fixpoint of the
    kept rules, and ``U``, that of the allowed ones, bound ``C`` for every
    ``K`` between them, so every such revision lies between
    ``(B_I & -U) | L`` and ``(B_I & -L) | U``.
    A rule whose body the lower bound satisfies must be kept, one whose
    body the upper bound fails must be dropped, and a node whose kept rules
    this would drop, or whose dropped rules it would keep, has no revision.
    When the bounds settle, the node branches on its lowest undecided rule;
    a node with none has ``L == U`` and one candidate, which ``justify``
    confirms.  Each leaf keeps its own rule set, so no revision is found
    twice, and the search is exact on every lattice, the unit chain too.
    """
    _check_semantics(semantics)
    _check_compatible(p, B_I)
    codec, fix, revise, satisfied, justify = _checker(p, semantics, B_I)
    # A node is (kept, allowed, L, U); a bound is None until computed, and
    # each child inherits the one its decision leaves unchanged.
    found, nodes = [], [(frozenset(), frozenset(range(len(p))), [0] * len(p.universe), None)]
    while nodes:
        kept, allowed, low, high = nodes.pop()
        while kept <= allowed:
            if low is None:
                low = fix(kept)[0]
            if high is None:
                high = low if kept == allowed else fix(allowed)[0]
            must, may = satisfied(revise(low, high)), satisfied(revise(high, low))
            if must <= kept and allowed <= may:
                break
            if not must <= kept:
                kept, low = kept | must, None
            if not allowed <= may:
                allowed, high = allowed & may, None
        else:  # some rule is both kept and dropped
            continue
        if kept != allowed:
            k = min(allowed - kept)
            nodes += [(kept | {k}, allowed, None, high), (kept, allowed - {k}, low, None)]
            continue
        cand = revise(low, low)
        ok, change, steps = justify(cand)
        if ok:
            found.append(RevisionOutcome(_decode(p, codec, cand), semantics,
                                         _decode(p, codec, change), True, steps))
    found.sort(key=lambda o: o.candidate.canonical_text())
    return found
