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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .lattice import (
    LatticeMismatchError,
    PairValue,
    UnsupportedOperationError,
    bot_pair,
    pcomp_pair,
)
from .syntax import (
    IN,
    OLD,
    AnnotatedRevisionAtom,
    NewRule,
    OldRule,
    PairAnnotatedAtom,
    Program,
    rin,
    rout,
)
from .valuation import PairValuation, TValuation, apply_change, satisfies, theta_inv

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


@dataclass
class FixpointMonitor:
    """Instrumentation for every necessary-change computation: how many ran,
    the worst iteration count seen, and whether any exceeded its bound."""

    runs: int = 0
    violations: int = 0
    worst_iterations: int = 0
    worst_bound: int = 0

    def record(self, iterations, bound):
        self.runs += 1
        if iterations > self.worst_iterations:
            self.worst_iterations = iterations
            self.worst_bound = bound
        if iterations > bound:
            self.violations += 1

    def reset(self):
        self.runs = 0
        self.violations = 0
        self.worst_iterations = 0
        self.worst_bound = 0


fixpoint_monitor = FixpointMonitor()


def _check_semantics(semantics):
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


def _check_compatible(p, *valuations):
    for v in valuations:
        if v.lattice is not p.lattice:
            raise LatticeMismatchError("valuation lattice differs from the program's")
        if v.atoms != p.universe:
            raise ValueError("valuation universe differs from the program's")


def _compile_rule(rule, lattice):
    """Internal pair form of a rule: (head_atom, head_pair, body), the body a
    tuple of (atom, pair).  Revision-atom annotations occupy one side of the
    pair, the other side resting at bottom; satisfaction, the one-step
    operator, and both reducts agree with the literal definitions under this
    encoding."""
    bot = lattice.bot
    if isinstance(rule, OldRule):
        def as_pair(a):
            if a.ratom.polarity == IN:
                return a.ratom.atom, PairValue(a.ann, bot)
            return a.ratom.atom, PairValue(bot, a.ann)
        ha, hp = as_pair(rule.head)
        return ha, hp, tuple(as_pair(b) for b in rule.body)
    ha, hp = rule.head.atom, rule.head.ann
    return ha, hp, tuple((b.atom, b.ann) for b in rule.body)


def _compile(p: Program):
    return [_compile_rule(r, p.lattice) for r in p.rules]


def tp_heads(p: Program, v):
    """Heads of the rules whose bodies the valuation satisfies.

    Revision-atom programs take a revision-atom valuation; pair-annotation
    programs take a pair valuation.
    """
    if p.syntax == OLD:
        if not isinstance(v, TValuation):
            raise TypeError("revision-atom programs are evaluated over TValuation")
        return frozenset(
            r.head for r in p.rules
            if all(b.ann <= v[b.ratom] for b in r.body))
    if not isinstance(v, PairValuation):
        raise TypeError("pair-annotation programs are evaluated over PairValuation")
    return frozenset(
        r.head for r in p.rules
        if all(b.ann <= v[b.atom] for b in r.body))


def tp(p: Program, v: TValuation) -> TValuation:
    """One step of the program over a revision-atom valuation: each revision
    atom gets the join of the annotations of its fired heads."""
    if p.syntax != OLD:
        raise UnsupportedOperationError("tp is defined for revision-atom programs")
    lat = p.lattice
    acc = {}
    for a in p.universe:
        acc[rin(a)] = lat.bot
        acc[rout(a)] = lat.bot
    for h in tp_heads(p, v):
        acc[h.ratom] = acc[h.ratom] | h.ann
    return TValuation(lat, acc)


def tpb(p: Program, B: PairValuation) -> PairValuation:
    """One step of the program over a pair valuation; monotone in the
    information ordering."""
    _check_compatible(p, B)
    lat = p.lattice
    vals = {a: bot_pair(lat) for a in p.universe}
    for ha, hp, body in _compile(p):
        if all(pv <= B[a] for a, pv in body):
            vals[ha] = vals[ha] | hp
    return PairValuation(lat, vals)


def _nc_compiled(crules, lattice, universe):
    """Least fixpoint of the compiled rules' operator, iterated from the
    bottom valuation.

    The fired-rule set can only grow along the increasing iterates, so the
    fixpoint is reached within (#rules + 1) productive steps; running past
    #rules + 2 applications is an internal invariant violation.
    """
    bound = len(crules) + 1
    bp = bot_pair(lattice)
    vals = {a: bp for a in universe}
    trace = []
    iterations = 0
    for _ in range(len(crules) + 2):
        fired = tuple(
            i for i, (ha, hp, body) in enumerate(crules)
            if all(pv <= vals[a] for a, pv in body))
        new = {a: bp for a in universe}
        for i in fired:
            ha, hp, _ = crules[i]
            new[ha] = new[ha] | hp
        if new == vals:
            fixpoint_monitor.record(iterations, bound)
            if iterations > bound:
                raise FixpointBoundError(
                    f"fixpoint took {iterations} productive steps for {len(crules)} rules")
            return vals, tuple(trace), iterations
        trace.append(fired)
        vals = new
        iterations += 1
    raise FixpointBoundError(
        f"no fixpoint within {len(crules) + 2} applications for {len(crules)} rules")


def necessary_change(p: Program) -> PairValuation:
    """Least fixpoint of the program's one-step operator: the change every
    revision must include regardless of the initial valuation."""
    vals, _, _ = _nc_compiled(_compile(p), p.lattice, p.universe)
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
    lat = p.lattice
    if p.syntax == OLD:
        v_i = theta_inv(B_I)
        rules = tuple(
            OldRule(r.head, tuple(
                AnnotatedRevisionAtom(b.ratom, lat.pcomp(v_i[b.ratom], b.ann))
                for b in r.body))
            for _, r in kept)
    else:
        rules = tuple(
            NewRule(r.head, tuple(
                PairAnnotatedAtom(b.atom, pcomp_pair(B_I[b.atom], b.ann))
                for b in r.body))
            for _, r in kept)
    return Reduct(p, rules, tuple(i for i, _ in kept))


def f_reduct(p: Program, B_I: PairValuation, B_R: PairValuation) -> Reduct:
    """Deletion-based reduction: drop unsatisfied rules as above, then delete
    from the remaining bodies every atom the initial valuation satisfies."""
    _check_compatible(p, B_I, B_R)
    kept = [(i, r) for i, r in enumerate(p.rules) if satisfies(B_R, r.body)]
    if p.syntax == OLD:
        rules = tuple(
            OldRule(r.head, tuple(b for b in r.body if not satisfies(B_I, b)))
            for _, r in kept)
    else:
        rules = tuple(
            NewRule(r.head, tuple(b for b in r.body if not satisfies(B_I, b)))
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


def is_justified_revision(p, B_I, B_R, semantics=MPT) -> RevisionOutcome:
    """Grounded fixpoint check: the candidate is a justified revision when it
    equals the initial valuation revised by the necessary change of the
    reduct taken with respect to (initial, candidate)."""
    _check_semantics(semantics)
    red = reduct(p, B_I, B_R) if semantics == MPT else f_reduct(p, B_I, B_R)
    crules = [_compile_rule(r, p.lattice) for r in red.rules]
    vals, trace, _ = _nc_compiled(crules, p.lattice, p.universe)
    change = PairValuation(p.lattice, vals)
    verified = apply_change(B_I, change) == B_R
    mapped = tuple(tuple(red.sources[i] for i in step) for step in trace)
    return RevisionOutcome(B_R, semantics, change, verified, mapped)


def _precompute(p: Program, B_I: PairValuation, semantics):
    """Per-rule data reused across candidates: the original body (reduction
    step one depends on the candidate) and the body already reduced against
    the initial valuation (step two does not)."""
    out = []
    for ha, hp, body in _compile(p):
        if semantics == MPT:
            reduced = tuple((a, pcomp_pair(B_I[a], pv)) for a, pv in body)
        else:
            reduced = tuple((a, pv) for a, pv in body if not pv <= B_I[a])
        out.append((ha, hp, body, reduced))
    return out


def _verify_fast(pre, atoms, bot, b_i_vals, cand):
    """Check one candidate, given precomputed reduced bodies.  Returns
    (verified, change_by_atom, trace_of_source_indices)."""
    vals = dict(zip(atoms, cand))
    selected = [
        k for k, (ha, hp, body, red) in enumerate(pre)
        if all(pv <= vals[a] for a, pv in body)]
    bound = len(selected) + 1
    change = {a: bot for a in atoms}
    trace = []
    iterations = 0
    for _ in range(len(selected) + 2):
        fired = tuple(
            k for k in selected
            if all(pv <= change[a] for a, pv in pre[k][3]))
        new = {a: bot for a in atoms}
        for k in fired:
            ha, hp = pre[k][0], pre[k][1]
            new[ha] = new[ha] | hp
        if new == change:
            fixpoint_monitor.record(iterations, bound)
            if iterations > bound:
                raise FixpointBoundError(
                    f"fixpoint took {iterations} productive steps for {len(selected)} rules")
            break
        trace.append(fired)
        change = new
        iterations += 1
    else:
        raise FixpointBoundError(
            f"no fixpoint within {len(selected) + 2} applications")
    ok = all(((b_i_vals[a] & -change[a]) | change[a]) == vals[a] for a in atoms)
    return ok, change, tuple(trace)


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
    pre = _precompute(p, B_I, semantics)
    bot = bot_pair(lat)
    # Per atom, every join of a subset of its rule heads, bottom included.
    joins = {a: {bot: None} for a in atoms}
    for ha, hp, _, _ in pre:
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
    b_i_vals = {a: B_I[a] for a in atoms}
    found = []
    for cand in product(*per_atom):
        ok, change, trace = _verify_fast(pre, atoms, bot, b_i_vals, cand)
        if ok:
            found.append(RevisionOutcome(
                PairValuation(lat, dict(zip(atoms, cand))), semantics,
                PairValuation(lat, change), True, trace))
    found.sort(key=lambda o: o.candidate.canonical_text())
    return found
