"""Valuations.

A pair valuation maps every universe atom to an evidence pair; a plain
valuation maps every revision atom to a single strength.  The two views are
interchangeable through theta.  This module also houses satisfaction, which
reads every annotated atom, of either rule syntax, as the evidence pair the
atom classes encode it to; the application of a change valuation; and the
least-change difference: per atom a least fixpoint of relative
pseudo-complements, computed on the lattice's pair codes as the engine
computes, with transformability read off its result.
"""

from __future__ import annotations

from .lattice import (
    Elem,
    LatticeMismatchError,
    PairValue,
    bot_pair,
    top_pair,
)
from .syntax import (
    AnnotatedRevisionAtom,
    NewRule,
    OldRule,
    PairAnnotatedAtom,
    Program,
    RevisionAtom,
    rin,
    rout,
)


class PairValuation:
    """Immutable total mapping from universe atoms to evidence pairs."""

    __slots__ = ("lattice", "_vals", "_atoms")

    def __init__(self, lattice, vals):
        vals = dict(vals)
        for a, pv in vals.items():
            if not isinstance(pv, PairValue):
                raise TypeError(f"value for {a!r} is not a pair value")
            if pv.lattice is not lattice:
                raise LatticeMismatchError(f"value for {a!r} comes from a different lattice")
        self.lattice = lattice
        self._vals = vals
        self._atoms = tuple(sorted(vals))

    @classmethod
    def build(cls, lattice, universe, entries=None):
        """Total valuation over the universe; atoms without an entry get the
        bottom pair (no evidence either way)."""
        base = dict.fromkeys(universe, bot_pair(lattice))
        if entries:
            for a, pv in dict(entries).items():
                if a not in base:
                    raise ValueError(f"atom {a!r} not in the universe")
                base[a] = pv
        return cls(lattice, base)

    @classmethod
    def _parsed(cls, lattice, universe, entries):
        """``build`` of the parser's entries, whose atoms and pairs it has
        checked: they are merged into the bottom valuation once and not
        checked again."""
        self = cls.__new__(cls)
        self.lattice = lattice
        self._vals = dict.fromkeys(universe, bot_pair(lattice))
        self._vals.update(entries)
        self._atoms = tuple(sorted(self._vals))
        return self

    @classmethod
    def bottom(cls, lattice, universe):
        return cls.build(lattice, universe)

    @classmethod
    def top(cls, lattice, universe):
        t = top_pair(lattice)
        return cls(lattice, {a: t for a in universe})

    @property
    def atoms(self):
        return self._atoms

    def __getitem__(self, atom) -> PairValue:
        return self._vals[atom]

    def items(self):
        return tuple((a, self._vals[a]) for a in self._atoms)

    def __eq__(self, other):
        if not isinstance(other, PairValuation):
            return NotImplemented
        return self._atoms == other._atoms and self._vals == other._vals

    def __hash__(self):
        return hash(tuple((a, self._vals[a]) for a in self._atoms))

    def _zip(self, other):
        if other.lattice is not self.lattice:
            raise LatticeMismatchError("valuations over different lattices")
        if other._atoms != self._atoms:
            raise ValueError("valuations over different universes")
        return ((a, self._vals[a], other._vals[a]) for a in self._atoms)

    def __and__(self, other):
        return PairValuation(self.lattice, {a: x & y for a, x, y in self._zip(other)})

    def __or__(self, other):
        return PairValuation(self.lattice, {a: x | y for a, x, y in self._zip(other)})

    def __neg__(self):
        return PairValuation(self.lattice, {a: -pv for a, pv in self._vals.items()})

    def leq_k(self, other) -> bool:
        return all(x <= y for _, x, y in self._zip(other))

    def __le__(self, other):
        return self.leq_k(other)

    def __ge__(self, other):
        return other.leq_k(self)

    def is_consistent(self) -> bool:
        return all(pv.is_consistent() for pv in self._vals.values())

    def replace(self, atom, pv) -> PairValuation:
        if atom not in self._vals:
            raise ValueError(f"atom {atom!r} not in the universe")
        vals = dict(self._vals)
        vals[atom] = pv
        return PairValuation(self.lattice, vals)

    def canonical_text(self) -> str:
        """The serialized valuation block body; doubles as the canonical
        sort key for enumeration output."""
        return "\n".join(f"{a} = {self._vals[a]!r}." for a in self._atoms)

    def __repr__(self):
        inner = "; ".join(f"{a}={self._vals[a]!r}" for a in self._atoms)
        return f"valuation({inner})"


class TValuation:
    """Immutable total mapping from revision atoms to lattice elements."""

    __slots__ = ("lattice", "_vals", "_universe")

    def __init__(self, lattice, vals):
        vals = dict(vals)
        for l, e in vals.items():
            if not isinstance(l, RevisionAtom):
                raise TypeError(f"key {l!r} is not a revision atom")
            if not isinstance(e, Elem):
                raise TypeError(f"value for {l} is not a lattice element")
            if e.lattice is not lattice:
                raise LatticeMismatchError(f"value for {l} comes from a different lattice")
        universe = sorted({l.atom for l in vals})
        for a in universe:
            if rin(a) not in vals or rout(a) not in vals:
                raise ValueError(f"valuation not total: missing a value for atom {a!r}")
        self.lattice = lattice
        self._vals = vals
        self._universe = tuple(universe)

    @classmethod
    def build(cls, lattice, universe, entries=None):
        base = {}
        for a in universe:
            base[rin(a)] = lattice.bot
            base[rout(a)] = lattice.bot
        if entries:
            for l, e in dict(entries).items():
                if l not in base:
                    raise ValueError(f"revision atom {l} not over the universe")
                base[l] = e
        return cls(lattice, base)

    @property
    def universe(self):
        return self._universe

    def __getitem__(self, ratom) -> Elem:
        return self._vals[ratom]

    def items(self):
        out = []
        for a in self._universe:
            out.append((rin(a), self._vals[rin(a)]))
            out.append((rout(a), self._vals[rout(a)]))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, TValuation):
            return NotImplemented
        return self._universe == other._universe and self._vals == other._vals

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        inner = "; ".join(f"{l}={e!r}" for l, e in self.items())
        return f"tvaluation({inner})"


def theta(v: TValuation) -> PairValuation:
    """Fold the two revision-atom strengths of each atom into one pair."""
    return PairValuation(v.lattice, {
        a: PairValue(v[rin(a)], v[rout(a)]) for a in v.universe})


def theta_inv(B: PairValuation) -> TValuation:
    """Split each evidence pair back into its two revision-atom strengths."""
    vals = {}
    for a, pv in B.items():
        vals[rin(a)] = pv.pos
        vals[rout(a)] = pv.neg
    return TValuation(B.lattice, vals)


def satisfies(B: PairValuation, x) -> bool:
    """Satisfaction of an annotated atom, a body, a rule, or a program.

    A rule is satisfied when its head is satisfied whenever its body is; a
    valuation satisfying every rule of a program is a model of it.
    """
    if isinstance(x, (AnnotatedRevisionAtom, PairAnnotatedAtom)):
        return x.pair <= B[x.atom]
    if isinstance(x, (OldRule, NewRule)):
        return not satisfies(B, x.body) or satisfies(B, x.head)
    if isinstance(x, Program):
        return all(satisfies(B, r) for r in x.rules)
    if isinstance(x, (tuple, list, set, frozenset)):
        return all(satisfies(B, a) for a in x)
    raise TypeError(f"cannot check satisfaction of {type(x).__name__}")


def apply_change(B: PairValuation, C: PairValuation) -> PairValuation:
    """Revise B by C: C's explicit evidence is enforced and its conflation
    caps what inertia carries over from B."""
    return (B & -C) | C


def transformable(B: PairValuation, R: PairValuation) -> bool:
    """Whether some change valuation turns B into R: whether the least
    fixpoint that ``diff`` computes solves the equation."""
    return _least_change(R, B)[1]


def diff(R: PairValuation, B: PairValuation) -> PairValuation:
    """Least change valuation transforming B into R, or the all-top
    valuation when no change valuation does; ``transformable`` tells the
    two apart."""
    return _least_change(R, B)[0]


def _least_change(R, B):
    """``diff(R, B)`` and whether it transforms B into R.

    Per atom, ``c`` solves ``(b & -c) | c == r`` exactly when ``c <= r``
    and ``c >= pcomp(b & -c, r) | pcomp(-b, -r)``: the first term restates
    ``r <= (b & -c) | c``, and the second restates ``b & -c <= r``, that
    is ``-r <= -b | c``, through De Morgan.  The bound is monotone in
    ``c``, so its least fixpoint, iterated from the bottom pair, lies below
    every solution: it is the least solution when it solves the equation,
    and there is none when it does not.  Like the engine, it runs on pair
    codes, from one codec per call over the values of ``R`` and ``B``.
    """
    if R.lattice is not B.lattice:
        raise LatticeMismatchError("valuations over different lattices")
    if R.atoms != B.atoms:
        raise ValueError("valuations over different universes")
    lat = B.lattice
    codec = lat.codec(e for v in (R, B) for _, pv in v.items() for e in (pv.pos, pv.neg))
    pcomp, conflate = codec.pcomp, codec.conflate
    out = {}
    for a in B.atoms:
        r, b = codec.pair(R[a]), codec.pair(B[a])
        floor = pcomp(conflate(b), conflate(r))
        x, prev = 0, None
        while x != prev:
            prev, x = x, pcomp(b & conflate(x), r) | floor
        if (b & conflate(x)) | x != r:
            return PairValuation.top(lat, B.atoms), False
        out[a] = codec.unpair(x)
    return PairValuation(lat, out), True
