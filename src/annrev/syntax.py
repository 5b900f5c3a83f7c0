"""Rules and programs.

Two rule syntaxes coexist.  Revision-atom rules annotate in(a)/out(a) with
single lattice elements; pair-annotation rules annotate atoms directly with
evidence pairs.  Both annotated-atom classes expose the one encoding that
relates them: ``in(a):x`` is the pair ``<x, bot>`` on ``a`` and
``out(a):x`` the pair ``<bot, x>``.  Every consumer reads ``atom`` and
``pair`` and rewrites an annotation through ``with_pair``, and the
engine's pair codes of a program's literals are encoded here too
(``_encode_rules``), so no other module maps a polarity to a side.
Structural transformations connect the two syntaxes and embed
unannotated revision rules over the two-valued lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain as _chain

from .lattice import (
    Elem,
    LatticeMismatchError,
    PairValue,
    TwoLattice,
    UnsupportedOperationError,
)

IN = "in"
OUT = "out"

OLD = "old"
NEW = "new"


@dataclass(frozen=True)
class RevisionAtom:
    """in(a) or out(a): an assertion about membership of atom a."""

    polarity: str
    atom: str

    def __post_init__(self):
        if self.polarity not in (IN, OUT):
            raise ValueError(f"polarity must be {IN!r} or {OUT!r}, got {self.polarity!r}")

    def dual(self) -> RevisionAtom:
        return RevisionAtom(OUT if self.polarity == IN else IN, self.atom)

    def __str__(self):
        return f"{self.polarity}({self.atom})"


def rin(atom: str) -> RevisionAtom:
    return RevisionAtom(IN, atom)


def rout(atom: str) -> RevisionAtom:
    return RevisionAtom(OUT, atom)


@dataclass(frozen=True)
class AnnotatedRevisionAtom:
    """A revision atom together with an evidence strength."""

    ratom: RevisionAtom
    ann: Elem

    @property
    def atom(self) -> str:
        return self.ratom.atom

    @property
    def pair(self) -> PairValue:
        """The annotation on its own side of a pair, bottom on the other."""
        bot = self.ann.lattice.bot
        if self.ratom.polarity == IN:
            return PairValue(self.ann, bot)
        return PairValue(bot, self.ann)

    def with_pair(self, pv: PairValue) -> AnnotatedRevisionAtom:
        """The same revision atom annotated with ``pv``'s component on its
        side."""
        return AnnotatedRevisionAtom(self.ratom, pv.pos if self.ratom.polarity == IN else pv.neg)

    def __str__(self):
        return f"{self.ratom}:{self.ann!r}"


@dataclass(frozen=True)
class PairAnnotatedAtom:
    """An atom annotated with an evidence pair."""

    atom: str
    ann: PairValue

    @property
    def pair(self) -> PairValue:
        return self.ann

    def with_pair(self, pv: PairValue) -> PairAnnotatedAtom:
        return PairAnnotatedAtom(self.atom, pv)

    def __str__(self):
        return f"{self.atom}:<{self.ann.pos!r},{self.ann.neg!r}>"


class _RuleText:
    """The text form both rule syntaxes share: ``head <- body.``"""

    def __str__(self):
        if not self.body:
            return f"{self.head} <- ."
        return f"{self.head} <- {', '.join(str(b) for b in self.body)}."


@dataclass(frozen=True)
class OldRule(_RuleText):
    head: AnnotatedRevisionAtom
    body: tuple[AnnotatedRevisionAtom, ...]


@dataclass(frozen=True)
class NewRule(_RuleText):
    head: PairAnnotatedAtom
    body: tuple[PairAnnotatedAtom, ...]


@dataclass(frozen=True)
class ClassicRule:
    """Unannotated revision rule, used by the two-valued embedding."""

    head: RevisionAtom
    body: tuple[RevisionAtom, ...]


class Program:
    """An ordered, structurally deduplicated set of rules over a declared
    universe and a single annotation lattice.

    Rule order never affects semantics, only output formatting.  Atoms
    mentioned by rules must belong to the universe so that valuations stay
    total mappings.

    A program holds its rules in one form, ``_literals``: rule ``i`` is a
    tuple of literals ``(atom, annotation, polarity)``, head first, the
    polarity ``in`` or ``out`` in revision-atom syntax and None in pair
    syntax.  The constructor checks rule objects and records their
    literals; the parser hands over literals it has checked (``_parsed``).
    Both keep the first rule of each literal tuple: equal tuples are equal
    rules, and ``in(a):bot`` and ``out(a):bot`` stay apart.  Length,
    equality, hashing and ``+`` read the literals, the engine encodes them
    on each call (``_encode_rules``), and ``rules`` is the constructor's
    rule objects or, for a parsed program, built from the literals on its
    first read.  Every slot is set by the constructors, and ``_rules`` is
    only ever filled: building is deterministic and the tuple immutable,
    so concurrent first reads may each build it, and every reader sees
    equal rules.
    """

    __slots__ = ("syntax", "lattice", "universe", "_rules", "_literals")

    def __init__(self, syntax, lattice, universe, rules):
        if syntax not in (OLD, NEW):
            raise ValueError(f"syntax must be {OLD!r} or {NEW!r}, got {syntax!r}")
        universe = tuple(sorted(set(universe)))
        uset = set(universe)
        old = syntax == OLD
        want = OldRule if old else NewRule
        kept = {}
        for r in rules:
            if not isinstance(r, want):
                raise TypeError(f"{syntax} program cannot hold a {type(r).__name__}")
            lits = []
            for a in (r.head, *r.body):
                atom = a.atom
                if atom not in uset:
                    raise ValueError(f"atom {atom!r} not in the declared universe")
                if a.ann.lattice is not lattice:
                    raise LatticeMismatchError(
                        f"annotation on {atom!r} comes from a different lattice")
                lits.append((atom, a.ann, a.ratom.polarity if old else None))
            kept.setdefault(tuple(lits), r)
        self.syntax = syntax
        self.lattice = lattice
        self.universe = universe
        self._literals = tuple(kept)
        self._rules = tuple(kept.values())

    @classmethod
    def _parsed(cls, syntax, lattice, universe, rules):
        """A program of rules given as lists of literals ``(atom,
        annotation, polarity)``, head first, whose atoms and annotations
        are checked already, by the parser or as another program's.
        Nothing is checked again."""
        self = cls.__new__(cls)
        self.syntax = syntax
        self.lattice = lattice
        self.universe = tuple(sorted(universe))
        self._literals = tuple(dict.fromkeys(map(tuple, rules)))
        self._rules = None
        return self

    def _annotations(self):
        """The elements the rules' annotations name, repeats included."""
        if self.syntax == OLD:
            return (x for lits in self._literals for _, x, _ in lits)
        return (e for lits in self._literals for _, pv, _ in lits for e in (pv.pos, pv.neg))

    @property
    def rules(self):
        """The rule objects, built on the first read of a parsed program."""
        rules = self._rules
        if rules is None:
            syntax = self.syntax
            rules = self._rules = tuple([_build_rule(syntax, lits) for lits in self._literals])
        return rules

    def __eq__(self, other):
        if not isinstance(other, Program):
            return NotImplemented
        return (self.syntax == other.syntax and self.lattice is other.lattice
                and self.universe == other.universe and self._literals == other._literals)

    def __hash__(self):
        return hash((self.syntax, id(self.lattice), self.universe, self._literals))

    def __len__(self):
        return len(self._literals)

    def __iter__(self):
        return iter(self.rules)

    def __add__(self, other):
        """Union of two rule sets over the same universe and lattice."""
        if not isinstance(other, Program):
            return NotImplemented
        if other.lattice is not self.lattice:
            raise LatticeMismatchError("programs over different lattices")
        if other.syntax != self.syntax or other.universe != self.universe:
            raise ValueError("programs must share syntax and universe")
        return Program._parsed(self.syntax, self.lattice, self.universe,
                               self._literals + other._literals)

    def __repr__(self):
        return f"Program({self.syntax}, {len(self)} rules over {self.universe})"


def _build_rule(syntax, lits):
    """The rule object of the literals ``(atom, annotation, polarity)``,
    head first."""
    if syntax == OLD:
        atoms = [AnnotatedRevisionAtom(RevisionAtom(pol, a), x) for a, x, pol in lits]
        return OldRule(atoms[0], tuple(atoms[1:]))
    atoms = [PairAnnotatedAtom(a, x) for a, x, _ in lits]
    return NewRule(atoms[0], tuple(atoms[1:]))


def _encode_rules(codec, p):
    """The engine's form of ``p``'s rules under ``codec``: rule ``i``
    becomes ``(head_atom, head_code, body)``, the body a tuple of ``(atom,
    code)`` and atoms numbered by universe position.  A pair annotation
    has its pair code; ``in(a):x`` is ``<x, bot>``, the element's code, and
    ``out(a):x`` is ``<bot, x>``, that code shifted to the negative side."""
    index = {a: k for k, a in enumerate(p.universe)}
    code = codec.pair if p.syntax == NEW else codec.encode
    shift = {None: 0, IN: 0, OUT: codec.width}
    return [(index[ha], code(hx) << shift[hp],
             tuple([(index[a], code(x) << shift[pol]) for a, x, pol in body]))
            for (ha, hx, hp), *body in p._literals]


def join_transform(p: Program) -> Program:
    """Merge repeated body occurrences of the same revision atom into a
    single occurrence annotated with the join of the merged annotations."""
    if p.syntax != OLD:
        raise UnsupportedOperationError("join transformation applies to revision-atom rules")
    out = []
    for r in p.rules:
        merged = {}
        for a in r.body:
            if a.ratom in merged:
                merged[a.ratom] = merged[a.ratom] | a.ann
            else:
                merged[a.ratom] = a.ann
        body = tuple(AnnotatedRevisionAtom(l, ann) for l, ann in merged.items())
        out.append(OldRule(r.head, body))
    return Program(OLD, p.lattice, p.universe, out)


def tr1(p: Program) -> Program:
    """Translate revision-atom rules to pair-annotation rules, padding the
    unused side of every annotation with bottom."""
    if p.syntax != OLD:
        raise UnsupportedOperationError("tr1 expects a revision-atom program")

    def conv(a: AnnotatedRevisionAtom) -> PairAnnotatedAtom:
        return PairAnnotatedAtom(a.atom, a.pair)

    rules = [NewRule(conv(r.head), tuple(conv(b) for b in r.body)) for r in p.rules]
    return Program(NEW, p.lattice, p.universe, rules)


def tr2(p: Program) -> Program:
    """Translate each pair-annotation rule into an in-rule and an out-rule
    with identical bodies.

    The out-headed companion is emitted even when its annotation is bottom;
    such a rule is semantically inert and keeping it makes the translation
    uniform.
    """
    if p.syntax != NEW:
        raise UnsupportedOperationError("tr2 expects a pair-annotation program")

    def conv_body(atoms):
        return tuple(_chain.from_iterable(
            (AnnotatedRevisionAtom(rin(a.atom), a.ann.pos),
             AnnotatedRevisionAtom(rout(a.atom), a.ann.neg))
            for a in atoms))

    rules = []
    for r in p.rules:
        body = conv_body(r.body)
        rules.append(OldRule(AnnotatedRevisionAtom(rin(r.head.atom), r.head.ann.pos), body))
        rules.append(OldRule(AnnotatedRevisionAtom(rout(r.head.atom), r.head.ann.neg), body))
    return Program(OLD, p.lattice, p.universe, rules)


def encode_classic(rules, db, universe):
    """Embed unannotated revision rules over the two-valued lattice and
    encode the database as a valuation: members become <t, f>, the rest
    <f, t>.  Returns the encoded program and valuation, which share one
    lattice handle."""
    from .valuation import PairValuation

    lat = TwoLattice()
    t, f = lat.true, lat.false
    universe = tuple(sorted(set(universe)))
    uset = set(universe)
    db = frozenset(db)
    if not db <= uset:
        raise ValueError(f"database atoms {sorted(db - uset)} not in the universe")
    out = []
    for r in rules:
        if not isinstance(r, ClassicRule):
            raise TypeError(f"expected ClassicRule, got {type(r).__name__}")
        head = AnnotatedRevisionAtom(r.head, t)
        body = tuple(AnnotatedRevisionAtom(b, t) for b in r.body)
        out.append(OldRule(head, body))
    prog = Program(OLD, lat, universe, out)
    val = PairValuation(lat, {
        a: PairValue(t, f) if a in db else PairValue(f, t) for a in universe})
    return prog, val


def decode_classic(valuation):
    """Inverse of the database encoding: the member set when every value is
    <t, f> or <f, t>, otherwise None."""
    lat = valuation.lattice
    if not isinstance(lat, TwoLattice):
        raise UnsupportedOperationError("decoding is defined over the two-valued lattice")
    t, f = lat.true, lat.false
    tf = PairValue(t, f)
    ft = PairValue(f, t)
    out = set()
    for a, pv in valuation.items():
        if pv == tf:
            out.add(a)
        elif pv != ft:
            return None
    return frozenset(out)
