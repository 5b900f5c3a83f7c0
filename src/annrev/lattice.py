"""Annotation lattices.

Evidence strengths live in a bounded distributive lattice carrying a De
Morgan complement (an order-reversing involution satisfying both De Morgan
laws).  Pairs of strengths, one for membership and one against it, form the
product lattice under the componentwise information ordering; that product
carries conflation and the consistency test used by the revision engine.

Supported lattice kinds: the two-valued Boolean lattice, powersets of a
finite label set (with an optional explicit complement table), finite named
chains, the chain of exact rationals in [0, 1], and custom finite lattices
given by an explicit order relation.  Each kind also gives its elements
integer codes (``Codec``), on which the revision engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class LatticeError(Exception):
    """Structural problem with a lattice or one of its elements."""


class LatticeMismatchError(LatticeError):
    """Elements of two different lattice handles were combined."""


class UnsupportedOperationError(LatticeError):
    """The operation is not defined for this lattice kind."""


class InvalidLatticeError(LatticeError):
    """A lattice declaration breaks an axiom; the message names the first
    offender."""


class Codec:
    """Integer codes of one lattice's elements, the engine's kernel.

    An element's code is the bitmask of the join-irreducibles below it.  By
    Birkhoff's representation theorem a finite distributive lattice is the
    lattice of down-sets of its join-irreducibles, so on codes ``x <= y`` is
    ``x & y == x``, join is ``|``, meet is ``&``, and the least ``g`` with
    ``a | g >= b`` is the down-closure of ``b & ~a``.  The complement is a
    table.  An evidence pair is one int, the positive side in the low
    ``width`` bits and the negative side above them: the same operators act
    on pairs componentwise, and conflation is one complement lookup per side.
    Bottom has code 0 and top, whose code holds every other, code ``top``.
    ``y`` covers ``x`` exactly when ``y``'s code is ``x``'s plus one bit;
    ``covers`` is the one walk over them.
    """

    __slots__ = ("width", "top", "_mask", "_code", "_elem", "_comp", "_down")

    def __init__(self, width, elems, codes, comp, down=None):
        """``elems[k]`` has code ``codes[k]`` and its complement code
        ``comp[k]``.  ``down[j]`` is the code of join-irreducible ``j``, which
        is copied onto the negative side for pair codes, or None when they
        are pairwise incomparable, so that every mask is a down-set."""
        self.width = width
        self.top = max(codes)
        self._mask = (1 << width) - 1
        self._code = {e.key: c for e, c in zip(elems, codes)}
        self._elem = dict(zip(codes, elems))
        self._comp = dict(zip(codes, comp))
        self._down = None if down is None else down + [d << width for d in down]

    def encode(self, x: Elem) -> int:
        return self._code[x.key]

    def decode(self, code: int) -> Elem:
        return self._elem[code]

    def complement(self, code: int) -> int:
        return self._comp[code]

    def pair(self, pv: PairValue) -> int:
        code = self._code
        return code[pv.pos.key] | code[pv.neg.key] << self.width

    def unpair(self, x: int) -> PairValue:
        elem = self._elem
        return PairValue(elem[x & self._mask], elem[x >> self.width])

    def conflate(self, x: int) -> int:
        """``-pv`` on a pair code: ``<~neg, ~pos>``."""
        comp = self._comp
        return comp[x >> self.width] | comp[x & self._mask] << self.width

    def pcomp(self, a: int, b: int) -> int:
        """Least ``g`` with ``a | g >= b``, on element or pair codes: the
        down-closure of ``b & ~a``."""
        m, out, down = b & ~a, 0, self._down
        if down is None:
            return m
        while m:
            d = down[m.bit_length() - 1]
            out |= d
            m &= ~d
        return out

    def covers(self):
        """Every cover ``(x, y)`` of the order, as codes: ``x`` in element
        order, then ``y`` in the order of the bit it adds to ``x``.  On
        powersets and chains that bit order is element order."""
        elem, top = self._elem, self.top
        for x in elem:
            rest = top & ~x
            while rest:
                bit = rest & -rest
                rest -= bit
                y = x | bit
                if y in elem:
                    yield x, y


def _chain_codec(elems):
    """Codes of a chain, least element first, whose complement reverses it:
    rank ``r`` has code ``(1 << r) - 1``."""
    codes = [(1 << r) - 1 for r in range(len(elems))]
    return Codec(len(elems) - 1, elems, codes, codes[::-1], codes[1:])


class Elem:
    """Element of one specific lattice handle.

    Operators delegate to the handle; mixing handles raises
    LatticeMismatchError instead of coercing.
    """

    __slots__ = ("lattice", "key")

    def __init__(self, lattice, key):
        self.lattice = lattice
        self.key = key

    def _check(self, other):
        if not isinstance(other, Elem):
            raise TypeError(f"expected a lattice element, got {type(other).__name__}")
        if other.lattice is not self.lattice:
            raise LatticeMismatchError("elements belong to different lattice handles")

    def __eq__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        self._check(other)
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __le__(self, other):
        self._check(other)
        return self.lattice.leq(self, other)

    def __ge__(self, other):
        self._check(other)
        return self.lattice.leq(other, self)

    def __lt__(self, other):
        return self.__le__(other) and self.key != other.key

    def __gt__(self, other):
        return self.__ge__(other) and self.key != other.key

    def __and__(self, other):
        self._check(other)
        return self.lattice.meet(self, other)

    def __or__(self, other):
        self._check(other)
        return self.lattice.join(self, other)

    def __invert__(self):
        return self.lattice.complement(self)

    def __repr__(self):
        return self.lattice.format_element(self)


class Lattice:
    """Base class for lattice handles.

    The element operators are implemented once, here, on the Birkhoff codes
    that a finite kind builds at construction (``_codec``): ``x <= y`` is
    ``cx & cy == cx``, meet is ``&``, join is ``|``, the complement is the
    codec's table, bottom is code 0 and top is ``Codec.top``.  They read
    the codec's dicts directly, since every ``Elem`` operator lands here.
    Every finite kind uses them as they are; the unit chain has no fixed
    codes and answers on its ``Fraction`` keys.

    Handles are valid by construction: a constructor whose declaration
    breaks an axiom raises ``InvalidLatticeError``, so every handle is a
    bounded distributive lattice with a De Morgan complement.  Handles
    compare by identity and are immutable after construction: no method
    writes an attribute, so they are safe to share between concurrent
    readers.
    """

    kind = "abstract"
    is_finite = True

    def leq(self, x: Elem, y: Elem) -> bool:
        code = self._codec._code
        cx = code[x.key]
        return cx & code[y.key] == cx

    def meet(self, x: Elem, y: Elem) -> Elem:
        c = self._codec
        return c._elem[c._code[x.key] & c._code[y.key]]

    def join(self, x: Elem, y: Elem) -> Elem:
        c = self._codec
        return c._elem[c._code[x.key] | c._code[y.key]]

    def complement(self, x: Elem) -> Elem:
        c = self._codec
        return c._elem[c._comp[c._code[x.key]]]

    @property
    def bot(self) -> Elem:
        return self._codec._elem[0]

    @property
    def top(self) -> Elem:
        c = self._codec
        return c._elem[c.top]

    def elements(self) -> tuple[Elem, ...]:
        """All elements in canonical order (finite lattices only)."""
        raise UnsupportedOperationError(f"{self.kind} lattice is not finite")

    def big_join(self, xs) -> Elem:
        """Join of a finite collection; the empty join is bottom."""
        out = self.bot
        for x in xs:
            out = out | x
        return out

    def big_meet(self, xs) -> Elem:
        """Meet of a finite collection; the empty meet is top."""
        out = self.top
        for x in xs:
            out = out & x
        return out

    def codec(self, elements=()) -> Codec:
        """The integer codes of the elements (see ``Codec``).  Finite kinds
        build theirs once, at construction, and ignore ``elements``; the
        base class's element operators, ``pcomp``, the engine and
        ``valuation.diff`` run on them.  The unit chain builds one per call
        over the given elements."""
        return self._codec

    def pcomp(self, alpha: Elem, beta: Elem) -> Elem:
        """Least gamma with join(alpha, gamma) >= beta, read off the codec's
        tables: the down-closure of ``beta & ~alpha``.  The unit chain
        overrides it with its closed form, bottom or ``beta``."""
        c = self.codec()
        return c._elem[c.pcomp(c._code[alpha.key], c._code[beta.key])]

    def is_boolean(self) -> bool:
        """True when the complement is a Boolean complement: on codes, every
        complement code is ``top ^ code``.  Infinite lattices answer False."""
        if not self.is_finite:
            return False
        c = self._codec
        return all(n == c.top ^ x for x, n in c._comp.items())

    def format_element(self, x: Elem) -> str:
        raise NotImplementedError


class LevelChain(Lattice):
    """Finite chain of named levels, least level first; each element's key
    is its level's index.

    The complement reverses the chain, which is the unique De Morgan
    involution on a finite chain.
    """

    kind = "chain"

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise LatticeError("a chain needs at least one level")
        if len(set(names)) != len(names):
            raise LatticeError("duplicate level names")
        self.names = names
        self._elems = tuple(Elem(self, i) for i in range(len(names)))
        self._index = {n: i for i, n in enumerate(names)}
        self._codec = _chain_codec(self._elems)

    def element(self, name: str) -> Elem:
        try:
            return self._elems[self._index[name]]
        except KeyError:
            raise LatticeError(f"unknown chain level {name!r}") from None

    def elements(self):
        return self._elems

    def format_element(self, x):
        return self.names[x.key]


class TwoLattice(LevelChain):
    """The two-valued Boolean lattice f < t."""

    kind = "two"

    def __init__(self):
        super().__init__(("f", "t"))

    @property
    def false(self):
        return self.bot

    @property
    def true(self):
        return self.top


class UnitChain(Lattice):
    """The chain of exact rationals in [0, 1] with complement 1 - x; each
    element's key is its ``Fraction``.

    Decimal text is converted on input and never reappears in output.  The
    chain is infinite, so exhaustive operations are refused and
    ``is_boolean`` is False.  It is totally ordered, hence distributive over
    arbitrary joins and meets; that is a property of linear orders and is
    not checked mechanically.  It is the one kind without fixed codes (see
    ``codec``), so its operators compare keys and ``pcomp`` is the closed
    form of a chain: bottom when ``beta <= alpha``, else ``beta``.
    """

    kind = "unit"
    is_finite = False

    def __init__(self):
        self._bot = Elem(self, Fraction(0))
        self._top = Elem(self, Fraction(1))

    def codec(self, elements=()) -> Codec:
        """Codes for one computation over ``elements``: the rank of each
        value among them, 0, 1 and their complements, as on a level chain.
        Joins, meets, complements and ``pcomp`` of such values stay among
        them, so the codes serve every value the computation makes."""
        # Elements repeat as objects; hash each object's Fraction once.
        keys = {Fraction(0), Fraction(1)}
        keys.update(e.key for e in {id(e): e for e in elements}.values())
        keys.update([1 - f for f in keys])
        return _chain_codec([self.element(f) for f in sorted(keys)])

    def element(self, value) -> Elem:
        f = Fraction(value)
        if f == 0:
            return self._bot
        if f == 1:
            return self._top
        if not 0 < f < 1:
            raise LatticeError(f"chain value {f} outside [0, 1]")
        return Elem(self, f)

    def leq(self, x, y):
        return x.key <= y.key

    def meet(self, x, y):
        return x if x.key <= y.key else y

    def join(self, x, y):
        return x if x.key >= y.key else y

    def complement(self, x):
        return self.element(1 - x.key)

    @property
    def bot(self):
        return self._bot

    @property
    def top(self):
        return self._top

    def pcomp(self, alpha, beta):
        return self._bot if beta.key <= alpha.key else beta

    def format_element(self, x):
        f = x.key
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"


class PowersetLattice(Lattice):
    """All subsets of a finite label set, ordered by inclusion.

    Each element's key is its frozenset of labels, and its code the bitmask
    of its labels, label ``i`` at bit ``i``; the base class's operators act
    on those codes.  The complement defaults to set difference from the
    full label set, which makes the lattice Boolean.  An explicit table may
    override it.  Construction then checks it on the codes
    (``_complement_failure``): an involution that reverses every cover ``S
    < S | {l}``, ``n * 2**n`` checks in place of a cubic scan, raising
    ``InvalidLatticeError`` at the first failure.

    ``MAX_LABELS`` stays 12 although the checks would allow more:
    only ``pair_space`` scans ``4**n`` pairs, 16.7M at 12 labels.
    """

    kind = "powerset"
    MAX_LABELS = 12

    def __init__(self, labels, complement_table=None):
        labels = tuple(labels)
        if not labels:
            raise LatticeError("powerset lattice needs at least one label")
        if len(set(labels)) != len(labels):
            raise LatticeError("duplicate labels")
        if len(labels) > self.MAX_LABELS:
            raise LatticeError(f"powerset lattice limited to {self.MAX_LABELS} labels")
        self.labels = labels
        self._label_index = {l: i for i, l in enumerate(labels)}
        full = frozenset(labels)
        # Canonical order compares the subsets' sorted label indices, so
        # among subsets of labels i.. the empty set comes first, then those
        # holding label i, then the rest.
        coded = [(frozenset(), 0)]
        for i in reversed(range(len(labels))):
            coded[1:1] = [(s | {labels[i]}, c | 1 << i) for s, c in coded]
        self._elems = tuple(Elem(self, s) for s, _ in coded)
        codes = [c for _, c in coded]
        self.has_custom_complement = complement_table is not None
        if complement_table is None:
            comp = [c ^ ((1 << len(labels)) - 1) for c in codes]
        else:
            table = {frozenset(k): frozenset(v) for k, v in complement_table.items()}
            for s, _ in coded:
                if s not in table:
                    raise LatticeError(f"complement table misses {self._fmt(s)}")
                if not table[s] <= full:
                    raise LatticeError(f"complement of {self._fmt(s)} uses unknown labels")
            if len(table) != len(coded):
                raise LatticeError("complement table mentions unknown subsets")
            code = dict(coded)
            comp = [code[table[s]] for s, _ in coded]
        self._codec = Codec(len(labels), self._elems, codes, comp)
        if self.has_custom_complement:
            failure = _complement_failure(self._codec)
            if failure is not None:
                raise InvalidLatticeError(failure)

    def _fmt(self, s):
        return "{" + ",".join(l for l in self.labels if l in s) + "}"

    def element(self, members) -> Elem:
        s = frozenset(members)
        index = self._label_index
        try:
            return self._codec.decode(sum(1 << index[l] for l in s))
        except KeyError:
            bad = sorted(s.difference(self.labels))
            raise LatticeError(f"unknown labels {bad}") from None

    def elements(self):
        return self._elems

    def format_element(self, x):
        return self._fmt(x.key)


def _code_tables(up, down):
    """Birkhoff codes of an order given as closed bitmask rows, or None when
    the order is not a distributive lattice.  An element's code is its row
    ``down[i]`` restricted to the join-irreducible indices; an element is
    join-irreducible when the elements strictly below it have a greatest
    one, whose row is exactly theirs.  The codes are a proof when they are
    distinct, every ``ci & cj`` and ``ci | cj`` is a code, and ``i <= j``
    holds exactly when ``ci & cj == ci``: the order is then isomorphic to a
    family of sets closed under intersection and union, so it is
    antisymmetric, a lattice and distributive, meet is ``&`` and join is
    ``|``.  By Birkhoff's theorem every finite distributive lattice passes.
    O(n^2)."""
    rows = set(down)
    irreducible = sum(1 << i for i, row in enumerate(down) if row & ~(1 << i) in rows)
    codes = [row & irreducible for row in down]
    known = set(codes)
    if len(known) != len(codes):
        return None
    for ci, above in zip(codes, up):
        if sum(1 << j for j, cj in enumerate(codes) if ci & cj == ci) != above:
            return None
        if any(ci & cj not in known or ci | cj not in known for cj in codes):
            return None
    return codes


def _bound_table(down, up):
    """Greatest-lower-bound table of a preorder given as bitmasks:
    ``down[i]`` holds every ``k <= i`` and ``up[i]`` every ``k >= i``.
    Entry ``[i][j]`` is the one common lower bound above all the others, or
    None when there is not exactly one (no bound, or a cycle of them).
    Passing ``(up, down)`` gives the join table.  Each entry intersects
    ``up`` over the common lower bounds: O(n^3) bit operations in all.
    Only orders that ``_code_tables`` rejects need it."""
    n = len(down)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = down[i] & down[j]
            best = lower
            for k in range(n):
                if lower >> k & 1:
                    best &= up[k]
            if best and not best & (best - 1):
                table[i][j] = table[j][i] = best.bit_length() - 1
    return table


def _order_failure(names, up, down):
    """The first failure of antisymmetry, then of meet and join existence,
    then of distributivity on every triple, of an order given as closed
    bitmask rows, or None.  The one cubic code: only an order that
    ``_code_tables`` rejects is scanned, so some stage fails."""
    els = range(len(names))
    for x in els:
        equal = up[x] & down[x] & ~(1 << x)
        if equal:
            y = (equal & -equal).bit_length() - 1
            return f"order not antisymmetric at {names[x]}, {names[y]}"
    meet, join = _bound_table(down, up), _bound_table(up, down)
    for x in els:
        for y in els:
            if meet[x][y] is None:
                return f"no meet of {names[x]} and {names[y]}"
            if join[x][y] is None:
                return f"no join of {names[x]} and {names[y]}"

    for x in els:
        mx = meet[x]
        for y in els:
            mxy = mx[y]
            jy = join[y]
            for z in els:
                if mx[jy[z]] != join[mxy][mx[z]]:
                    return f"distributivity fails at {names[x]}, {names[y]}, {names[z]}"
    return None


def _complement_failure(codec):
    """The first failure of a codec's complement table, or None: an
    involution at each element in element order, then order reversal on
    each cover in ``Codec.covers`` order.  A complement that reverses every
    cover reverses the whole order, and an order-reversing involution is a
    dual automorphism, so both De Morgan laws follow.  One check per
    element and per cover."""
    comp, elem = codec._comp, codec._elem
    for cx in elem:
        if comp[comp[cx]] != cx:
            return f"complement not an involution at {elem[cx]!r}"
    for cx, cy in codec.covers():
        if comp[cy] & ~comp[cx]:
            return f"complement not order-reversing at {elem[cx]!r}, {elem[cy]!r}"
    return None


class CustomLattice(Lattice):
    """Finite lattice from an explicit order relation and complement table.

    The order is closed reflexively and transitively into bitmask rows.
    Construction derives the Birkhoff codes and proves from them in O(n^2)
    that the order is a distributive lattice (``_code_tables``); the codes
    are then the ``Codec`` that the base class's operators, the engine and
    ``valuation.diff`` run on.  It then checks the complement on the codec
    (``_complement_failure``).  A declaration that fails either check
    raises ``InvalidLatticeError`` naming the first offender; only an order
    that fails the proof pays the cubic scan that finds it
    (``_order_failure``).  An empty, duplicate or unknown name and a
    missing complement entry raise a plain ``LatticeError``.
    """

    kind = "custom"

    def __init__(self, names, order_pairs, complement_table):
        names = tuple(names)
        if not names:
            raise LatticeError("custom lattice needs at least one element")
        if len(set(names)) != len(names):
            raise LatticeError("duplicate element names")
        self.names = names
        self._index = index = {n: i for i, n in enumerate(names)}
        n = len(names)
        up = [1 << i for i in range(n)]
        for a, b in order_pairs:
            if a not in index or b not in index:
                raise LatticeError(f"order pair ({a!r}, {b!r}) uses unknown elements")
            up[index[a]] |= 1 << index[b]
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        comp = {}
        for a, b in complement_table.items():
            if a not in index or b not in index:
                raise LatticeError(f"complement entry ({a!r}, {b!r}) uses unknown elements")
            comp[index[a]] = index[b]
        if len(comp) != n:
            missing = [names[i] for i in range(n) if i not in comp]
            raise LatticeError(f"complement table misses {missing}")
        down = [sum(1 << k for k in range(n) if up[k] >> i & 1) for i in range(n)]
        codes = _code_tables(up, down)
        if codes is None:
            raise InvalidLatticeError(_order_failure(names, up, down))
        self._elems = tuple(Elem(self, i) for i in range(n))
        self._codec = Codec(n, self._elems, codes, [codes[comp[i]] for i in range(n)], codes)
        failure = _complement_failure(self._codec)
        if failure is not None:
            raise InvalidLatticeError(failure)

    def element(self, name: str) -> Elem:
        try:
            return self._elems[self._index[name]]
        except KeyError:
            raise LatticeError(f"unknown element {name!r}") from None

    def elements(self):
        return self._elems

    def cover_pairs(self):
        """Transitive reduction of the order, for canonical serialization:
        the pairs of ``Codec.covers``, sorted by element index."""
        elem, names = self._codec._elem, self.names
        pairs = sorted((elem[x].key, elem[y].key) for x, y in self._codec.covers())
        return tuple((names[i], names[j]) for i, j in pairs)

    def format_element(self, x):
        return self.names[x.key]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a lattice axiom check; failures name the first offender."""

    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def validate(lat: Lattice) -> ValidationReport:
    """The axiom report of a handle, which is always ok.

    Every kind is a bounded distributive lattice whose complement is an
    order-reversing involution, hence subject to both De Morgan laws, and
    every handle holds it by construction: chains and default powersets are
    valid as built, and ``PowersetLattice`` with a complement table and
    ``CustomLattice`` raise ``InvalidLatticeError`` on a declaration that
    breaks an axiom, checking the complement on the Birkhoff covers.
    """
    return ValidationReport(True)


class PairValue:
    """Pair of evidence strengths: support for membership and against it.

    Ordered componentwise by information content; `&` and `|` are meet and
    join in that ordering, unary `-` is conflation.
    """

    __slots__ = ("pos", "neg")

    def __init__(self, pos: Elem, neg: Elem):
        if not isinstance(pos, Elem) or not isinstance(neg, Elem):
            raise TypeError("pair components must be lattice elements")
        if neg.lattice is not pos.lattice:
            raise LatticeMismatchError("pair components from different lattice handles")
        self.pos = pos
        self.neg = neg

    @property
    def lattice(self):
        return self.pos.lattice

    def __eq__(self, other):
        if not isinstance(other, PairValue):
            return NotImplemented
        return self.pos == other.pos and self.neg == other.neg

    def __hash__(self):
        return hash((self.pos.key, self.neg.key))

    def _check(self, other):
        if not isinstance(other, PairValue):
            raise TypeError(f"expected a pair value, got {type(other).__name__}")

    def __le__(self, other):
        self._check(other)
        return self.pos <= other.pos and self.neg <= other.neg

    def __ge__(self, other):
        self._check(other)
        return other.__le__(self)

    def __and__(self, other):
        self._check(other)
        return PairValue(self.pos & other.pos, self.neg & other.neg)

    def __or__(self, other):
        self._check(other)
        return PairValue(self.pos | other.pos, self.neg | other.neg)

    def __neg__(self):
        return PairValue(~self.neg, ~self.pos)

    def is_consistent(self) -> bool:
        return self <= -self

    def __repr__(self):
        return f"<{self.pos!r}, {self.neg!r}>"


def bot_pair(lat: Lattice) -> PairValue:
    return PairValue(lat.bot, lat.bot)


def top_pair(lat: Lattice) -> PairValue:
    return PairValue(lat.top, lat.top)


def negation(v: PairValue) -> PairValue:
    """Componentwise complement; defined only over Boolean lattices."""
    if not v.lattice.is_boolean():
        raise UnsupportedOperationError("negation requires a Boolean lattice")
    return PairValue(~v.pos, ~v.neg)


def pcomp_pair(x: PairValue, y: PairValue) -> PairValue:
    """Componentwise least solution of join(x, g) >= y in the pair lattice."""
    lat = x.lattice
    return PairValue(lat.pcomp(x.pos, y.pos), lat.pcomp(x.neg, y.neg))


def pair_space(lat: Lattice) -> tuple[PairValue, ...]:
    """Every pair value over a finite lattice, in canonical order."""
    els = lat.elements()
    return tuple(PairValue(p, n) for p in els for n in els)
