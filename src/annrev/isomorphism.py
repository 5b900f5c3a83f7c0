"""Order isomorphisms of the pair lattice, lifted per atom to valuations and
pair-annotation programs.

Conflation-preserving isomorphisms commute with justified revision, which is
what lets one initial database be shifted onto another.  Maps may differ per
atom; the classic component-swap shift is the special case of swapping
exactly where two encoded databases disagree.
"""

from __future__ import annotations

from .lattice import (
    LatticeError,
    PairValue,
    PowersetLattice,
    UnsupportedOperationError,
    pair_space,
)
from .syntax import NEW, NewRule, Program
from .valuation import PairValuation


def _order_pairs(lat):
    """The pairs on which a bijection of ``lat`` must keep the order to be
    an automorphism.  On a powerset these are the ``n * 2**(n-1)`` covers
    ``S < S | {l}``: a map monotone on covers is monotone, and a monotone
    bijection of a finite order is an automorphism.  Elsewhere, every pair."""
    els = lat.elements()
    if isinstance(lat, PowersetLattice):
        return [(x, lat.element(x.key | {l})) for x in els for l in lat.labels
                if l not in x.key]
    return [(x, y) for x in els for y in els]


class PairMap:
    """One order isomorphism of the pair lattice over a single handle.

    Build via the classmethods.  Construction validates bijectivity and
    order preservation in both directions on finite lattices.  A structural
    map (identity, swap, a permutation, or a composition of them) is an
    order isomorphism of the pairs exactly when its permutation is an order
    automorphism of the lattice, since the swap is an automorphism of the
    product order; that takes one check per cover on a powerset and
    ``|L|**2`` checks elsewhere.  Likewise it commutes with
    conflation exactly when its permutation commutes with the complement,
    since the swap always does; that takes ``|L|`` checks.  A table is
    checked over the whole pair space for both.  Infinite lattices admit
    only the structurally safe identity and swap.
    """

    __slots__ = ("lattice", "_perm", "_swap", "_table")

    def __init__(self, lattice, perm=None, swap=False, table=None):
        if table is not None and (perm is not None or swap):
            raise ValueError("give either a table or a structural description, not both")
        if not lattice.is_finite and (perm is not None or table is not None):
            raise UnsupportedOperationError(
                "only identity and component swap are supported on infinite lattices")
        self.lattice = lattice
        self._perm = dict(perm) if perm is not None else None
        self._swap = bool(swap)
        self._table = dict(table) if table is not None else None
        self._validate()

    @classmethod
    def identity(cls, lattice):
        return cls(lattice)

    @classmethod
    def swap(cls, lattice):
        return cls(lattice, swap=True)

    @classmethod
    def from_permutation(cls, lattice, perm, swap=False):
        """Lift an order automorphism of the underlying lattice to pairs,
        optionally composed with the component swap."""
        return cls(lattice, perm=perm, swap=swap)

    @classmethod
    def from_table(cls, lattice, table):
        return cls(lattice, table=table)

    def _validate(self):
        lat = self.lattice
        if self._perm is not None:
            els = set(lat.elements())
            if set(self._perm) != els or set(self._perm.values()) != els:
                raise LatticeError("permutation is not a bijection on the lattice")
            perm = self._perm
            for x, y in _order_pairs(lat):
                if lat.leq(x, y) != lat.leq(perm[x], perm[y]):
                    raise LatticeError(
                        f"permutation does not preserve the order at {x!r}, {y!r}")
        if self._table is None:
            return
        space = pair_space(lat)
        if set(self._table) != set(space) or len(set(self._table.values())) != len(space):
            raise LatticeError("table is not a bijection on the pair lattice")
        images = {v: self(v) for v in space}
        for x in space:
            ix = images[x]
            for y in space:
                if (x <= y) != (ix <= images[y]):
                    raise LatticeError(
                        f"map does not preserve the information ordering at {x!r}, {y!r}")

    def __call__(self, pv: PairValue) -> PairValue:
        if self._table is not None:
            return self._table[pv]
        pos, neg = pv.pos, pv.neg
        if self._swap:
            pos, neg = neg, pos
        if self._perm is not None:
            pos = self._perm[pos]
            neg = self._perm[neg]
        return PairValue(pos, neg)

    def is_structural(self) -> bool:
        return self._table is None

    def structure(self):
        """(permutation or None, swap flag) for serialization; tables have no
        text form."""
        if self._table is not None:
            raise ValueError("table-defined isomorphism has no structural form")
        return self._perm, self._swap

    def then(self, other: "PairMap") -> "PairMap":
        """Composition, applying self first.

        Component swaps commute with componentwise permutations, so two
        structural maps compose into another structural map.
        """
        if other.lattice is not self.lattice:
            raise LatticeError("maps over different lattices")
        if self._table is None and other._table is None:
            if self._perm is None:
                perm = other._perm
            elif other._perm is None:
                perm = self._perm
            else:
                perm = {x: other._perm[y] for x, y in self._perm.items()}
            return PairMap(self.lattice, perm=perm, swap=self._swap != other._swap)
        table = {v: other(self(v)) for v in pair_space(self.lattice)}
        return PairMap.from_table(self.lattice, table)

    def preserves_conflation(self) -> bool:
        """Whether the map commutes with conflation ``-(p, n) = (~n, ~p)``."""
        if self._table is not None:
            return all(self(-v) == -self(v) for v in pair_space(self.lattice))
        perm = self._perm
        return perm is None or all(perm[~x] == ~px for x, px in perm.items())


class PairIso:
    """Per-atom family of pair-lattice isomorphisms, with an optional default
    map for atoms without their own entry."""

    __slots__ = ("lattice", "_maps", "_default")

    def __init__(self, lattice, maps=None, default=None):
        maps = dict(maps) if maps else {}
        for a, m in maps.items():
            if m.lattice is not lattice:
                raise LatticeError(f"map for atom {a!r} is over a different lattice")
        if default is not None and default.lattice is not lattice:
            raise LatticeError("default map is over a different lattice")
        self.lattice = lattice
        self._maps = maps
        self._default = default

    @property
    def entries(self):
        return dict(self._maps)

    @property
    def default(self):
        return self._default

    def map_for(self, atom) -> PairMap:
        if atom in self._maps:
            return self._maps[atom]
        if self._default is not None:
            return self._default
        raise ValueError(f"no isomorphism entry for atom {atom!r}")

    def preserves_conflation(self) -> bool:
        maps = list(self._maps.values())
        if self._default is not None:
            maps.append(self._default)
        return all(m.preserves_conflation() for m in maps)

    def apply(self, x):
        if isinstance(x, PairValuation):
            return PairValuation(self.lattice, {
                a: self.map_for(a)(pv) for a, pv in x.items()})
        if isinstance(x, Program):
            if x.syntax != NEW:
                raise UnsupportedOperationError(
                    "isomorphisms act on pair-annotation programs; translate with tr1 first")
            def conv(a):
                return a.with_pair(self.map_for(a.atom)(a.pair))

            rules = [NewRule(conv(r.head), tuple(conv(b) for b in r.body)) for r in x.rules]
            return Program(NEW, x.lattice, x.universe, rules)
        raise TypeError(f"cannot apply an isomorphism to {type(x).__name__}")


def preserves_conflation(iso: PairIso) -> bool:
    return iso.preserves_conflation()


def apply_iso(iso: PairIso, x):
    return iso.apply(x)


def build_shift_iso(lattice, universe, first, second) -> PairIso:
    """Isomorphism swapping the pair components exactly on the atoms where
    the two database encodings disagree.  It preserves conflation and maps
    the encoding of the first database onto that of the second."""
    first = frozenset(first)
    second = frozenset(second)
    ident = PairMap.identity(lattice)
    swapm = PairMap.swap(lattice)
    maps = {
        a: swapm if (a in first) != (a in second) else ident
        for a in universe}
    return PairIso(lattice, maps)
