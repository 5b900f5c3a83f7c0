"""Order isomorphisms of the pair lattice, lifted per atom to valuations and
pair-annotation programs.

Conflation-preserving isomorphisms commute with justified revision, which is
what lets one initial database be shifted onto another.  Each map is a
lattice automorphism applied to both components plus an optional component
swap.  Maps may differ per atom; the classic component-swap shift is the
special case of swapping exactly where two encoded databases disagree.
"""

from __future__ import annotations

from .lattice import LatticeError, LatticeMismatchError, PairValue, UnsupportedOperationError
from .syntax import NEW, Program
from .valuation import PairValuation


class PairMap:
    """One order isomorphism of the pair lattice over a single handle: an
    order automorphism of the lattice applied to both components, after an
    optional component swap.

    Build via the classmethods.  Such a map is an order isomorphism of the
    pairs exactly when its permutation is an order automorphism of the
    lattice, since the swap is an automorphism of the product order.
    Construction checks that on the covers of the lattice's Birkhoff codes
    (``Codec.covers``), comparing the codes of their images: a bijection
    monotone on covers is monotone, and a monotone bijection of a finite
    order is an automorphism.  Every finite handle has codes, since its
    constructor proves it distributive.  Likewise the map commutes with
    conflation exactly when its permutation commutes with the complement,
    since the swap always does; that takes ``|L|`` checks.  Infinite
    lattices admit only identity and swap.
    """

    __slots__ = ("lattice", "_perm", "_swap")

    def __init__(self, lattice, perm=None, swap=False):
        if not lattice.is_finite and perm is not None:
            raise UnsupportedOperationError(
                "only identity and component swap are supported on infinite lattices")
        self.lattice = lattice
        self._perm = dict(perm) if perm is not None else None
        self._swap = bool(swap)
        if perm is not None:
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

    def _validate(self):
        lat, perm = self.lattice, self._perm
        els = set(lat.elements())
        if set(perm) != els or set(perm.values()) != els:
            raise LatticeError("permutation is not a bijection on the lattice")
        codec = lat.codec()
        image = {codec.encode(x): codec.encode(y) for x, y in perm.items()}
        for cx, cy in codec.covers():
            if image[cx] & ~image[cy]:
                raise LatticeError(
                    f"permutation does not preserve the order at "
                    f"{codec.decode(cx)!r}, {codec.decode(cy)!r}")

    def __call__(self, pv: PairValue) -> PairValue:
        pos, neg = pv.pos, pv.neg
        if self._swap:
            pos, neg = neg, pos
        if self._perm is not None:
            pos = self._perm[pos]
            neg = self._perm[neg]
        return PairValue(pos, neg)

    def structure(self):
        """(permutation or None, swap flag) for serialization."""
        return self._perm, self._swap

    def then(self, other: "PairMap") -> "PairMap":
        """Composition, applying self first.

        Component swaps commute with componentwise permutations, so two maps
        compose into another one.  A composition of automorphisms is one, so
        the result is built without the constructor's check.
        """
        if not isinstance(other, PairMap):
            raise TypeError(f"cannot compose a pair map with {type(other).__name__}")
        if other.lattice is not self.lattice:
            raise LatticeError("maps over different lattices")
        if self._perm is None:
            perm = other._perm
        elif other._perm is None:
            perm = self._perm
        else:
            perm = {x: other._perm[y] for x, y in self._perm.items()}
        out = PairMap.__new__(PairMap)
        out.lattice, out._perm, out._swap = self.lattice, perm, self._swap != other._swap
        return out

    def preserves_conflation(self) -> bool:
        """Whether the map commutes with conflation ``-(p, n) = (~n, ~p)``:
        whether its permutation commutes with the complement, compared on
        the codec's codes."""
        perm = self._perm
        if perm is None:
            return True
        codec = self.lattice.codec()
        image = {codec.encode(x): codec.encode(y) for x, y in perm.items()}
        comp = codec.complement
        return all(image[comp(x)] == comp(y) for x, y in image.items())


class PairIso:
    """Per-atom family of pair-lattice isomorphisms, with an optional default
    map for atoms without their own entry."""

    __slots__ = ("lattice", "_maps", "_default")

    def __init__(self, lattice, maps=None, default=None):
        maps = dict(maps) if maps else {}
        for m in [*maps.values(), default]:
            if m is not None and not isinstance(m, PairMap):
                raise TypeError(f"expected a pair map, got {type(m).__name__}")
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
        if not isinstance(x, (PairValuation, Program)):
            raise TypeError(f"cannot apply an isomorphism to {type(x).__name__}")
        if x.lattice is not self.lattice:
            raise LatticeMismatchError("isomorphism and argument are over different lattices")
        if isinstance(x, PairValuation):
            return PairValuation(self.lattice, {
                a: self.map_for(a)(pv) for a, pv in x.items()})
        if x.syntax != NEW:
            raise UnsupportedOperationError(
                "isomorphisms act on pair-annotation programs; translate with tr1 first")
        rules = [[(a, self.map_for(a)(pv), None) for a, pv, _ in lits] for lits in x._literals]
        return Program._parsed(NEW, x.lattice, x.universe, rules)


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
