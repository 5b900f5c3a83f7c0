"""Plain-value model of annrev documents, independent of the annrev package.

Lattice elements are small ints (bit masks for powersets, indices for the
other kinds) with explicit order, join, meet and complement tables; pairs
are ``(pos, neg)`` tuples of element ids; valuations are dicts from atom to
pair.  Rules keep their source syntax:

- old: ``((polarity, atom, e), ((polarity, atom, e), ...))``
- new: ``((atom, (p, n)), ((atom, (p, n)), ...))``

This module also writes the ``.arp`` text the CLI reads, and the canonical
text the CLI prints for ``translate`` and ``shift``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class RLat:
    """A finite lattice on ids ``0..n-1`` given by its order relation.

    ``order`` lists the ids in the CLI's canonical element order; ``fmt``
    is how the CLI prints each element; ``text`` is how the input document
    writes it.
    """

    def __init__(self, kind, n, leq, comp, fmt, decl, order=None, text=None,
                 join=None, meet=None):
        self.kind = kind
        self.n = n
        self.leq = leq
        self.comp = comp
        self.fmt = fmt
        self.text = text or fmt
        self.decl = decl
        self.order = order or list(range(n))
        ids = range(n)
        self.join = join or [[self._bound(i, j, upper=True) for j in ids] for i in ids]
        self.meet = meet or [[self._bound(i, j, upper=False) for j in ids] for i in ids]
        self.bot = next(i for i in ids if all(leq[i][j] for j in ids))
        self.top = next(i for i in ids if all(leq[j][i] for j in ids))
        self._pcomp = {}

    def _bound(self, i, j, upper):
        leq, ids = self.leq, range(self.n)
        if upper:
            ub = [k for k in ids if leq[i][k] and leq[j][k]]
            least = [m for m in ub if all(leq[m][k] for k in ub)]
        else:
            lb = [k for k in ids if leq[k][i] and leq[k][j]]
            least = [m for m in lb if all(leq[k][m] for k in lb)]
        if len(least) != 1:
            raise ValueError(f"{self.kind}: no {'join' if upper else 'meet'} of {i}, {j}")
        return least[0]

    def pcomp(self, a, b):
        """Least g with b <= a | g, found by scanning every element."""
        key = (a, b)
        if key not in self._pcomp:
            sats = [g for g in range(self.n) if self.leq[b][self.join[a][g]]]
            out = self.top
            for g in sats:
                out = self.meet[out][g]
            if not self.leq[b][self.join[a][out]]:
                raise ValueError(f"{self.kind}: pcomp({a}, {b}) has no least solution")
            self._pcomp[key] = out
        return self._pcomp[key]

    def non_bottom(self):
        return [e for e in self.order if e != self.bot]

    def below(self, e):
        """Non-bottom elements under e (e itself included)."""
        return [x for x in self.order if x != self.bot and self.leq[x][e]]


def _fraction_text(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def chain_lattice(names, kind="chain"):
    n = len(names)
    ids = range(n)
    decl = "lattice two" if kind == "two" else "lattice chain [" + " < ".join(names) + "]"
    return RLat(kind, n, [[i <= j for j in ids] for i in ids], [n - 1 - i for i in ids],
                list(names), decl,
                join=[[max(i, j) for j in ids] for i in ids],
                meet=[[min(i, j) for j in ids] for i in ids])


def two_lattice():
    return chain_lattice(["f", "t"], kind="two")


def unit_lattice(denominator):
    """The exact unit chain, restricted to the grid k/denominator.

    The grid is closed under join, meet and 1 - x, so every value the
    engine derives from grid inputs stays on it.
    """
    lat = chain_lattice([_fraction_text(Fraction(i, denominator))
                         for i in range(denominator + 1)])
    lat.kind = "unit"
    lat.decl = "lattice chain unit"
    # Inputs alternate between the two literal forms the parser accepts.
    lat.text = [t if i % 2 or "/" not in t else str(float(Fraction(i, denominator)))
                for i, t in enumerate(lat.fmt)]
    return lat


def powerset_lattice(labels, sigma=None):
    """Subsets of ``labels`` as bit masks.  With ``sigma`` (an involutive
    label permutation) the complement is ``S -> full - sigma(S)``."""
    n = len(labels)
    size = 1 << n
    full = size - 1
    ids = range(size)

    def members(s):
        return [labels[i] for i in range(n) if s >> i & 1]

    def image(s):
        out = 0
        for i in range(n):
            if s >> i & 1:
                out |= 1 << labels.index(sigma[labels[i]])
        return out

    comp = [full ^ (image(s) if sigma else s) for s in ids]
    fmt = ["{" + ",".join(members(s)) + "}" for s in ids]
    order = sorted(ids, key=lambda s: tuple(i for i in range(n) if s >> i & 1))
    decl = "lattice powerset { " + ", ".join(labels) + " }"
    if sigma:
        decl += " complement { " + ", ".join(f"{fmt[s]}: {fmt[comp[s]]}" for s in order) + " }"
    lat = RLat("powerset", size, [[s & ~t == 0 for t in ids] for s in ids], comp, fmt, decl,
               order=order, join=[[s | t for t in ids] for s in ids],
               meet=[[s & t for t in ids] for s in ids])
    lat.labels = tuple(labels)
    return lat


def product_lattice(m, n, flip=False):
    """Custom lattice: the product of an m-chain and an n-chain.  The
    complement reverses both chains, and with ``flip`` (square only) also
    exchanges the coordinates; both are De Morgan involutions."""
    if flip and m != n:
        raise ValueError("flip needs a square product")
    names = [f"x{i}y{j}" for i in range(m) for j in range(n)]
    ids = range(m * n)
    coords = [(k // n, k % n) for k in ids]
    leq = [[coords[a][0] <= coords[b][0] and coords[a][1] <= coords[b][1] for b in ids]
           for a in ids]
    comp = [((n - 1 - j) * n + (m - 1 - i)) if flip else ((m - 1 - i) * n + (n - 1 - j))
            for i, j in coords]
    covers = [(a, b) for a in ids for b in ids
              if a != b and leq[a][b]
              and not any(k not in (a, b) and leq[a][k] and leq[k][b] for k in ids)]
    decl = ("lattice custom {\n"
            f"  elements {{ {', '.join(names)} }}\n"
            f"  order {{ {', '.join(f'{names[a]} < {names[b]}' for a, b in covers)} }}\n"
            f"  complement {{ {', '.join(f'{names[k]}: {names[comp[k]]}' for k in ids)} }}\n"
            "}")
    lat = RLat("custom", m * n, leq, comp, names, decl)
    lat.coords = coords
    return lat


@dataclass
class Doc:
    """One input document.  Valuations are total over ``universe``."""

    lat: RLat
    syntax: str
    universe: tuple
    rules: tuple
    init: dict | None = None
    cand: dict | None = None
    props: dict = field(default_factory=dict)

    def __post_init__(self):
        self.universe = tuple(sorted(self.universe))
        self.rules = tuple(dict.fromkeys(self.rules))


def bottom_valuation(lat, universe):
    return {a: (lat.bot, lat.bot) for a in universe}


def rule_text(lat, rule, syntax, fmt):
    if syntax == "old":
        def atom(x):
            return f"{x[0]}({x[1]}):{fmt[x[2]]}"
    else:
        def atom(x):
            return f"{x[0]}:<{fmt[x[1][0]]},{fmt[x[1][1]]}>"
    head, body = rule
    if not body:
        return f"{atom(head)} <- ."
    return f"{atom(head)} <- {', '.join(atom(b) for b in body)}."


def valuation_lines(lat, v, fmt, skip_bottom=False):
    bot = (lat.bot, lat.bot)
    return [f"  {a} = <{fmt[v[a][0]]}, {fmt[v[a][1]]}>." for a in sorted(v)
            if not (skip_bottom and v[a] == bot)]


def document_text(doc, canonical=True):
    """Canonical: what ``serialize_document`` prints.  Otherwise the input
    form, which adds a comment, writes unit values in both literal forms and
    leaves bottom valuation entries implicit."""
    lat = doc.lat
    fmt = lat.fmt if canonical else lat.text
    parts = [lat.decl, f"syntax {doc.syntax}", "universe { " + ", ".join(doc.universe) + " }", ""]
    if not canonical:
        parts.insert(0, f"# generated: {len(doc.universe)} atoms, {len(doc.rules)} rules")
    body = "\n".join(f"  {rule_text(lat, r, doc.syntax, fmt)}" for r in doc.rules)
    parts.append("program {\n" + (body + "\n" if body else "") + "}")
    for name, v in (("init", doc.init), ("candidate", doc.cand)):
        if v is not None:
            parts.append("")
            parts.append("\n".join([f"{name} {{", *valuation_lines(lat, v, fmt, not canonical), "}"]))
    return "\n".join(parts) + "\n"


def valuation_json(lat, v):
    return {a: [lat.fmt[v[a][0]], lat.fmt[v[a][1]]] for a in sorted(v)}


def canonical_valuation_text(lat, v):
    """``PairValuation.canonical_text``: the sort key of enumeration output."""
    return "\n".join(f"{a} = <{lat.fmt[v[a][0]]}, {lat.fmt[v[a][1]]}>." for a in sorted(v))
