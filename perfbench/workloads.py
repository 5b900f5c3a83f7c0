"""Seeded operation sets for the three workloads.

Each workload is a fixed list of slots.  A slot fixes the shape of its
input (lattice, atoms, rules, body lengths, derivation depth, syntax,
command); the seed only chooses the contents (atoms picked, annotations,
initial values).  Shapes fixed per slot keep a run's cost steady from seed
to seed, so the run-to-run spread measures the program, not the draw.

The workloads issue 250, 45 and 25 operations per round.  With N
operations whose samples cluster by operation, the median and the 90th
percentile over all samples sit near ranks N/2 and 0.9 N.  For ``verify``
and ``load`` both fall in the middle of one operation's cluster, not on
the edge between two, where they would swing between two operations'
extremes; for ``revise`` they fall among the 256- and 729-candidate
operations, whose medians lie within a few percent of their neighbours'.

Why these three workloads:

- ``revise``: brute-force ``revise`` under ``mpt`` and under ``fitting``,
  one operation each, on 125 programs of 1-4 atoms over
  ``two``, level chains, ``powerset{p,q}`` and the custom-complement
  ``powerset{p,q,r}``; candidate spaces from 16 to 65,536 with few
  revisions.  Per-candidate checking dominates; parsing and validation are
  negligible.  Change-space enumeration and a faster candidate kernel act
  here.
- ``verify``: ``verify --semantics both``, ``nc`` and ``check`` on
  documents of 50-400 atoms and up to ~500 rules, and ``diff`` on nine of
  the twelve.  Half are deep derivation chains (fixpoint iterations close to
  the rule count, cost quadratic in depth), half shallow and wide; both
  justified and rejected candidates occur.  The same engine without
  enumeration: a few large fixpoints, compilation paid on every call.  A
  change that speeds ``revise`` by front-loading compilation shows its
  cost here.
- ``load``: ``validate``, ``translate``, ``shift`` and ``nc`` on small
  programs over large lattices (powersets of 5-6 labels with default and
  permuted complements, products of chains, long level chains).  The cubic
  axiom scan at parse time and the text layer dominate; the engine is near
  zero.  Cheaper validation shows here, and engine work should not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    Doc,
    bottom_valuation,
    chain_lattice,
    powerset_lattice,
    product_lattice,
    two_lattice,
    unit_lattice,
)
from .reference import Pairs, compile_rules, label_perm, least_fixpoint

WORKLOADS = ("revise", "verify", "load")

# ``revise`` runs each semantics as its own operation.  Under
# ``--semantics both`` annrev prints the mpt revision count in the fitting
# report's stats as well (``cli._cmd_revise`` passes one stats dict to both
# reports); ``run.py --selftest`` runs that form and reports the mismatch.
SEMANTICS = ("mpt", "fitting")


@dataclass
class Op:
    """One CLI operation: ``annrev <command> <doc file> <args...> --format json``."""

    id: str
    command: str
    args: tuple
    doc_name: str
    doc: Doc
    iso_spec: dict | None = None
    iso_text: str | None = None


LATTICES = {
    "two": two_lattice,
    "chain3": lambda: chain_lattice(["lo", "mid", "hi"]),
    "chain4": lambda: chain_lattice(["c0", "c1", "c2", "c3"]),
    "chain5": lambda: chain_lattice(["none", "weak", "fair", "strong", "full"]),
    "chain12": lambda: chain_lattice([f"s{i}" for i in range(12)]),
    "chain40": lambda: chain_lattice([f"lv{i}" for i in range(40)]),
    "chain48": lambda: chain_lattice([f"lv{i}" for i in range(48)]),
    "unit": lambda: unit_lattice(10),
    "pq": lambda: powerset_lattice(("p", "q")),
    "pqr": lambda: powerset_lattice(("p", "q", "r")),
    "pqr_custom": lambda: powerset_lattice(("p", "q", "r"), {"p": "q", "q": "p", "r": "r"}),
    "p4": lambda: powerset_lattice(("p", "q", "r", "s")),
    "p4_custom": lambda: powerset_lattice(("p", "q", "r", "s"),
                                          {"p": "q", "q": "p", "r": "s", "s": "r"}),
    "p5": lambda: powerset_lattice(("l0", "l1", "l2", "l3", "l4")),
    "p5_custom": lambda: powerset_lattice(("l0", "l1", "l2", "l3", "l4"),
                                          {"l0": "l1", "l1": "l0", "l2": "l2",
                                           "l3": "l4", "l4": "l3"}),
    "p6_custom": lambda: powerset_lattice(("l0", "l1", "l2", "l3", "l4", "l5"),
                                          {"l0": "l5", "l5": "l0", "l1": "l4", "l4": "l1",
                                           "l2": "l2", "l3": "l3"}),
    "prod3_flip": lambda: product_lattice(3, 3, flip=True),
    "prod5_flip": lambda: product_lattice(5, 5, flip=True),
    "prod4x6": lambda: product_lattice(4, 6),
}


def random_atom(rng, lat, atoms, syntax):
    """A head or body atom annotated above bottom on its tested side."""
    a = rng.choice(atoms)
    if syntax == "old":
        return (rng.choice(("in", "out")), a, rng.choice(lat.non_bottom()))
    return (a, (rng.choice(lat.non_bottom()), rng.choice(lat.order)))


def random_rules(rng, lat, atoms, count, syntax, bodies=(0, 1, 2, 1)):
    """``count`` distinct rules; rule k has ``bodies[k % len(bodies)]`` body
    atoms."""
    rules = {}
    k = 0
    while len(rules) < count:
        rule = (random_atom(rng, lat, atoms, syntax),
                tuple(random_atom(rng, lat, atoms, syntax)
                      for _ in range(bodies[k % len(bodies)])))
        rules.setdefault(rule, None)
        k += 1
    return tuple(rules)


def random_valuation(rng, lat, atoms):
    return {a: (rng.choice(lat.order), rng.choice(lat.order)) for a in atoms}


def disguise(rng, slot_rng, doc):
    """The document under a conflation-preserving isomorphism: atoms
    renamed by ``rng`` in an order-preserving way, and, as ``slot_rng``
    draws, p and q exchanged on powersets and the two sides of every pair
    exchanged (in and out in old syntax).  The atom order and the symmetry
    each move the search's cost by up to a fifth, so only the names come
    from the run seed."""
    lat = doc.lat
    names = sorted(rng.sample("abcdefghkmnrstuvwxyz", len(doc.universe)))
    amap = dict(zip(doc.universe, names))
    perm = (label_perm(lat, {"p": "q", "q": "p"})
            if lat.kind == "powerset" and slot_rng.random() < 0.5 else list(range(lat.n)))
    swap = slot_rng.random() < 0.5

    def pair(x):
        p, n = (x[1], x[0]) if swap else x
        return (perm[p], perm[n])

    def atom(x):
        if doc.syntax == "old":
            pol, a, e = x
            return ({"in": "out", "out": "in"}[pol] if swap else pol, amap[a], perm[e])
        return (amap[x[0]], pair(x[1]))

    rules = tuple((atom(h), tuple(atom(b) for b in body)) for h, body in doc.rules)
    init = {amap[a]: pair(v) for a, v in doc.init.items()}
    return Doc(lat, doc.syntax, tuple(names), rules, init, props=doc.props)


# (lattice, atoms, rules, count); syntax alternates between operations.
# Small and mid spaces get fresh random programs from the seed; with many
# of them the median latency is a median over many draws.  Spaces from 729
# up are few and costly, so each slot keeps one program, drawn from the
# slot's own fixed seed, that the run seed only disguises; otherwise a
# single draw would move throughput and the 90th percentile by itself.
REVISE_RANDOM = (
    [("two", 2, 3, 4), ("pq", 1, 3, 4), ("pqr_custom", 1, 3, 4), ("two", 3, 4, 4),
     ("chain3", 2, 4, 4)]                                          # 16-81
    + [("two", 4, 5, 28), ("pq", 2, 4, 28), ("chain4", 2, 4, 28)]  # 256
)
REVISE_FIXED = (
    [("chain3", 3, 5, 16)]                                         # 729
    + [("pq", 3, 5, 1), ("chain4", 3, 5, 1), ("pqr_custom", 2, 4, 1),
       ("chain3", 4, 5, 1)]                                        # 4,096-6,561
    + [("pq", 4, 4, 1)]                                            # 65,536
)


def revise_ops(rng):
    ops = []
    for fixed, slots in ((False, REVISE_RANDOM), (True, REVISE_FIXED)):
        for lat_name, n_atoms, n_rules, count in slots:
            for _ in range(count):
                k = len(ops) // len(SEMANTICS)
                lat = LATTICES[lat_name]()
                syntax = "old" if k % 2 == 0 else "new"
                atoms = tuple("abcd"[:n_atoms])
                src = random.Random(f"revise-slot:{k}") if fixed else rng
                doc = Doc(lat, syntax, atoms, random_rules(src, lat, atoms, n_rules, syntax),
                          random_valuation(src, lat, atoms))
                doc.props = {"lattice": lat_name, "space": (lat.n ** 2) ** n_atoms}
                if fixed:
                    doc = disguise(rng, src, doc)
                name = f"r{k:03d}"
                for s in SEMANTICS:
                    ops.append(Op(f"{name}-{s}", "revise", ("--semantics", s), name, doc))
    return ops


def _revised_by_nc(doc):
    P = Pairs(doc.lat)
    change, _ = least_fixpoint(P, doc.universe, compile_rules(doc))
    return {a: P.revise(doc.init[a], change[a]) for a in doc.universe}


def _perturb(rng, lat, cand, atom):
    p, n = cand[atom]
    others = [x for x in lat.order if x != n]
    cand[atom] = (p, rng.choice(others))


def deep_doc(rng, lat, depth, extra, syntax, reject):
    """A derivation chain a000 <- a001 <- ... plus ``extra`` cross rules
    that read earlier atoms.  Body annotations sit under the head derived
    one step earlier, so every rule fires and the fixpoint takes ``depth``
    productive steps.  Init is bottom on every tested side."""
    atoms = [f"a{i:03d}" for i in range(depth)]
    heads, rules, tested = [], [], {}
    for i, a in enumerate(atoms):
        if syntax == "old":
            head = (rng.choice(("in", "out")), a, rng.choice(lat.non_bottom()))
        else:
            head = (a, (rng.choice(lat.non_bottom()), rng.choice(lat.order)))
        body = ()
        if i:
            body = (_under(rng, lat, heads[i - 1], syntax),)
        heads.append(head)
        rules.append((head, body))
    for _ in range(extra):
        # Cross rules add evidence on the side no body tests, so they
        # cannot shortcut the chain.
        i = rng.randrange(2, depth)
        j = rng.randrange(0, i - 1)
        if syntax == "old":
            head = ("out" if heads[i][0] == "in" else "in", atoms[i],
                    rng.choice(lat.non_bottom()))
        else:
            head = (atoms[i], (lat.bot, rng.choice(lat.non_bottom())))
        rules.append((head, (_under(rng, lat, heads[j], syntax),)))
    for h in heads:
        tested[h[1] if syntax == "old" else h[0]] = h[0] if syntax == "old" else "in"
    init = bottom_valuation(lat, atoms)
    for a in rng.sample(atoms, depth // 6):
        v = rng.choice(lat.non_bottom())
        init[a] = (lat.bot, v) if tested[a] == "in" else (v, lat.bot)
    doc = Doc(lat, syntax, tuple(atoms), tuple(rules), init)
    doc.cand = _revised_by_nc(doc)
    if reject:
        _perturb(rng, lat, doc.cand, atoms[-1])
    return doc


def _under(rng, lat, head, syntax):
    """A body atom on the head's atom, annotated at or below the head."""
    if syntax == "old":
        pol, a, e = head
        return (pol, a, rng.choice(lat.below(e)))
    a, (p, n) = head
    return (a, (rng.choice(lat.below(p)), rng.choice([lat.bot] + lat.below(n))))


def wide_doc(rng, lat, n_atoms, n_rules, syntax, reject):
    """Three layers: facts, rules reading facts, rules reading those; at
    most three productive fixpoint steps whatever the size."""
    atoms = [f"w{i:03d}" for i in range(n_atoms)]
    third = n_atoms // 3
    layers = [atoms[:third], atoms[third:2 * third], atoms[2 * third:]]
    rules = {}
    k = 0
    while len(rules) < n_rules:
        layer = k % 3
        head = random_atom(rng, lat, layers[layer], syntax)
        body = () if layer == 0 else tuple(
            random_atom(rng, lat, layers[layer - 1], syntax) for _ in range(1 + k % 2))
        rules.setdefault((head, body), None)
        k += 1
    init = bottom_valuation(lat, atoms)
    for a in rng.sample(atoms, n_atoms // 3):
        init[a] = (rng.choice(lat.order), rng.choice(lat.order))
    doc = Doc(lat, syntax, tuple(atoms), tuple(rules), init)
    doc.cand = _revised_by_nc(doc)
    if reject:
        _perturb(rng, lat, doc.cand, rng.choice(atoms))
    return doc


# (kind, lattice, size, rules or extra rules, syntax, diff).  diff scans
# the whole pair lattice once per atom; the three documents where that
# costs most skip it, so that the fixpoints stay this workload's main work.
VERIFY_SLOTS = (
    ("deep", "pq", 50, 5, "old", True),
    ("deep", "chain5", 100, 10, "new", True),
    ("deep", "unit", 150, 15, "old", True),
    ("deep", "pqr_custom", 200, 20, "new", True),
    ("deep", "p4", 250, 25, "old", False),
    ("deep", "chain5", 400, 40, "new", True),
    ("wide", "unit", 50, 100, "new", True),
    ("wide", "p4_custom", 100, 200, "old", True),
    ("wide", "pq", 200, 300, "new", True),
    ("wide", "chain5", 250, 500, "old", True),
    ("wide", "pqr", 300, 400, "new", False),
    ("wide", "pqr_custom", 400, 500, "old", False),
)


def verify_ops(rng):
    ops = []
    for k, (kind, lat_name, size, rules, syntax, with_diff) in enumerate(VERIFY_SLOTS):
        lat = LATTICES[lat_name]()
        make = deep_doc if kind == "deep" else wide_doc
        doc = make(rng, lat, size, rules, syntax, reject=k % 2 == 1)
        doc.props = {"lattice": lat_name, "kind": kind}
        name = f"v{k:02d}"
        commands = [("verify", ("--semantics", "both")), ("nc", ()), ("check", ())]
        if with_diff:
            commands.append(("diff", ()))
        for cmd, args in commands:
            ops.append(Op(f"{name}-{cmd}", cmd, args, name, doc))
    return ops


def _iso_expr(lat, perm_names, swap):
    parts = []
    if perm_names:
        parts.append("perm(" + ", ".join(f"{a}->{b}" for a, b in perm_names) + ")")
    if swap:
        parts.append("swap")
    return " ".join(parts) or "id"


def _element_perm(lat, perm_names):
    if not perm_names:
        return None
    if lat.kind == "powerset":
        return label_perm(lat, dict(perm_names))
    index = {name: i for i, name in enumerate(lat.fmt)}
    perm = list(range(lat.n))
    for a, b in perm_names:
        perm[index[a]] = index[b]
    return perm


def _coordinate_swap(lat):
    return [(f"x{i}y{j}", f"x{j}y{i}") for i, j in lat.coords if i != j]


# (lattice, atoms, rules, syntax, commands)
LOAD_SLOTS = (
    ("p6_custom", 10, 30, "new", ("translate",)),
    ("p5", 16, 48, "new", ("validate", "translate")),
    ("p5_custom", 14, 40, "old", ("validate", "translate", "nc")),
    ("chain40", 16, 48, "old", ("validate", "translate", "nc")),
    ("chain48", 12, 36, "new", ("validate", "translate")),
    ("prod5_flip", 12, 36, "new", ("validate", "translate")),
    ("prod4x6", 10, 30, "old", ("validate", "translate")),
    ("pqr", 8, 24, "old", ("shift", "validate")),
    ("pqr_custom", 8, 24, "new", ("shift", "translate")),
    ("p4", 8, 24, "new", ("shift", "nc")),
    ("chain12", 10, 30, "old", ("shift", "translate")),
    ("prod3_flip", 8, 24, "new", ("shift", "validate")),
)

# Per lattice: (label or element renaming, swap) for the default entry and
# for the entries of the first two atoms.  The q<->r renaming on the
# permuted-complement powerset does not preserve conflation, so that shift
# also prints the warning.
SHIFTS = {
    "pqr": ((("p", "q"), ("q", "p")), True),
    "pqr_custom": ((("q", "r"), ("r", "q")), False),
    "p4": ((("p", "q"), ("q", "r"), ("r", "p")), True),
    "chain12": ((), True),
}


def load_ops(rng):
    ops = []
    for k, (lat_name, n_atoms, n_rules, syntax, commands) in enumerate(LOAD_SLOTS):
        lat = LATTICES[lat_name]()
        atoms = tuple(f"x{i:02d}" for i in range(n_atoms))
        doc = Doc(lat, syntax, atoms, random_rules(rng, lat, atoms, n_rules, syntax),
                  random_valuation(rng, lat, atoms))
        doc.props = {"lattice": lat_name}
        name = f"l{k:02d}"
        for cmd in commands:
            op = Op(f"{name}-{cmd}", cmd, (), name, doc)
            if cmd == "translate":
                op.args = ("--to", "new" if syntax == "old" else "old")
            if cmd == "shift":
                perm_names, swap = (SHIFTS[lat_name] if lat_name in SHIFTS
                                    else (_coordinate_swap(lat), False))
                first, second = rng.sample(atoms, 2)
                entries = [(first, (), not swap), (second, perm_names, False),
                           ("*", perm_names, swap)]
                op.iso_spec = {a: (_element_perm(lat, p), s) for a, p, s in entries}
                op.iso_text = "iso {\n" + "".join(
                    f"  {a}: {_iso_expr(lat, p, s)};\n" for a, p, s in entries) + "}\n"
                op.args = ("--iso", f"{name}.iso")
            ops.append(op)
    return ops


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return {"revise": revise_ops, "verify": verify_ops, "load": load_ops}[workload](rng)
