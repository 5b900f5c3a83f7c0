"""Shared builders for the test suite: the lattices the fixtures live on,
random program/valuation generators, enumeration shortcuts, the
brute-force enumeration oracle with its literal justification check, the
exhaustive lattice-axiom oracle on declarations, the bound-table and
pair-order oracles, and the character-by-character lexer and full
pair-space difference that the library's regex lexer and least-change
fixpoint are compared against."""

import random
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from annrev import (
    IN,
    NEW,
    OLD,
    AnnotatedRevisionAtom,
    CustomLattice,
    LatticeError,
    LatticeMismatchError,
    LevelChain,
    NewRule,
    OldRule,
    PairAnnotatedAtom,
    PairIso,
    PairMap,
    PairValuation,
    PairValue,
    PowersetLattice,
    Program,
    RevisionAtom,
    RevisionOutcome,
    TValuation,
    UnsupportedOperationError,
    ValidationReport,
    apply_change,
    enumerate_revisions,
    f_reduct,
    pair_space,
    reduct,
    rin,
    rout,
    satisfies,
    theta,
)
from annrev.textio import DslLexError


class Token(NamedTuple):
    """One token of ``oracle_lex``, with its 1-based position."""
    kind: str  # ident | number | sym | eof
    text: str
    line: int
    col: int


PQR_COMPLEMENT = {
    frozenset(): frozenset("pqr"),
    frozenset("p"): frozenset("pr"),
    frozenset("q"): frozenset("qr"),
    frozenset("r"): frozenset("pq"),
    frozenset("pq"): frozenset("r"),
    frozenset("pr"): frozenset("p"),
    frozenset("qr"): frozenset("q"),
    frozenset("pqr"): frozenset(),
}


def powerset_p():
    return PowersetLattice(("p",))


def powerset_pq():
    return PowersetLattice(("p", "q"))


def powerset_pqr_custom():
    """Powerset of {p,q,r} with the non-standard De Morgan complement used by
    the shifting counterexample."""
    return PowersetLattice(("p", "q", "r"), PQR_COMPLEMENT)


def chain4():
    return LevelChain(("c0", "c1", "c2", "c3"))


def label_involution_powerset(labels, swaps):
    """Powerset with the De Morgan complement ``S -> full - sigma(S)``,
    where the label involution ``sigma`` exchanges each pair in ``swaps``."""
    sigma = {l: l for l in labels}
    for x, y in swaps:
        sigma[x], sigma[y] = y, x
    full = frozenset(labels)
    table = {e.key: full - {sigma[l] for l in e.key}
             for e in PowersetLattice(labels).elements()}
    return PowersetLattice(labels, table)


def diamond_fixed():
    """The diamond bot < a, b < top whose complement fixes a and b: De
    Morgan but not Boolean."""
    return CustomLattice(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        {"bot": "top", "a": "a", "b": "b", "top": "bot"})


def product_decl(m, n):
    """Names, order pairs and the reversing complement of an m x n grid of
    chains; a 1 x n grid is a chain and 2 x 2 the diamond."""
    coords = [(i, j) for i in range(m) for j in range(n)]
    names = {c: f"x{c[0]}y{c[1]}" for c in coords}
    order = [(names[a], names[b]) for a in coords for b in coords
             if a != b and a[0] <= b[0] and a[1] <= b[1]]
    comp = {names[(i, j)]: names[(m - 1 - i, n - 1 - j)] for i, j in coords}
    return list(names.values()), order, comp


def chain_product(m, n):
    """The m x n grid of chains as a custom lattice."""
    return CustomLattice(*product_decl(m, n))


def oatom(lat, pol, atom, ann):
    if not hasattr(ann, "lattice"):
        ann = lat.element(ann)
    return AnnotatedRevisionAtom(RevisionAtom(pol, atom), ann)


def old_program(lat, universe, rules):
    """Rules given as (head_triple, [body_triples]) with triples
    (polarity, atom, annotation)."""
    built = []
    for head, body in rules:
        built.append(OldRule(
            oatom(lat, *head), tuple(oatom(lat, *b) for b in body)))
    return Program(OLD, lat, universe, built)


def valuation(lat, entries):
    """Valuation from {atom: (pos, neg)} with raw annotation payloads."""
    vals = {}
    for a, (x, y) in entries.items():
        if not hasattr(x, "lattice"):
            x = lat.element(x)
        if not hasattr(y, "lattice"):
            y = lat.element(y)
        vals[a] = PairValue(x, y)
    return PairValuation(lat, vals)


def unit_quarters(lat):
    """A complement-closed handful of unit-chain values for random programs
    over the infinite chain."""
    return tuple(lat.element(Fraction(k, 4)) for k in range(5))


def _pairs(lat, els):
    return pair_space(lat) if els is None else tuple(
        PairValue(x, y) for x in els for y in els)


def random_old_program(rng, lat, atoms, max_rules, max_body=2, els=None):
    """Random revision-atom program; annotations come from ``els``, every
    lattice element by default."""
    els = lat.elements() if els is None else els
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = oatom(lat, rng.choice(("in", "out")), rng.choice(atoms), rng.choice(els))
        body = tuple(
            oatom(lat, rng.choice(("in", "out")), rng.choice(atoms), rng.choice(els))
            for _ in range(rng.randint(0, max_body)))
        rules.append(OldRule(head, body))
    return Program(OLD, lat, atoms, rules)


def random_new_program(rng, lat, atoms, max_rules, max_body=2, els=None):
    space = _pairs(lat, els)
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = PairAnnotatedAtom(rng.choice(atoms), rng.choice(space))
        body = tuple(
            PairAnnotatedAtom(rng.choice(atoms), rng.choice(space))
            for _ in range(rng.randint(0, max_body)))
        rules.append(NewRule(head, body))
    return Program(NEW, lat, atoms, rules)


def random_valuation(rng, lat, atoms, els=None):
    space = _pairs(lat, els)
    return PairValuation(lat, {a: rng.choice(space) for a in atoms})


def deep_chain_program(rng, lat, syntax, depth, cross, els=None):
    """A program, its rules in shuffled order, whose least fixpoint takes
    exactly ``depth`` productive steps.  Returns ``(program, late_index)``.

    Chain rule t reads exactly the head of rule t - 1, and each head lifts
    its atom (or, in revision-atom syntax, one side of it) strictly above
    every earlier head on it, so rule t first fires at step t.  ``cross``
    rules each read two chain heads, in random order, and put a random
    head on the extra atom ``z``, which no body reads; none reads the last
    chain head.  The rule at ``late_index`` reads the last chain head and
    repeats the first: it first fires on the final step, which changes no
    value and so adds no trace entry.
    """
    els = lat.elements() if els is None else els
    bot = lat.bot
    space = _pairs(lat, els)
    atoms = []
    now = {}
    heads = []
    while len(heads) < depth:
        if not atoms or rng.random() < 0.2:
            atoms.append(f"x{len(atoms)}")
        a = rng.choice(atoms)
        if syntax == OLD:
            pol = rng.choice(("in", "out"))
            cur = now.get((a, pol), bot)
            ups = list(dict.fromkeys(cur | y for y in els if not y <= cur))
            if ups:
                now[a, pol] = rng.choice(ups)
                heads.append(oatom(lat, pol, a, now[a, pol]))
        else:
            cur = now.get(a, PairValue(bot, bot))
            ups = list(dict.fromkeys(cur | q for q in space if not q <= cur))
            if ups:
                now[a] = rng.choice(ups)
                heads.append(PairAnnotatedAtom(a, now[a]))
    if syntax == OLD:
        rule = OldRule

        def z_head():
            return oatom(lat, rng.choice(("in", "out")), "z", rng.choice(els))
    else:
        rule = NewRule

        def z_head():
            return PairAnnotatedAtom("z", rng.choice(space))
    rules = [rule(heads[0], ())]
    rules += [rule(heads[t], (heads[t - 1],)) for t in range(1, depth)]
    for _ in range(cross):
        i, j = sorted(rng.sample(range(depth - 1), 2))
        body = (heads[i], heads[j]) if rng.random() < 0.5 else (heads[j], heads[i])
        rules.append(rule(z_head(), body))
    late = rule(heads[0], (heads[-1],))
    rules.append(late)
    rng.shuffle(rules)
    p = Program(syntax, lat, (*atoms, "z"), rules)
    return p, p.rules.index(late)


def random_universe(rng, weights=((1, 9), (2, 9), (3, 2))):
    """Small universes, biased toward 1 or 2 atoms to keep enumeration
    affordable while still exercising 3-atom cases."""
    sizes = [s for s, w in weights for _ in range(w)]
    n = rng.choice(sizes)
    return tuple("abc"[:n])


def revision_set(p, B_I, semantics="mpt"):
    return frozenset(o.candidate for o in enumerate_revisions(p, B_I, semantics))


def oracle_space(p, B_I):
    """Per-atom search space of the brute-force oracle.

    Finite lattices: every pair.  Unit chain: pairs over the constants
    occurring in the program and the initial valuation, with bottom and top,
    closed under complement.  On a chain that set is a sublattice, and it
    holds every component of ``(B_I & -C) | C`` for any join ``C`` of rule
    heads, so no revision lies outside it.
    """
    lat = p.lattice
    if lat.is_finite:
        return pair_space(lat)
    consts = {lat.bot, lat.top}
    for r in p.rules:
        for x in (r.head, *r.body):
            ann = x.ann
            consts.update((ann.pos, ann.neg) if isinstance(ann, PairValue) else (ann,))
    for _, pv in B_I.items():
        consts.update((pv.pos, pv.neg))
    consts |= {~e for e in set(consts)}
    return _pairs(lat, sorted(consts, key=lambda e: e.key))


def _head_pair(lat, head):
    """The atom a rule head names and the pair it adds to the one-step
    image: a revision atom's annotation on its side, bottom on the other."""
    if isinstance(head, PairAnnotatedAtom):
        return head.atom, head.ann
    bot = lat.bot
    pair = PairValue(head.ann, bot) if head.ratom.polarity == IN else PairValue(bot, head.ann)
    return head.ratom.atom, pair


def literal_tp(p, v):
    """The one-step operator by its definition on the public rule objects:
    the heads of the rules whose bodies ``satisfies(theta(v), body)`` (``v``
    itself for a pair-annotation program), and the join of their
    annotations per revision atom as a ``TValuation`` (per atom as a
    ``PairValuation`` for a pair-annotation program).  Shares no code with
    the engine's compiled step."""
    lat = p.lattice
    if p.syntax == OLD:
        heads = frozenset(r.head for r in p.rules if satisfies(theta(v), r.body))
        image = {l: lat.bot for a in p.universe for l in (rin(a), rout(a))}
        for h in heads:
            image[h.ratom] = image[h.ratom] | h.ann
        return heads, TValuation(lat, image)
    heads = frozenset(r.head for r in p.rules if satisfies(v, r.body))
    image = {a: PairValue(lat.bot, lat.bot) for a in p.universe}
    for h in heads:
        image[h.atom] = image[h.atom] | h.ann
    return heads, PairValuation(lat, image)


def literal_justification(p, B_I, B_R, semantics="mpt"):
    """The definition of a justified revision on the public rule objects:
    the reduct (``reduct`` under mpt, ``f_reduct`` under fitting), its least
    fixpoint iterated from bottom with ``satisfies``, recording the reduct's
    ``sources`` of the fired rules per productive step, then
    ``apply_change``.  The outcome gets each step's fired sources minus
    those of the step before.  Shares no code with the engine's compiled
    kernel."""
    lat = p.lattice
    red = (reduct if semantics == "mpt" else f_reduct)(p, B_I, B_R)
    change = PairValuation.bottom(lat, p.universe)
    steps, before = [], set()
    for _ in range(len(red.rules) + 2):
        fired = [k for k, r in enumerate(red.rules) if satisfies(change, r.body)]
        image = PairValuation.bottom(lat, p.universe)
        for k in fired:
            a, pv = _head_pair(lat, red.rules[k].head)
            image = image.replace(a, image[a] | pv)
        if image == change:
            verified = apply_change(B_I, change) == B_R
            return RevisionOutcome(B_R, semantics, change, verified, tuple(steps))
        now = {red.sources[k] for k in fired}
        steps.append(tuple(sorted(now - before)))
        before = now
        change = image
    raise AssertionError("the reduct's operator reached no fixpoint")


def reference_lfp(lat, universe, sources, rules):
    """Least fixpoint and trace of the public rule objects ``rules``, rule
    ``k`` standing for source rule ``sources[k]``, iterated naively from the
    bottom valuation: each step tests every rule, and each productive step
    records ``tuple(sorted(fired))``, the sources of every rule whose body
    the current values satisfy.  Returns (atom -> pair, trace); shares no
    code with the engine's loop."""
    bottom = PairValue(lat.bot, lat.bot)
    compiled = [(i, *_head_pair(lat, r.head), [_head_pair(lat, b) for b in r.body])
                for i, r in zip(sources, rules)]
    vals = dict.fromkeys(universe, bottom)
    trace = []
    while True:
        fired = {i for i, _, _, body in compiled if all(pv <= vals[a] for a, pv in body)}
        image = dict.fromkeys(universe, bottom)
        for i, a, pv, _ in compiled:
            if i in fired:
                image[a] = image[a] | pv
        if image == vals:
            return vals, tuple(trace)
        trace.append(tuple(sorted(fired)))
        vals = image


def brute_force_revisions(p, B_I, semantics="mpt"):
    """Guess-and-check oracle: every valuation over ``oracle_space`` checked
    with ``literal_justification``, verified outcomes in canonical order."""
    found = []
    for combo in product(oracle_space(p, B_I), repeat=len(p.universe)):
        o = literal_justification(
            p, B_I, PairValuation(p.lattice, dict(zip(p.universe, combo))), semantics)
        if o.verified:
            found.append(o)
    found.sort(key=lambda o: o.candidate.canonical_text())
    return found


def all_valuations(lat, atoms):
    """Every pair valuation over the universe; keep the universe tiny."""
    space = pair_space(lat)
    for combo in product(space, repeat=len(atoms)):
        yield PairValuation(lat, dict(zip(atoms, combo)))


def random_label_perm(rng, lat):
    labels = list(lat.labels)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    sigma = dict(zip(labels, shuffled))
    return {
        e: lat.element(frozenset(sigma[l] for l in e.key))
        for e in lat.elements()}


def random_conflation_iso(rng, lat, atoms):
    """Per-atom isomorphisms built from label permutations and component
    swaps; both preserve conflation when the complement is set-theoretic."""
    maps = {}
    for a in atoms:
        perm = random_label_perm(rng, lat) if rng.random() < 0.7 else None
        swap = rng.random() < 0.5
        maps[a] = PairMap.from_permutation(lat, perm, swap=swap) if perm is not None \
            else (PairMap.swap(lat) if swap else PairMap.identity(lat))
    return PairIso(lat, maps)


def grow_to_model(p, B):
    """Close a valuation upward under the program's one-step operator; the
    result is always a model and reachable in few steps."""
    from annrev import tpb
    cur = B
    for _ in range(len(p.rules) + 2):
        nxt = cur | tpb(p, cur)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def decl_order(decl):
    """The relation of a lattice declaration ``(names, order_pairs,
    complement)`` as a boolean matrix over the names' indices, closed
    reflexively and transitively by a plain Warshall loop."""
    names, order, _ = decl
    index = {x: i for i, x in enumerate(names)}
    size = range(len(names))
    leq = [[i == j for j in size] for i in size]
    for a, b in order:
        leq[index[a]][index[b]] = True
    for k in size:
        for i in size:
            if leq[i][k]:
                for j in size:
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def decl_rows(decl):
    """``(up, down)`` bitmask rows of a declaration's closed relation, as
    ``lattice._code_tables`` and ``lattice._bound_table`` take them:
    ``up[i]`` holds every ``k >= i`` and ``down[i]`` every ``k <= i``."""
    leq = decl_order(decl)
    size = range(len(leq))
    up = [sum(1 << k for k in size if leq[i][k]) for i in size]
    down = [sum(1 << k for k in size if leq[k][i]) for i in size]
    return up, down


def handle_decl(lat):
    """The declaration of a finite handle: its elements' texts, every
    strict pair of its order and its complement."""
    els = lat.elements()
    return ([repr(x) for x in els],
            [(repr(x), repr(y)) for x in els for y in els if x < y],
            {repr(x): repr(~x) for x in els})


def powerset_decl(labels, table):
    """The declaration of the powerset of ``labels`` under inclusion with
    the complement ``table``, its subsets in the handle's canonical order
    and written as the handle writes them."""
    subsets = [frozenset()]
    for l in labels:
        subsets += [s | {l} for s in subsets]
    subsets.sort(key=lambda s: sorted(labels.index(l) for l in s))

    def fmt(s):
        return "{" + ",".join(l for l in labels if l in s) + "}"
    return ([fmt(s) for s in subsets],
            [(fmt(s), fmt(t)) for s in subsets for t in subsets if s < t],
            {fmt(s): fmt(table[s]) for s in subsets})


def axiom_scan(decl, total=False):
    """Exhaustive axiom check of a lattice declaration ``(names,
    order_pairs, complement)``, without building a handle: the relation
    closed by ``decl_order``, meets and joins found by ``bound_oracle``.
    Checks partial order, existence of all binary meets and joins plus
    bottom and top, distributivity on every triple, the complement being an
    involution, then its reversing each cover ``x < x | j`` for ``x`` in
    element order and each join-irreducible ``j`` (an element with exactly
    one lower cover) not below ``x`` in element order, and, when ``total``,
    totality.  Once the complement passes, both De Morgan laws are asserted
    on every pair.  Cubic in the number of elements; the reference that the
    lattice constructors are compared against.  The report names the first
    offender."""
    def fail(msg):
        return ValidationReport(False, (msg,))

    names, _, complement = decl
    leq = decl_order(decl)
    els = range(len(names))
    index = {x: i for i, x in enumerate(names)}
    comp = [index[complement[x]] for x in names]
    for x in els:
        if not leq[x][x]:
            return fail(f"order not reflexive at {names[x]}")
    for x in els:
        for y in els:
            if leq[x][y] and leq[y][x] and x != y:
                return fail(f"order not antisymmetric at {names[x]}, {names[y]}")
            for z in els:
                if leq[x][y] and leq[y][z] and not leq[x][z]:
                    return fail(f"order not transitive at {names[x]}, {names[y]}, {names[z]}")

    meet = [[bound_oracle(leq, x, y, True) for y in els] for x in els]
    join = [[bound_oracle(leq, x, y, False) for y in els] for x in els]
    for x in els:
        for y in els:
            if meet[x][y] is None:
                return fail(f"no meet of {names[x]} and {names[y]}")
            if join[x][y] is None:
                return fail(f"no join of {names[x]} and {names[y]}")
    if sum(all(leq[b][x] for x in els) for b in els) != 1:
        return fail("order has no least element")
    if sum(all(leq[x][t] for x in els) for t in els) != 1:
        return fail("order has no greatest element")

    for x in els:
        for y in els:
            for z in els:
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return fail(f"distributivity fails at {names[x]}, {names[y]}, {names[z]}")

    for x in els:
        if comp[comp[x]] != x:
            return fail(f"complement not an involution at {names[x]}")

    def covers(x, y):
        return x != y and leq[x][y] and not any(
            leq[x][z] and leq[z][y] for z in els if z != x and z != y)

    irreducible = [j for j in els if sum(covers(k, j) for k in els) == 1]
    for x in els:
        for j in irreducible:
            y = join[x][j]
            if not leq[j][x] and covers(x, y) and not leq[comp[y]][comp[x]]:
                return fail(f"complement not order-reversing at {names[x]}, {names[y]}")
    # An order-reversing involution is a dual automorphism.
    for x in els:
        for y in els:
            assert comp[join[x][y]] == meet[comp[x]][comp[y]]
            assert comp[meet[x][y]] == join[comp[x]][comp[y]]

    if total:
        for x in els:
            for y in els:
                if not (leq[x][y] or leq[y][x]):
                    return fail(f"chain not totally ordered at {names[x]}, {names[y]}")
    return ValidationReport(True)


def bound_oracle(leq, i, j, lower):
    """Meet (``lower``) or join of elements ``i`` and ``j`` of the relation
    ``leq``, by testing every common bound against all the others: the
    reference for ``lattice._bound_table`` and ``axiom_scan``.  None when
    there is not exactly one best bound."""
    if lower:
        cands = [k for k in range(len(leq)) if leq[k][i] and leq[k][j]]
        best = [m for m in cands if all(leq[k][m] for k in cands)]
    else:
        cands = [k for k in range(len(leq)) if leq[i][k] and leq[j][k]]
        best = [m for m in cands if all(leq[m][k] for k in cands)]
    return best[0] if len(best) == 1 else None


def pair_order_preserved(lat, f):
    """Whether ``f``, a function on the pair values of ``lat``, satisfies
    ``x <= y  <=>  f(x) <= f(y)`` on every pair of pair values: the
    exhaustive order check of a pair map, quartic in the lattice size."""
    space = pair_space(lat)
    images = {v: f(v) for v in space}
    return all((x <= y) == (images[x] <= images[y]) for x in space for y in space)


def oracle_lex(text):
    """Character-by-character tokenizer of the document format: the
    reference for ``textio._lex``.  A comment does not advance the column,
    so the ``eof`` token after a final comment with no newline sits at the
    column of its ``#``."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text[i:i + 2] in ("<-", "->"):
            tokens.append(Token("sym", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if c in "{}[]()<>,:;.=*/":
            tokens.append(Token("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise DslLexError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _oracle_candidates(lat, r, b):
    """Per-atom search space of the difference oracle: every pair on a
    finite lattice; on the unit chain, every pair over the chain bounds,
    the components of ``r`` and ``b`` and their complements."""
    if lat.is_finite:
        return pair_space(lat)
    keys = {lat.bot.key, lat.top.key, r.pos.key, r.neg.key, b.pos.key, b.neg.key}
    keys |= {1 - k for k in keys}
    return _pairs(lat, [lat.element(k) for k in sorted(keys)])


def oracle_transformable(B, R):
    """Whether some change valuation turns B into R, by trying every
    candidate pair at every atom."""
    if R.lattice is not B.lattice:
        raise LatticeMismatchError("valuations over different lattices")
    return all(
        any(((B[a] & -c) | c) == R[a] for c in _oracle_candidates(B.lattice, R[a], B[a]))
        for a in B.atoms)


def oracle_diff(R, B):
    """Least change valuation turning B into R, or all-top when none does:
    per atom, the meet of every solution in the full candidate space."""
    if R.lattice is not B.lattice:
        raise LatticeMismatchError("valuations over different lattices")
    if R.atoms != B.atoms:
        raise ValueError("valuations over different universes")
    lat = B.lattice
    out = {}
    for a in B.atoms:
        sols = [c for c in _oracle_candidates(lat, R[a], B[a]) if ((B[a] & -c) | c) == R[a]]
        if not sols:
            return PairValuation.top(lat, B.atoms)
        m = PairValue(lat.big_meet(s.pos for s in sols), lat.big_meet(s.neg for s in sols))
        if ((B[a] & -m) | m) != R[a]:
            if lat.is_finite:
                raise LatticeError("least difference not attained; "
                                   "lattice may be non-distributive")
            raise UnsupportedOperationError(
                f"difference at atom {a!r} falls outside the supported chain fragment")
        out[a] = m
    return PairValuation(lat, out)
