"""Reference answers for every CLI operation the benchmark issues.

Written from the paper's definitions on the plain values of ``model``; it
never imports annrev.  Pairs are ordered componentwise, conflation is
``-(x, y) = (~y, ~x)``, a change C revises B to ``(B & -C) | C``, the
necessary change is the least fixpoint of the one-step operator iterated
from bottom, and a candidate is a justified revision when revising the
initial valuation by the necessary change of its reduct gives it back.

Every function returns ``(exit_code, stdout_json_or_text, stderr_warning)``
in the shape the CLI prints with ``--format json``.
"""

from __future__ import annotations

from itertools import product

from .model import (
    Doc,
    canonical_valuation_text,
    document_text,
    valuation_json,
)

MPT = "mpt"
FITTING = "fitting"


class Pairs:
    """Pair-lattice operations over one model lattice."""

    def __init__(self, lat):
        self.lat = lat
        self.bot = (lat.bot, lat.bot)
        self.top = (lat.top, lat.top)

    def leq(self, x, y):
        leq = self.lat.leq
        return leq[x[0]][y[0]] and leq[x[1]][y[1]]

    def join(self, x, y):
        j = self.lat.join
        return (j[x[0]][y[0]], j[x[1]][y[1]])

    def meet(self, x, y):
        m = self.lat.meet
        return (m[x[0]][y[0]], m[x[1]][y[1]])

    def conf(self, x):
        c = self.lat.comp
        return (c[x[1]], c[x[0]])

    def revise(self, b, c):
        return self.join(self.meet(b, self.conf(c)), c)

    def pcomp(self, a, b):
        return (self.lat.pcomp(a[0], b[0]), self.lat.pcomp(a[1], b[1]))

    def space(self):
        order = self.lat.order
        return [(p, n) for p in order for n in order]


def compile_rules(doc: Doc):
    """Rules as ``(head_atom, head_pair, ((atom, pair), ...))``; a revision
    atom annotates one side of the pair and leaves the other at bottom."""
    bot = doc.lat.bot
    if doc.syntax == "new":
        return [(h[0], h[1], tuple(body)) for h, body in doc.rules]

    def as_pair(x):
        pol, atom, e = x
        return atom, ((e, bot) if pol == "in" else (bot, e))

    out = []
    for head, body in doc.rules:
        ha, hp = as_pair(head)
        out.append((ha, hp, tuple(as_pair(b) for b in body)))
    return out


def least_fixpoint(P, universe, rules):
    """Least fixpoint from bottom and the rule indices fired at each
    productive step.  Bodies only get easier to satisfy as the iterates
    grow, so each step tests only the rules not fired yet."""
    vals = {a: P.bot for a in universe}
    fired = []
    pending = list(range(len(rules)))
    trace = []
    while True:
        new = [i for i in pending if all(P.leq(pv, vals[a]) for a, pv in rules[i][2])]
        nxt = dict(vals)
        for i in new:
            ha, hp, _ = rules[i]
            nxt[ha] = P.join(nxt[ha], hp)
        if nxt == vals:
            return vals, trace
        fired = sorted(fired + new)
        done = set(new)
        pending = [i for i in pending if i not in done]
        trace.append(tuple(fired))
        vals = nxt


def reduct(P, rules, init, cand, semantics):
    """Rules whose body the candidate satisfies, with bodies weakened by
    pcomp against init (mpt) or stripped of atoms init satisfies
    (fitting); each paired with its source index."""
    out = []
    for i, (ha, hp, body) in enumerate(rules):
        if not all(P.leq(pv, cand[a]) for a, pv in body):
            continue
        if semantics == MPT:
            body = tuple((a, P.pcomp(init[a], pv)) for a, pv in body)
        else:
            body = tuple((a, pv) for a, pv in body if not P.leq(pv, init[a]))
        out.append((i, (ha, hp, body)))
    return out


def verify_outcome(doc, P, rules, init, cand, semantics):
    red = reduct(P, rules, init, cand, semantics)
    change, trace = least_fixpoint(P, doc.universe, [r for _, r in red])
    verified = all(P.revise(init[a], change[a]) == cand[a] for a in doc.universe)
    return {
        "valuation": valuation_json(doc.lat, cand),
        "necessary_change": valuation_json(doc.lat, change),
        "semantics": semantics,
        "verified": verified,
        "trace": [[red[i][0] for i in step] for step in trace],
    }


def answer_verify(doc):
    P, rules = Pairs(doc.lat), compile_rules(doc)
    outs = [verify_outcome(doc, P, rules, doc.init, doc.cand, s) for s in (MPT, FITTING)]
    payload = {o["semantics"]: o for o in outs}
    payload["agreement"] = outs[0]["verified"] == outs[1]["verified"]
    return (0 if all(o["verified"] for o in outs) else 1), payload, False


def revisions(doc, semantics):
    """All justified revisions.  Each one equals ``(B_I & -C) | C`` where
    C[a] is a join of the rule heads on a, so the search runs over those
    changes instead of over every candidate valuation."""
    P, rules = Pairs(doc.lat), compile_rules(doc)
    joins = {a: {P.bot} for a in doc.universe}
    for ha, hp, _ in rules:
        joins[ha] |= {P.join(j, hp) for j in joins[ha]}
    atoms = doc.universe
    cands = {}
    for change in product(*(sorted(joins[a]) for a in atoms)):
        cand = {a: P.revise(doc.init[a], c) for a, c in zip(atoms, change)}
        cands[canonical_valuation_text(doc.lat, cand)] = cand
    found = []
    for key in sorted(cands):
        o = verify_outcome(doc, P, rules, doc.init, cands[key], semantics)
        if o["verified"]:
            found.append({k: o[k] for k in ("valuation", "necessary_change", "trace")})
    return found


def answer_revise(doc, semantics="both"):
    """``revise --semantics <semantics>``: one report, or under ``both``
    one report per semantics, each with its own stats."""
    stats = {"atoms": len(doc.universe), "rules": len(doc.rules)}
    out = {}
    for s in ((MPT, FITTING) if semantics == "both" else (semantics,)):
        found = revisions(doc, s)
        out[s] = {"semantics": s, "revisions": found,
                  "stats": dict(stats, revisions=len(found))}
    if semantics != "both":
        return 0, out[semantics], False
    agree = ([r["valuation"] for r in out[MPT]["revisions"]]
             == [r["valuation"] for r in out[FITTING]["revisions"]])
    return 0, {"semantics": "both", **out, "agreement": agree}, False


def one_step(P, doc, rules, v):
    out = {a: P.bot for a in doc.universe}
    for ha, hp, body in rules:
        if all(P.leq(pv, v[a]) for a, pv in body):
            out[ha] = P.join(out[ha], hp)
    return out


def answer_nc(doc):
    P = Pairs(doc.lat)
    change, _ = least_fixpoint(P, doc.universe, compile_rules(doc))
    return 0, {"necessary_change": valuation_json(doc.lat, change)}, False


def answer_check(doc):
    P = Pairs(doc.lat)
    name, v = ("candidate", doc.cand) if doc.cand is not None else ("init", doc.init)
    t = one_step(P, doc, compile_rules(doc), v)
    model = all(P.leq(t[a], v[a]) for a in doc.universe)
    smodel = model and all(P.leq(v[a], P.join(t[a], P.conf(t[a]))) for a in doc.universe)
    return (0 if model else 1), {"target": name, "model": model, "smodel": smodel}, False


def answer_diff(doc):
    """Pointwise least change turning init into the candidate; the all-top
    valuation when some atom has no change at all."""
    P = Pairs(doc.lat)
    space = P.space()
    out = {}
    for a in doc.universe:
        b, r = doc.init[a], doc.cand[a]
        sols = [c for c in space if P.revise(b, c) == r]
        if not sols:
            top = {x: P.top for x in doc.universe}
            return 1, {"transformable": False, "diff": valuation_json(doc.lat, top)}, False
        least = P.top
        for c in sols:
            least = P.meet(least, c)
        if P.revise(b, least) != r:
            raise ValueError(f"no least change at atom {a}")
        out[a] = least
    return 0, {"transformable": True, "diff": valuation_json(doc.lat, out)}, False


def axiom_failures(lat):
    """Count violations of the bounded distributive De Morgan lattice laws
    by exhaustive scan of the model's tables."""
    ids = range(lat.n)
    leq, j, m, c = lat.leq, lat.join, lat.meet, lat.comp
    bad = 0
    for x in ids:
        bad += c[c[x]] != x
        for y in ids:
            bad += leq[x][y] and not leq[c[y]][c[x]]
            bad += c[j[x][y]] != m[c[x]][c[y]]
            bad += c[m[x][y]] != j[c[x]][c[y]]
            for z in ids:
                bad += m[x][j[y][z]] != j[m[x][y]][m[x][z]]
    return bad


def answer_validate(doc):
    if axiom_failures(doc.lat):
        raise ValueError(f"generated {doc.lat.kind} lattice breaks the lattice laws")
    return 0, {"ok": True, "failures": [], "atoms": len(doc.universe),
               "rules": len(doc.rules)}, False


def tr1(doc):
    bot = doc.lat.bot

    def conv(x):
        pol, atom, e = x
        return atom, ((e, bot) if pol == "in" else (bot, e))

    return [(conv(h), tuple(conv(b) for b in body)) for h, body in doc.rules]


def tr2(doc):
    out = []
    for (ha, (hp, hn)), body in doc.rules:
        nb = tuple(x for a, (p, n) in body for x in (("in", a, p), ("out", a, n)))
        out += [(("in", ha, hp), nb), (("out", ha, hn), nb)]
    return out


def answer_translate(doc):
    to = "new" if doc.syntax == "old" else "old"
    rules = tr1(doc) if to == "new" else tr2(doc)
    out = Doc(doc.lat, to, doc.universe, tuple(rules), doc.init, doc.cand)
    return 0, document_text(out), False


def shift_maps(lat, spec):
    """Pair maps of an iso spec ``{atom or '*': (element_perm, swap)}``;
    ``element_perm`` maps ids, None meaning identity."""
    def make(perm, swap):
        def f(x):
            p, n = (x[1], x[0]) if swap else x
            return (perm[p], perm[n]) if perm else (p, n)
        return f
    return {k: make(*v) for k, v in spec.items()}


def answer_shift(doc, spec):
    P = Pairs(doc.lat)
    maps = shift_maps(doc.lat, spec)

    def f(a):
        return maps.get(a, maps["*"])

    rules = tr1(doc) if doc.syntax == "old" else list(doc.rules)
    shifted = [((h[0], f(h[0])(h[1])), tuple((a, f(a)(pv)) for a, pv in body))
               for h, body in rules]

    def shift_val(v):
        return None if v is None else {a: f(a)(v[a]) for a in v}

    out = Doc(doc.lat, "new", doc.universe, tuple(shifted), shift_val(doc.init),
              shift_val(doc.cand))
    preserves = all(g(P.conf(v)) == P.conf(g(v)) for g in maps.values() for v in P.space())
    return 0, document_text(out), not preserves


def label_perm(lat, sigma):
    """Element permutation of a powerset induced by a label map."""
    idx = {l: i for i, l in enumerate(lat.labels)}
    perm = []
    for s in range(lat.n):
        t = 0
        for i, l in enumerate(lat.labels):
            if s >> i & 1:
                t |= 1 << idx[sigma.get(l, l)]
        perm.append(t)
    return perm


ANSWERS = {
    "revise": answer_revise,
    "verify": answer_verify,
    "nc": answer_nc,
    "check": answer_check,
    "diff": answer_diff,
    "validate": answer_validate,
    "translate": answer_translate,
}


def answer(op):
    if op.command == "shift":
        return answer_shift(op.doc, op.iso_spec)
    if op.command == "revise":
        return answer_revise(op.doc, op.args[op.args.index("--semantics") + 1])
    return ANSWERS[op.command](op.doc)
