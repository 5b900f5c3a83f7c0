"""Marek and Truszczyński's justified revisions on plain sets: the reference
that the two-valued embedding of annotated revision programs is compared
against.  It shares no code with the engine; from ``annrev`` it reads only
the fields of the rule objects (``head``, ``body``, and each revision
atom's ``polarity`` and ``atom``)."""


def _holds(lit, db):
    """Whether the set ``db`` satisfies the revision atom ``in(a)`` or
    ``out(a)``."""
    return (lit.atom in db) == (lit.polarity == "in")


def necessary_change(rules):
    """Least model of a reduct, whose rules are ``(head, body)`` over revision
    atoms read as plain propositions: the pair ``(ins, outs)`` of atoms it
    derives in and out."""
    derived = set()
    grew = True
    while grew:
        grew = False
        for head, body in rules:
            if head not in derived and all(b in derived for b in body):
                derived.add(head)
                grew = True
    return ({l.atom for l in derived if l.polarity == "in"},
            {l.atom for l in derived if l.polarity == "out"})


def justified_revisions(rules, db, universe):
    """Every ``P``-justified revision of the database ``db``: each ``R``
    included in ``universe`` whose reduct ``P_R|I`` has a coherent
    necessary change ``(I_P, O_P)`` with ``R = (I - O_P) | I_P``.  The
    reduct keeps the rules whose bodies ``R`` satisfies and deletes from
    them the body atoms that ``I`` satisfies."""
    atoms = sorted(set(universe))
    db = frozenset(db)
    found = set()
    for bits in range(1 << len(atoms)):
        r = frozenset(a for k, a in enumerate(atoms) if bits >> k & 1)
        reduct = [(rule.head, [b for b in rule.body if not _holds(b, db)])
                  for rule in rules if all(_holds(b, r) for b in rule.body)]
        ins, outs = necessary_change(reduct)
        if not ins & outs and (db - outs) | ins == r:
            found.add(r)
    return found
