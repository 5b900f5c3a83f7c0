"""Text format for lattices, programs, valuations, and isomorphism specs.

A document is a sequence of blocks:

    lattice powerset { Ann, Bob, Pete }
    syntax old
    universe { accept }
    program {
      in(accept):{Ann} <- in(accept):{Bob}.
    }
    init {
      accept = <{Pete}, {Bob}>.
    }

Comments run from ``#`` to end of line.  Facts are written with an explicit
arrow: ``in(b):{q} <- .``  Unit-chain annotations are exact rationals;
decimal literals convert exactly on input and serialize as fractions.  The
serializer emits a canonical form: atoms sorted, elements in their handle's
element order, rules in source order.

One ``findall`` of a compiled regular expression splits the text into plain
token strings, with no positions; a recursive-descent parser reads them,
with one loop for every ``{ item, ... }`` list and one for every
``< x, y >`` pair.  A token's kind is read off its first character.  Only
when an error is raised does ``_where`` scan the text again for the line
and column of the token it names, so valid input never pays for positions.
Each parser keeps a memo from the tokens of a ``< x, y >`` pair, of a
``{ ... }`` set literal or of a numeral (``n`` or ``n / d``) to the value
they gave, so a pair or annotation text that repeats across a document is
read once; only a read that returned normally and consumed exactly those
tokens is kept, so errors are raised as without it.

A program block builds no rule objects.  One reader serves the literals
of every lattice kind and both syntaxes; it compares the tokens before an
annotation in place and re-reads them through the checking reads only to
raise an error.  Each rule is kept as a list of literals ``(atom,
annotation, polarity)``, and ``Program._parsed`` takes the lists without
checking them again: on a finite lattice it keeps them as pair codes and
builds the rule objects on the first read of ``rules``.

``_json_text`` writes every JSON report, byte for byte what
``json.dumps(obj, indent=2)`` writes, with one ``join`` per list of plain
strings where the standard encoder yields one string per token.  A
report's ``trace`` is written from the outcome's per-step deltas, and a
valuation with one text per distinct pair.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .isomorphism import PairIso, PairMap
from .lattice import (
    CustomLattice,
    InvalidLatticeError,
    Lattice,
    LatticeError,
    LevelChain,
    PairValue,
    PowersetLattice,
    TwoLattice,
    UnitChain,
)
from .syntax import IN, NEW, OLD, OUT, Program
from .valuation import PairValuation


class DslError(Exception):
    """Problem with an input document; carries the source position."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            super().__init__(f"line {line}, col {col}: {message}")
        else:
            super().__init__(message)


class DslLexError(DslError):
    pass


class DslSyntaxError(DslError):
    pass


class DslSemanticError(DslError):
    pass


# Blanks and comments match with the group empty, which ``_lex`` drops;
# the group's alternatives are a word, a number, an arrow and any other
# single character, tried in order.  ``[^\W\d]`` also admits the numeric
# characters that are not decimal digits (such as ``²``) as the first
# character of a word, because ``\w`` does; ``_lex`` rejects those, so
# identifiers start with a letter or ``_``.  ``\d`` is exactly the decimal
# digits that ``int``, ``Fraction`` and ``str.isdecimal`` accept.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|([^\W\d]\w*|\d+(?:\.\d+)?|<-|->|.)", re.DOTALL)
_SYMBOLS = frozenset(["<-", "->", *"{}[]()<>,:;.=*/"])


def _is_ident(tok):
    return tok[:1].isalpha() or tok[:1] == "_"


def _lex(text):
    """The token texts of ``text``, ending in the eof sentinel ``""``.  A
    character that starts no token raises ``DslLexError`` at its line and
    column; when there are several, the first in the text."""
    tokens = list(filter(None, _TOKEN.findall(text)))
    bad = {t for t in set(tokens)
           if t not in _SYMBOLS and not t[0].isdecimal() and not _is_ident(t)}
    if bad:
        k = next(k for k, t in enumerate(tokens) if t in bad)
        raise DslLexError(f"unexpected character {tokens[k][0]!r}", *_where(text, k))
    tokens.append("")
    return tokens


def _where(text, k):
    """Line and column of token ``k`` of ``text``, or of the end of the
    text when ``k`` is the index of the eof sentinel.  Positions are only
    needed for error messages, so they are found by a second scan."""
    pos = len(text)
    for m in _TOKEN.finditer(text):
        if m.lastindex:
            if not k:
                pos = m.start()
                break
            k -= 1
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Parser:
    """Cursor over the token texts of one input.  A token that an error
    may point at later is remembered by its index ``i``."""

    def __init__(self, text):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        # Token slice of a pair, a set literal or a numeral -> its value.
        self.memo = {}

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        if t:
            self.i += 1
        return t

    def at_sym(self, s):
        return self.toks[self.i] == s

    def at_ident(self, *names):
        t = self.toks[self.i]
        return t in names if names else _is_ident(t)

    def expect_sym(self, s):
        t = self.toks[self.i]
        if t != s:
            self.syntax_error(f"expected {s!r}, found {t or 'end of input'!r}")
        self.i += 1
        return t

    def expect_ident(self, what="a name"):
        t = self.toks[self.i]
        if not _is_ident(t):
            self.syntax_error(f"expected {what}, found {t or 'end of input'!r}")
        self.i += 1
        return t

    def through(self, close):
        """The index just past the next ``close`` token, or None."""
        try:
            return self.toks.index(close, self.i) + 1
        except ValueError:
            return None

    def memoized(self, j, read, lattice):
        """``read(self, lattice)`` from the cursor, or its earlier result
        when the tokens before index ``j`` were read before (no memo when
        ``j`` is None).  A result is kept only when ``read`` consumed
        exactly those tokens, so a hit is what reading again would return,
        and every error is raised by the read that meets it, at its own
        place."""
        i = self.i
        if j is None:
            return read(self, lattice)
        key = tuple(self.toks[i:j])
        value = self.memo.get(key)
        if value is not None:
            self.i = j
            return value
        value = read(self, lattice)
        if self.i == j:
            self.memo[key] = value
        return value

    def syntax_error(self, msg, k=None):
        raise DslSyntaxError(msg, *_where(self.text, self.i if k is None else k))

    def sem_error(self, msg, k=None):
        raise DslSemanticError(msg, *_where(self.text, self.i if k is None else k))


@dataclass
class Document:
    """One parsed input file: a lattice, a program over a declared universe,
    and optional initial/candidate valuations and isomorphism spec."""

    lattice: Lattice
    syntax: str
    universe: tuple
    program: Program
    init: PairValuation | None = None
    candidate: PairValuation | None = None
    iso: PairIso | None = None


def _braced(p, item):
    """``{ item (, item)* ,? }``: the list of what ``item()`` returns, one
    call per entry.  Each ``item`` raises its own errors, duplicates
    included."""
    p.expect_sym("{")
    out = []
    while not p.at_sym("}"):
        out.append(item())
        if not p.at_sym(","):
            break
        p.advance()
    p.expect_sym("}")
    return out


def _parse_label_list(p):
    """Brace-enclosed comma-separated identifiers, order preserved."""
    seen = set()

    def label():
        k = p.i
        t = p.expect_ident()
        if t in seen:
            p.sem_error(f"duplicate name {t!r}", k)
        seen.add(t)
        return t
    return tuple(_braced(p, label))


def _parse_set_literal(p):
    return frozenset(_braced(p, lambda: p.expect_ident("a label")))


def _parse_set_table(p):
    table = {}

    def entry():
        at = p.i
        k = _parse_set_literal(p)
        p.expect_sym(":")
        v = _parse_set_literal(p)
        if k in table:
            p.sem_error("duplicate complement entry", at)
        table[k] = v
    _braced(p, entry)
    return table


def _parse_lattice(p, decl_at):
    """The lattice after the ``lattice`` keyword at token ``decl_at``.  An
    axiom failure is reported there; any other construction error at the
    kind token."""
    at = p.i
    t = p.expect_ident("a lattice kind")
    if t == "two":
        return TwoLattice()
    if t == "powerset":
        labels = _parse_label_list(p)
        table = None
        if p.at_ident("complement"):
            p.advance()
            table = _parse_set_table(p)
        make, args = PowersetLattice, (labels, table)
    elif t == "chain":
        if p.at_ident("unit"):
            p.advance()
            return UnitChain()
        p.expect_sym("[")
        names = [p.expect_ident("a level name")]
        while p.at_sym("<"):
            p.advance()
            names.append(p.expect_ident("a level name"))
        p.expect_sym("]")
        make, args = LevelChain, (names,)
    elif t == "custom":
        p.expect_sym("{")
        if p.expect_ident("'elements'") != "elements":
            p.sem_error("custom lattice starts with an elements block", p.i - 1)
        names = _parse_label_list(p)
        if p.expect_ident("'order'") != "order":
            p.sem_error("expected an order block", p.i - 1)

        def cover():
            a = p.expect_ident("an element name")
            p.expect_sym("<")
            return a, p.expect_ident("an element name")
        pairs = _braced(p, cover)
        if p.expect_ident("'complement'") != "complement":
            p.sem_error("expected a complement block", p.i - 1)
        comp = {}

        def comp_entry():
            k = p.i
            a = p.expect_ident("an element name")
            p.expect_sym(":")
            b = p.expect_ident("an element name")
            if a in comp:
                p.sem_error(f"duplicate complement entry for {a!r}", k)
            comp[a] = b
        _braced(p, comp_entry)
        p.expect_sym("}")
        make, args = CustomLattice, (names, pairs, comp)
    else:
        p.syntax_error(f"unknown lattice kind {t!r}", at)
    try:
        return make(*args)
    except InvalidLatticeError as e:
        p.sem_error(f"invalid lattice: {e}", decl_at)
    except LatticeError as e:
        p.sem_error(str(e), at)


def _read_set_element(p, lattice):
    at = p.i
    members = _parse_set_literal(p)
    try:
        return lattice.element(members)
    except LatticeError as e:
        p.sem_error(str(e), at)


def _number(p, k, read):
    """``read`` (``int`` or ``Fraction``) of token ``k``, a decimal numeral.
    A numeral that ``int`` cannot read, or whose value's numerator or
    denominator it cannot print, for having more digits than
    ``sys.get_int_max_str_digits()``, is a located error."""
    t = p.toks[k]
    # Interpreters before 3.10.7 have no digit limit.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(t) > limit:
        try:
            value = read(t)
        except ValueError:
            value = None
        if value is None or max(value.numerator, value.denominator) >= 10 ** limit:
            p.sem_error(f"number too long: more than {limit} digits", k)
        return value
    return read(t)


def _read_number(p, lattice):
    at = p.i
    t = p.advance()
    if "." in t:
        value = _number(p, at, Fraction)
    else:
        value = _number(p, at, int)
        if p.at_sym("/"):
            p.advance()
            d = p.peek()
            if not d[:1].isdecimal() or "." in d:
                p.syntax_error("expected an integer denominator")
            den = _number(p, p.i, int)
            if den == 0:
                p.sem_error("zero denominator")
            p.advance()
            value = Fraction(value, den)
    try:
        return lattice.element(value)
    except LatticeError as e:
        p.sem_error(str(e), at)


def _parse_element(p, lattice):
    at = p.i
    t = p.peek()
    if t == "{":
        if lattice.kind != "powerset":
            p.sem_error("set annotations need a powerset lattice")
        return p.memoized(p.through("}"), _read_set_element, lattice)
    if t[:1].isdecimal():
        if lattice.kind != "unit":
            p.sem_error("numeric annotations need the unit chain lattice")
        # The tokens ``t`` or ``t / d``; the eof sentinel ``""`` follows
        # ``t``, so ``at + 1`` is a token.
        return p.memoized(at + (3 if p.toks[at + 1] == "/" else 1), _read_number, lattice)
    if _is_ident(t):
        if lattice.kind == "powerset":
            p.sem_error("expected a label set in braces")
        if lattice.kind == "unit":
            p.sem_error("expected a rational between 0 and 1")
        p.advance()
        try:
            return lattice.element(t)
        except LatticeError as e:
            p.sem_error(str(e), at)
    p.syntax_error(f"expected an annotation, found {t or 'end of input'!r}")


def _expect_atom(p, uset):
    """An atom name that ``uset`` declares."""
    name = p.expect_ident("an atom name")
    if name not in uset:
        p.sem_error(f"undeclared atom {name!r}", p.i - 1)
    return name


def _parse_pair(p, lattice):
    """``< x , y >``: one evidence pair, read once per distinct text."""
    return p.memoized(p.through(">"), _read_pair, lattice)


def _read_pair(p, lattice):
    p.expect_sym("<")
    x = _parse_element(p, lattice)
    p.expect_sym(",")
    y = _parse_element(p, lattice)
    p.expect_sym(">")
    return PairValue(x, y)


def _read_literal(p, lattice, uset, old):
    """One head or body literal, on every lattice kind: ``(atom, ann,
    polarity)``.  ``in(a):x`` and ``out(a):x`` give the element ``x`` and
    their polarity, ``a:<x, y>`` the pair and None.  The tokens before the
    annotation are compared in place; each test reads one token past the
    last, so none reads beyond the eof sentinel."""
    toks, i = p.toks, p.i
    if old:
        if not (toks[i] in (IN, OUT) and toks[i + 1] == "(" and toks[i + 2] in uset
                and toks[i + 3] == ")" and toks[i + 4] == ":"):
            _literal_error(p, uset, old)
        p.i = i + 5
        return toks[i + 2], _parse_element(p, lattice), toks[i]
    if not (toks[i] in uset and toks[i + 1] == ":"):
        _literal_error(p, uset, old)
    p.i = i + 2
    return toks[i], _parse_pair(p, lattice), None


def _literal_error(p, uset, old):
    """Raise the located error of a literal whose tokens before the
    annotation (``in ( a ) :`` or ``a :``) are not all as expected: the
    first read that meets a wrong token raises."""
    if old:
        t = p.expect_ident("'in' or 'out'")
        if t not in (IN, OUT):
            p.syntax_error(f"expected 'in' or 'out', found {t!r}", p.i - 1)
        p.expect_sym("(")
        _expect_atom(p, uset)
        p.expect_sym(")")
    else:
        _expect_atom(p, uset)
    p.expect_sym(":")


def _parse_program(p, lattice, syntax, universe):
    """The program block, each rule a list of its literals, head first,
    which ``Program._parsed`` takes without checking them again."""
    p.expect_sym("{")
    uset = set(universe)
    old = syntax == OLD
    toks, rules = p.toks, []
    while toks[p.i] != "}":
        lits = [_read_literal(p, lattice, uset, old)]
        p.expect_sym("<-")
        while toks[p.i] != ".":
            lits.append(_read_literal(p, lattice, uset, old))
            if toks[p.i] == ",":
                p.i += 1
            elif toks[p.i] != ".":
                break
        p.expect_sym(".")
        rules.append(lits)
    p.expect_sym("}")
    return Program._parsed(syntax, lattice, universe, rules)


def _parse_valuation(p, lattice, universe):
    p.expect_sym("{")
    uset = set(universe)
    entries = {}
    while not p.at_sym("}"):
        name = _expect_atom(p, uset)
        if name in entries:
            p.sem_error(f"duplicate entry for atom {name!r}", p.i - 1)
        p.expect_sym("=")
        entries[name] = _parse_pair(p, lattice)
        p.expect_sym(".")
    p.expect_sym("}")
    return PairValuation.build(lattice, universe, entries)


def _perm_map(p, lattice, pairs, at):
    """Pair map from a name permutation: powerset lattices permute labels,
    other finite kinds permute elements; unlisted names stay fixed.  Errors
    point at token ``at``."""
    if isinstance(lattice, PowersetLattice):
        known = set(lattice.labels)
        for a, b in pairs.items():
            if a not in known or b not in known:
                p.sem_error(f"perm mentions unknown label {(a if a not in known else b)!r}", at)
        sigma = {l: pairs.get(l, l) for l in lattice.labels}
        if set(sigma.values()) != known:
            p.sem_error("perm is not a permutation of the labels", at)
        perm = {
            e: lattice.element(frozenset(sigma[l] for l in e.key))
            for e in lattice.elements()}
    elif lattice.is_finite:
        names = {lattice.format_element(e): e for e in lattice.elements()}
        for a, b in pairs.items():
            if a not in names or b not in names:
                p.sem_error(f"perm mentions unknown element {(a if a not in names else b)!r}", at)
        sigma = {n: pairs.get(n, n) for n in names}
        if set(sigma.values()) != set(names):
            p.sem_error("perm is not a permutation of the elements", at)
        perm = {e: names[sigma[n]] for n, e in names.items()}
    else:
        p.sem_error("perm is not supported on the unit chain", at)
    try:
        return PairMap.from_permutation(lattice, perm)
    except LatticeError as e:
        p.sem_error(str(e), at)


def _parse_iso_prim(p, lattice):
    at = p.i
    t = p.advance()
    if t == "id":
        return PairMap.identity(lattice)
    if t == "swap":
        return PairMap.swap(lattice)
    p.expect_sym("(")
    pairs = {}
    while True:
        k = p.i
        a = p.expect_ident("a name")
        p.expect_sym("->")
        b = p.expect_ident("a name")
        if a in pairs:
            p.sem_error(f"duplicate perm entry for {a!r}", k)
        pairs[a] = b
        if p.at_sym(","):
            p.advance()
            continue
        break
    p.expect_sym(")")
    return _perm_map(p, lattice, pairs, at)


def _parse_iso_expr(p, lattice):
    m = None
    while p.at_ident("id", "swap", "perm"):
        prim = _parse_iso_prim(p, lattice)
        m = prim if m is None else m.then(prim)
    if m is None:
        p.syntax_error("expected an isomorphism: id, swap, or perm(...)")
    return m


def _parse_iso_block(p, lattice, universe, iso_at):
    """The body of an ``iso`` block.  Without a ``*`` default every universe
    atom needs its own entry; errors about coverage point at token
    ``iso_at``.  A default that no atom falls back on is dropped."""
    p.expect_sym("{")
    uset = set(universe)
    maps = {}
    default = None
    while not p.at_sym("}"):
        at = p.i
        if p.at_sym("*"):
            p.advance()
            key = None
        else:
            key = p.expect_ident("an atom name or '*'")
            if key not in uset:
                p.sem_error(f"undeclared atom {key!r}", at)
            if key in maps:
                p.sem_error(f"duplicate iso entry for atom {key!r}", at)
        p.expect_sym(":")
        m = _parse_iso_expr(p, lattice)
        if key is None:
            if default is not None:
                p.sem_error("duplicate default iso entry", at)
            default = m
        else:
            maps[key] = m
        if p.at_sym(";"):
            p.advance()
    p.expect_sym("}")
    uncovered = [a for a in universe if a not in maps]
    if default is None and uncovered:
        p.sem_error(f"iso has no entry for atom {uncovered[0]!r} and no '*' default", iso_at)
    return PairIso(lattice, maps, default if uncovered else None)


def parse(text: str) -> Document:
    """Parse and fully validate one document.

    Validation covers the lattice axioms, universe coverage of every
    mentioned atom, and membership of every annotation in the declared
    lattice.  Errors carry the line and column of the offending token.
    """
    p = _Parser(text)
    lattice = None
    syntax = None
    universe = None
    program = None
    init = None
    candidate = None
    iso = None
    while p.peek():
        at = p.i
        name = p.peek()
        if not _is_ident(name):
            p.syntax_error(f"expected a declaration, found {name!r}")
        if name == "lattice":
            if lattice is not None:
                p.sem_error("duplicate lattice declaration")
            p.advance()
            lattice = _parse_lattice(p, at)
        elif name == "syntax":
            if syntax is not None:
                p.sem_error("duplicate syntax declaration")
            if program is not None:
                p.sem_error("syntax declaration must precede the program")
            p.advance()
            s = p.expect_ident("'old' or 'new'")
            if s not in (OLD, NEW):
                p.sem_error(f"syntax must be 'old' or 'new', got {s!r}", p.i - 1)
            syntax = s
        elif name == "universe":
            if universe is not None:
                p.sem_error("duplicate universe declaration")
            p.advance()
            universe = _parse_label_list(p)
        elif name == "program":
            if program is not None:
                p.sem_error("duplicate program block")
            if lattice is None or universe is None:
                p.sem_error("program needs lattice and universe declarations first")
            p.advance()
            program = _parse_program(p, lattice, syntax or OLD, universe)
        elif name in ("init", "candidate"):
            if lattice is None or universe is None:
                p.sem_error(f"{name} needs lattice and universe declarations first")
            if (init if name == "init" else candidate) is not None:
                p.sem_error(f"duplicate {name} block")
            p.advance()
            v = _parse_valuation(p, lattice, universe)
            if name == "init":
                init = v
            else:
                candidate = v
        elif name == "iso":
            if iso is not None:
                p.sem_error("duplicate iso block")
            if lattice is None or universe is None:
                p.sem_error("iso needs lattice and universe declarations first")
            p.advance()
            iso = _parse_iso_block(p, lattice, universe, at)
        else:
            p.syntax_error(f"unknown block {name!r}")
    if lattice is None:
        raise DslSemanticError("missing lattice declaration")
    if universe is None:
        raise DslSemanticError("missing universe declaration")
    if program is None:
        raise DslSemanticError("missing program block")
    return Document(lattice, syntax or OLD, tuple(sorted(universe)), program,
                    init, candidate, iso)


def parse_iso(text: str, lattice, universe) -> PairIso:
    """Parse a standalone isomorphism spec against an existing document's
    lattice and universe."""
    p = _Parser(text)
    t = p.expect_ident("'iso'")
    if t != "iso":
        p.syntax_error(f"expected an iso block, found {t!r}", 0)
    iso = _parse_iso_block(p, lattice, universe, 0)
    if p.peek():
        p.syntax_error(f"unexpected trailing input {p.peek()!r}")
    return iso


def _lattice_decl_text(lat):
    if isinstance(lat, TwoLattice):
        return "lattice two"
    if isinstance(lat, PowersetLattice):
        head = "lattice powerset { " + ", ".join(lat.labels) + " }"
        if not lat.has_custom_complement:
            return head
        entries = ", ".join(
            f"{lat.format_element(e)}: {lat.format_element(~e)}" for e in lat.elements())
        return f"{head} complement {{ {entries} }}"
    if isinstance(lat, UnitChain):
        return "lattice chain unit"
    if isinstance(lat, CustomLattice):
        order = ", ".join(f"{a} < {b}" for a, b in lat.cover_pairs())
        comp = ", ".join(
            f"{lat.format_element(e)}: {lat.format_element(~e)}" for e in lat.elements())
        return ("lattice custom {\n"
                f"  elements {{ {', '.join(lat.names)} }}\n"
                f"  order {{ {order} }}\n"
                f"  complement {{ {comp} }}\n"
                "}")
    if isinstance(lat, LevelChain):
        return "lattice chain [" + " < ".join(lat.names) + "]"
    raise ValueError(f"cannot serialize lattice kind {lat.kind!r}")


def _valuation_block(name, v):
    lines = [f"{name} {{"]
    lines += [f"  {line}" for line in v.canonical_text().splitlines()]
    lines.append("}")
    return "\n".join(lines)


def _iso_expr_text(m: PairMap, lat):
    perm, swap = m.structure()
    parts = []
    if perm is not None:
        moved = []
        if isinstance(lat, PowersetLattice):
            for l in lat.labels:
                (target,) = perm[lat.element(frozenset([l]))].key
                if target != l:
                    moved.append((l, target))
        else:
            for e in lat.elements():
                img = perm[e]
                if img != e:
                    moved.append((lat.format_element(e), lat.format_element(img)))
        if moved:
            parts.append("perm(" + ", ".join(f"{a}->{b}" for a, b in moved) + ")")
    if swap:
        parts.append("swap")
    return " ".join(parts) if parts else "id"


def _iso_block_text(iso: PairIso):
    lines = ["iso {"]
    for a, m in sorted(iso.entries.items()):
        lines.append(f"  {a}: {_iso_expr_text(m, iso.lattice)};")
    if iso.default is not None:
        lines.append(f"  *: {_iso_expr_text(iso.default, iso.lattice)};")
    lines.append("}")
    return "\n".join(lines)


def serialize_document(doc: Document) -> str:
    parts = [_lattice_decl_text(doc.lattice),
             f"syntax {doc.syntax}",
             "universe { " + ", ".join(doc.universe) + " }",
             ""]
    body = "\n".join(f"  {r}" for r in doc.program.rules)
    parts.append("program {\n" + (body + "\n" if body else "") + "}")
    if doc.init is not None:
        parts.append("")
        parts.append(_valuation_block("init", doc.init))
    if doc.candidate is not None:
        parts.append("")
        parts.append(_valuation_block("candidate", doc.candidate))
    if doc.iso is not None:
        parts.append("")
        parts.append(_iso_block_text(doc.iso))
    return "\n".join(parts) + "\n"


class _Trace(list):
    """A report's ``trace``: the outcome's cumulative entries as lists,
    which ``json.dumps`` writes, kept with the per-step deltas ``steps``
    that ``_json_text`` writes them from."""

    def __init__(self, outcome):
        super().__init__(map(list, outcome.trace))
        self.steps = outcome.steps


def _trace_text(steps, indent):
    """``_json_text`` of the cumulative trace whose per-step deltas are
    ``steps``: each rule index becomes text once, and each entry is one
    join over the texts of the indices fired so far, kept in source order."""
    if not steps:
        return "[]"
    inner = indent + "  "
    comma, sep = ",\n" + inner, ",\n" + inner + "  "
    opening, closing = "[\n" + inner + "  ", "\n" + inner + "]"
    fired, texts, parts = [], [], []
    for step in steps:
        for i in step:
            k = bisect(fired, i)
            fired.insert(k, i)
            texts.insert(k, int.__repr__(i))
        parts += (comma, opening, sep.join(texts), closing) if texts else (comma, "[]")
    parts[0] = "[\n" + inner
    parts.append("\n" + indent + "]")
    return "".join(parts)


def _json_text(obj, indent="") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the str, bool, int,
    list, tuple and dict values that the JSON reports hold (dict keys are
    str); any other type raises ``TypeError``.  The standard encoder yields
    one Python string per token when it indents; this writer renders a list
    of plain strs with one join, a ``_Trace`` from its deltas, and each
    distinct value object of a dict once, so a valuation costs one text per
    distinct pair and one join."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, _Trace):
        return _trace_text(obj.steps, indent)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {str}:
            items = map(encode_basestring_ascii, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        sep, parts, texts = ",\n" + inner, [], {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            # ``obj`` holds every value, so no two of them share an id.
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = _json_text(v, inner)
            parts += (sep, encode_basestring_ascii(k), ": ", text)
        parts[0] = "{\n" + inner
        parts.append("\n" + indent + "}")
        return "".join(parts)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def valuation_to_json(v: PairValuation) -> dict:
    """Atom -> ``[pos, neg]`` as element texts.  Atoms whose pairs hold the
    same element objects share one list, so each distinct pair is
    formatted once here and rendered once by ``_json_text``."""
    out, texts = {}, {}
    for a, pv in v.items():
        key = id(pv.pos), id(pv.neg)
        if key not in texts:
            texts[key] = [repr(pv.pos), repr(pv.neg)]
        out[a] = texts[key]
    return out


def outcome_to_json(o) -> dict:
    return {
        "valuation": valuation_to_json(o.candidate),
        "necessary_change": valuation_to_json(o.necessary_change),
        "semantics": o.semantics,
        "verified": o.verified,
        "trace": _Trace(o),
    }


def revisions_to_json(semantics, outcomes, stats) -> dict:
    return {
        "semantics": semantics,
        "revisions": [
            {
                "valuation": valuation_to_json(o.candidate),
                "necessary_change": valuation_to_json(o.necessary_change),
                "trace": _Trace(o),
            }
            for o in outcomes],
        "stats": dict(stats),
    }


def document_to_json(doc: Document) -> dict:
    out = {
        "lattice": _lattice_decl_text(doc.lattice),
        "syntax": doc.syntax,
        "universe": list(doc.universe),
        "rules": [str(r) for r in doc.program.rules],
    }
    if doc.init is not None:
        out["init"] = valuation_to_json(doc.init)
    if doc.candidate is not None:
        out["candidate"] = valuation_to_json(doc.candidate)
    return out


def serialize(obj, fmt: str = "text") -> str:
    """Canonical text or JSON rendering of a document, a valuation, or a
    revision outcome."""
    if fmt not in ("text", "json"):
        raise ValueError(f"format must be 'text' or 'json', got {fmt!r}")
    if isinstance(obj, Document):
        if fmt == "text":
            return serialize_document(obj)
        return _json_text(document_to_json(obj)) + "\n"
    if isinstance(obj, PairValuation):
        if fmt == "text":
            return obj.canonical_text() + "\n"
        return _json_text(valuation_to_json(obj)) + "\n"
    if hasattr(obj, "candidate") and hasattr(obj, "necessary_change"):
        if fmt == "text":
            lines = [f"semantics: {obj.semantics}",
                     f"verified: {str(obj.verified).lower()}",
                     "candidate:"]
            lines += [f"  {l}" for l in obj.candidate.canonical_text().splitlines()]
            lines.append("necessary change:")
            lines += [f"  {l}" for l in obj.necessary_change.canonical_text().splitlines()]
            return "\n".join(lines) + "\n"
        return _json_text(outcome_to_json(obj)) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
