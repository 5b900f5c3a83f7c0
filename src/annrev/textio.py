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

The parser is a cursor over the text; no token list is built.  A
recursive-descent reader lexes one token at the cursor at a time, with one
loop for every ``{ item, ... }`` list and one for every ``< x, y >`` pair.
The bulk of a document is read a construct at a time instead: each rule
literal with the ``<-``, ``,`` or ``.`` after it, each valuation entry
``atom = <x, y>.``, and each label list or set literal is one match of a
compiled pattern, which allows blanks but no comment inside.  When a
pattern does not match at the cursor, or what it matched does not check
(an undeclared atom, a repeated name), the token-wise reads take over at
the same offset: they read what the patterns leave out, such as a comment
inside a pair, and raise the located error.  An error's line and column
are those of the cursor's offset.  Before any error is raised the whole
text is checked for a character that starts no token, and the first such
character is reported instead.

Each parser keeps a memo from the text of a ``< x, y >`` pair, of a ``{
... }`` set literal, of a numeral (``n`` or ``n / d``) or of an element
name to the value it gave, under the text as written and under the text
with blanks and comments removed: an annotation text that repeats across
a document is read once, token-wise at the offset where it first stands,
and copies that differ only in blanks and comments share one value.

A program block builds no rule objects.  Each rule is kept as a list of
literals ``(atom, annotation, polarity)``, and ``Program._parsed`` takes
the lists without checking them again, as the program's one rule form.
A valuation block goes to ``PairValuation._parsed`` the same way.  The
writers build no rule objects either: ``serialize_document`` and
``document_to_json`` write a program's rules from its literals with the
formatter that ``str`` of a rule object uses (``syntax._rule_texts``),
which formats each distinct annotation object once per call.

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
from .syntax import IN, NEW, OLD, OUT, Program, _rule_texts
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


# A token is a word, a number, an arrow or any other single character,
# tried in order.  ``[^\W\d]`` also admits the numeric characters that are
# not decimal digits (such as ``²``) as the first character of a word,
# because ``\w`` does; ``_check_characters`` rejects those, so identifiers
# start with a letter or ``_``.  ``\d`` is exactly the decimal digits that
# ``int``, ``Fraction`` and ``str.isdecimal`` accept.
_ID = r"[^\W\d]\w*"
_TOKEN_TEXT = rf"{_ID}|\d+(?:\.\d+)?|<-|->|."
# A comment runs to the end of its line: the lookahead keeps a match from
# taking a shorter comment and reading the rest of the line as tokens.
# Blanks and comments can be split into runs only one way, so a match that
# fails after them backtracks through them in linear time.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
# Blanks and comments match with the group empty.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|(" + _TOKEN_TEXT + ")", re.DOTALL)
# The token after any blanks and comments; the group is empty at the end.
_NEXT = re.compile(_SKIP + "(" + _TOKEN_TEXT + ")?", re.DOTALL)
_SYMBOLS = frozenset(["<-", "->", *"{}[]()<>,:;.=*/"])

# Constructs read in one match.  Inside them only blanks may stand between
# tokens, and each token must be one that the lexer would split off: a
# number is not followed by more digits or by ``.digits``.
_B = r"[ \t\r\n]*"
_NUM = rf"\d+(?:\.\d+(?!\d)|(?!\d|\.\d)(?:{_B}/{_B}\d+(?!\d|\.\d))?)"
# ``{ name, ... }``: a name is followed by a comma or by the closing brace.
_SET = rf"\{{{_B}(?:{_ID}{_B}(?:,{_B}|(?=\}})))*\}}"
_ELEM = rf"{_SET}|{_NUM}|{_ID}"
_PAIR = rf"(<{_B}({_ELEM}){_B},{_B}({_ELEM}){_B}>)"
# Groups: polarity, atom, annotation, the token after the literal.
_OLD_LITERAL = re.compile(
    rf"{_SKIP}(in|out){_B}\({_B}({_ID}){_B}\){_B}:{_B}({_ELEM}){_B}(<-|[,.])")
# Groups: atom, pair, its two elements, the token after the literal.
_NEW_LITERAL = re.compile(rf"{_SKIP}({_ID}){_B}:{_B}{_PAIR}{_B}(<-|[,.])")
# Groups: atom, pair, its two elements.
_ENTRY = re.compile(rf"{_SKIP}({_ID}){_B}={_B}{_PAIR}{_B}\.")
_NAMES = re.compile(rf"{_SKIP}({_SET})")


def _is_ident(tok):
    return tok[:1].isalpha() or tok[:1] == "_"


def _line_col(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _check_characters(text):
    """Raise ``DslLexError`` at the first character of ``text`` that starts
    no token, if there is one."""
    bad = {t for t in set(_TOKEN.findall(text))
           if t and t not in _SYMBOLS and not t[0].isdecimal() and not _is_ident(t)}
    if bad:
        m = next(m for m in _TOKEN.finditer(text) if m.group(1) in bad)
        raise DslLexError(f"unexpected character {m.group(1)[0]!r}",
                          *_line_col(text, m.start(1)))


def _match_names(p):
    """The names of a ``{ name, ... }`` list at the cursor, read in one
    match, and the offset after it; None when the list does not match or
    a name in it is not an identifier (it starts with a numeric character
    that is not a digit)."""
    m = _NAMES.match(p.text, p.pos)
    if m is None:
        return None
    s = m.group(1)
    if not s.isascii() and not all(map(_is_ident, re.findall(_ID, s))):
        return None
    s = "".join(s[1:-1].split()).rstrip(",")
    return s.split(",") if s else [], m.end()


class _Parser:
    """Cursor over one input text.  ``pos`` is the offset the token at the
    cursor is lexed from; once ``peek`` has lexed it, ``tok`` is its text
    (``""`` at the end of the text), ``at`` its offset and ``nxt`` the
    offset after it.  A token that an error may point at later is
    remembered by its offset."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tok = None
        self.at = self.nxt = 0
        # Text of a pair, a set literal, a numeral or an element name, as
        # written and with blanks and comments removed -> its value.
        self.memo = {}

    def peek(self):
        t = self.tok
        if t is None:
            m = _NEXT.match(self.text, self.pos)
            t = self.tok = m.group(1) or ""
            self.nxt = m.end()
            self.at = m.start(1) if t else self.nxt
        return t

    def where(self):
        """The offset of the token at the cursor."""
        self.peek()
        return self.at

    def skip_to(self, end):
        """Move the cursor to offset ``end``, past what a match read."""
        self.pos = end
        self.tok = None

    def advance(self):
        t = self.peek()
        self.pos = self.nxt
        self.tok = None
        return t

    def at_sym(self, s):
        return self.peek() == s

    def at_ident(self, *names):
        t = self.peek()
        return t in names if names else _is_ident(t)

    def expect_sym(self, s):
        t = self.peek()
        if t != s:
            self.syntax_error(f"expected {s!r}, found {t or 'end of input'!r}")
        return self.advance()

    def expect_ident(self, what="a name"):
        t = self.peek()
        if not _is_ident(t):
            self.syntax_error(f"expected {what}, found {t or 'end of input'!r}")
        return self.advance()

    def memoized(self, start, value):
        """The memo's value for the text from offset ``start`` to the
        cursor, which a token-wise read has just read as ``value``; the
        first value read for that text is kept."""
        key = "".join(_TOKEN.findall(self.text, start, self.pos))
        return self.memo.setdefault(key, value)

    def syntax_error(self, msg, at=None):
        self._raise(DslSyntaxError, msg, at)

    def sem_error(self, msg, at=None):
        self._raise(DslSemanticError, msg, at)

    def _raise(self, error, msg, at):
        _check_characters(self.text)
        raise error(msg, *_line_col(self.text, self.where() if at is None else at))


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
    found = _match_names(p)
    if found is not None and len(set(found[0])) == len(found[0]):
        p.skip_to(found[1])
        return tuple(found[0])
    seen = set()

    def label():
        k = p.where()
        t = p.expect_ident()
        if t in seen:
            p.sem_error(f"duplicate name {t!r}", k)
        seen.add(t)
        return t
    return tuple(_braced(p, label))


def _parse_set_literal(p):
    found = _match_names(p)
    if found is not None:
        p.skip_to(found[1])
        return frozenset(found[0])
    return frozenset(_braced(p, lambda: p.expect_ident("a label")))


def _parse_set_table(p):
    table = {}

    def entry():
        at = p.where()
        k = _parse_set_literal(p)
        p.expect_sym(":")
        v = _parse_set_literal(p)
        if k in table:
            p.sem_error("duplicate complement entry", at)
        table[k] = v
    _braced(p, entry)
    return table


def _parse_lattice(p, decl_at):
    """The lattice after the ``lattice`` keyword at offset ``decl_at``.  An
    axiom failure is reported there; any other construction error at the
    kind token."""
    at = p.where()
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

        def block(name, message):
            k = p.where()
            if p.expect_ident(f"'{name}'") != name:
                p.sem_error(message, k)
        block("elements", "custom lattice starts with an elements block")
        names = _parse_label_list(p)
        block("order", "expected an order block")

        def cover():
            a = p.expect_ident("an element name")
            p.expect_sym("<")
            return a, p.expect_ident("an element name")
        pairs = _braced(p, cover)
        block("complement", "expected a complement block")
        comp = {}

        def comp_entry():
            k = p.where()
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


def _number(p, t, at, read):
    """``read`` (``int`` or ``Fraction``) of ``t``, a decimal numeral at
    offset ``at``.  A numeral that ``int`` cannot read, or whose value's
    numerator or denominator it cannot print, for having more digits than
    ``sys.get_int_max_str_digits()``, is a located error."""
    # Interpreters before 3.10.7 have no digit limit.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(t) > limit:
        try:
            value = read(t)
        except ValueError:
            value = None
        if value is None or max(value.numerator, value.denominator) >= 10 ** limit:
            p.sem_error(f"number too long: more than {limit} digits", at)
        return value
    return read(t)


def _read_number(p, lattice):
    at = p.where()
    t = p.advance()
    if "." in t:
        value = _number(p, t, at, Fraction)
    else:
        value = _number(p, t, at, int)
        if p.at_sym("/"):
            p.advance()
            d = p.peek()
            if not d[:1].isdecimal() or "." in d:
                p.syntax_error("expected an integer denominator")
            den = _number(p, d, p.at, int)
            if den == 0:
                p.sem_error("zero denominator")
            p.advance()
            value = Fraction(value, den)
    try:
        return lattice.element(value)
    except LatticeError as e:
        p.sem_error(str(e), at)


def _parse_element(p, lattice):
    """One annotation, read token-wise."""
    at = p.where()
    t = p.tok
    if t == "{":
        if lattice.kind != "powerset":
            p.sem_error("set annotations need a powerset lattice")
        members = _parse_set_literal(p)
        try:
            return p.memoized(at, lattice.element(members))
        except LatticeError as e:
            p.sem_error(str(e), at)
    if t[:1].isdecimal():
        if lattice.kind != "unit":
            p.sem_error("numeric annotations need the unit chain lattice")
        return p.memoized(at, _read_number(p, lattice))
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


def _element(p, lattice, m, g):
    """The element of annotation group ``g`` of match ``m``: the memo's
    value for its text, or on a miss the token-wise read at its offset."""
    s = m.group(g)
    x = p.memo.get(s)
    if x is None:
        p.skip_to(m.start(g))
        x = p.memo[s] = _parse_element(p, lattice)
    return x


def _pair(p, lattice, m, g):
    """The pair of group ``g`` of match ``m``, whose elements are groups
    ``g + 1`` and ``g + 2``, through the memo."""
    s = m.group(g)
    pv = p.memo.get(s)
    if pv is None:
        pv = PairValue(_element(p, lattice, m, g + 1), _element(p, lattice, m, g + 2))
        pv = p.memo[s] = p.memo.setdefault("".join(s.split()), pv)
    return pv


def _expect_atom(p, uset):
    """An atom name that ``uset`` declares."""
    at = p.where()
    name = p.expect_ident("an atom name")
    if name not in uset:
        p.sem_error(f"undeclared atom {name!r}", at)
    return name


def _parse_pair(p, lattice):
    """``< x , y >``, read token-wise."""
    at = p.where()
    p.expect_sym("<")
    x = _parse_element(p, lattice)
    p.expect_sym(",")
    y = _parse_element(p, lattice)
    p.expect_sym(">")
    return p.memoized(at, PairValue(x, y))


def _read_literal(p, lattice, uset, old):
    """One head or body literal, read token-wise: ``(atom, ann,
    polarity)``.  ``in(a):x`` and ``out(a):x`` give the element ``x`` and
    their polarity, ``a:<x, y>`` the pair and None."""
    if old:
        at = p.where()
        pol = p.expect_ident("'in' or 'out'")
        if pol not in (IN, OUT):
            p.syntax_error(f"expected 'in' or 'out', found {pol!r}", at)
        p.expect_sym("(")
        atom = _expect_atom(p, uset)
        p.expect_sym(")")
        p.expect_sym(":")
        return atom, _parse_element(p, lattice), pol
    atom = _expect_atom(p, uset)
    p.expect_sym(":")
    return atom, _parse_pair(p, lattice), None


def _parse_program(p, lattice, syntax, universe):
    """The program block, each rule a list of its literals, head first,
    which ``Program._parsed`` takes without checking them again.  A literal
    is read in one match with the token after it where it can be, and
    token-wise otherwise."""
    p.expect_sym("{")
    uset = set(universe)
    old = syntax == OLD
    match = (_OLD_LITERAL if old else _NEW_LITERAL).match
    text = p.text
    # ``lits`` holds the literals read so far of the rule being read.
    rules, lits = [], []
    while True:
        m = match(text, p.pos)
        if m is not None:
            if old:
                pol, atom, _, sep = m.groups()
            else:
                (atom, _, _, _, sep), pol = m.groups(), None
            # A head is followed by ``<-``, a body literal by ``,`` or ``.``.
            if atom in uset and (sep == "<-") == (not lits):
                ann = _element(p, lattice, m, 3) if old else _pair(p, lattice, m, 2)
                lits.append((atom, ann, pol))
                p.skip_to(m.end())
                if sep == ".":
                    rules.append(lits)
                    lits = []
                continue
        # Token-wise: the block's end, or a literal and the token after it,
        # or the end of a rule with an empty body or a trailing comma.
        if not lits and p.at_sym("}"):
            break
        if not lits or not p.at_sym("."):
            lits.append(_read_literal(p, lattice, uset, old))
            if len(lits) == 1:
                p.expect_sym("<-")
                continue
            if p.at_sym(","):
                p.advance()
                continue
        p.expect_sym(".")
        rules.append(lits)
        lits = []
    p.expect_sym("}")
    return Program._parsed(syntax, lattice, universe, rules)


def _parse_valuation(p, lattice, universe):
    p.expect_sym("{")
    uset = set(universe)
    entries = {}
    match, text = _ENTRY.match, p.text
    while True:
        m = match(text, p.pos)
        if m is not None:
            name = m.group(1)
            if name in uset and name not in entries:
                entries[name] = _pair(p, lattice, m, 2)
                p.skip_to(m.end())
                continue
        if p.at_sym("}"):
            break
        at = p.where()
        name = _expect_atom(p, uset)
        if name in entries:
            p.sem_error(f"duplicate entry for atom {name!r}", at)
        p.expect_sym("=")
        entries[name] = _parse_pair(p, lattice)
        p.expect_sym(".")
    p.expect_sym("}")
    return PairValuation._parsed(lattice, universe, entries)


def _perm_map(p, lattice, pairs, at):
    """Pair map from a name permutation: powerset lattices permute labels,
    other finite kinds permute elements; unlisted names stay fixed.  Errors
    point at offset ``at``."""
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
    at = p.where()
    t = p.advance()
    if t == "id":
        return PairMap.identity(lattice)
    if t == "swap":
        return PairMap.swap(lattice)
    p.expect_sym("(")
    pairs = {}
    while True:
        k = p.where()
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
    atom needs its own entry; errors about coverage point at offset
    ``iso_at``.  A default that no atom falls back on is dropped."""
    p.expect_sym("{")
    uset = set(universe)
    maps = {}
    default = None
    while not p.at_sym("}"):
        at = p.where()
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
        at = p.at
        name = p.tok
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
            k = p.where()
            s = p.expect_ident("'old' or 'new'")
            if s not in (OLD, NEW):
                p.sem_error(f"syntax must be 'old' or 'new', got {s!r}", k)
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
    at = p.where()
    t = p.expect_ident("'iso'")
    if t != "iso":
        p.syntax_error(f"expected an iso block, found {t!r}", at)
    iso = _parse_iso_block(p, lattice, universe, at)
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
    body = "".join([f"  {r}\n" for r in _rule_texts(doc.program._literals)])
    parts.append("program {\n" + body + "}")
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
        "rules": _rule_texts(doc.program._literals),
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
