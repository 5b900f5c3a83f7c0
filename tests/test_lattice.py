"""Lattice axioms, element operations, and the pair lattice."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from annrev import (
    CustomLattice,
    InvalidLatticeError,
    LatticeError,
    LatticeMismatchError,
    LevelChain,
    PairValue,
    PowersetLattice,
    TwoLattice,
    UnitChain,
    UnsupportedOperationError,
    ValidationReport,
    bot_pair,
    lattice,
    negation,
    pair_space,
    pcomp_pair,
    top_pair,
    validate,
)
from helpers import (
    PQR_COMPLEMENT, axiom_scan, bound_oracle, chain4, chain_product, decl_order, decl_rows,
    diamond_fixed, handle_decl, label_involution_powerset, powerset_decl, powerset_pq,
    powerset_pqr_custom, product_decl)

unit = UnitChain()

fractions = st.fractions(min_value=0, max_value=1)


def unit_elem(f):
    return unit.element(f)


# --- validation -------------------------------------------------------------

def test_validate_two():
    lat = TwoLattice()
    assert validate(lat).ok
    assert ~lat.true == lat.false and ~lat.false == lat.true


def test_validate_custom_powerset_complement():
    assert validate(powerset_pqr_custom()).ok


def test_validate_rejects_identity_complement_on_diamond():
    with pytest.raises(InvalidLatticeError, match="order-reversing"):
        CustomLattice(
            ("bot", "a", "b", "top"),
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
            {"bot": "bot", "a": "a", "b": "b", "top": "top"})


def test_validate_reports_missing_meet():
    # two incomparable tops: no join of a and b
    with pytest.raises(InvalidLatticeError, match="^no join of a and b$"):
        CustomLattice(
            ("bot", "a", "b"),
            [("bot", "a"), ("bot", "b")],
            {"bot": "bot", "a": "b", "b": "a"})


def test_validate_rejects_non_involution():
    with pytest.raises(InvalidLatticeError, match="involution"):
        CustomLattice(
            ("bot", "top"),
            [("bot", "top")],
            {"bot": "bot", "top": "bot"})


def test_validate_unit_chain():
    assert validate(unit).ok


# M3 and N5, the two non-distributive five-element lattices.
_M3 = (["bot", "a", "b", "c", "top"],
       [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")],
       {"bot": "top", "a": "a", "b": "c", "c": "b", "top": "bot"})
_N5 = (["bot", "a", "b", "c", "top"],
       [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")],
       {"bot": "top", "a": "c", "b": "c", "c": "a", "top": "bot"})


def _random_involution(rng, items):
    items = list(items)
    rng.shuffle(items)
    out = {}
    while items:
        a = items.pop()
        b = items.pop() if items and rng.random() < 0.7 else a
        out[a], out[b] = b, a
    return out


def _random_table(rng, names, comp):
    """The given complement, or it with two images swapped, or a random
    map, or a random involution."""
    kind = rng.randrange(4)
    if kind == 0:
        return dict(comp)
    if kind == 1:
        a, b = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
        out = dict(comp)
        out[a], out[b] = comp[b], comp[a]
        return out
    if kind == 2:
        return {a: rng.choice(names) for a in names}
    return _random_involution(rng, names)


def _random_custom(rng):
    """A custom-lattice declaration of 1-7 elements in shuffled element
    order: a grid of chains, M3 or N5 under a varied complement, or a random
    relation (cycles included) under a random complement."""
    shape = rng.randrange(4)
    if shape == 0:
        n = rng.randint(1, 7)
        names = [f"e{i}" for i in range(n)]
        forward = rng.random() < 0.7
        order = [(a, b) for i, a in enumerate(names) for j, b in enumerate(names)
                 if a != b and (i < j or not forward) and rng.random() < 0.4]
        comp = {a: rng.choice(names) for a in names}
    else:
        if shape == 1:
            m = rng.randint(1, 3)
            names, order, comp = product_decl(m, rng.randint(1, 7 // m))
        else:
            names, order, comp = _M3 if shape == 2 else _N5
        comp = _random_table(rng, names, comp)
    names = list(names)
    rng.shuffle(names)
    return names, order, comp


def _build_as_scanned(decl):
    """``(handle, report)``: the handle of ``decl`` when ``axiom_scan``
    passes it; otherwise None, after asserting that the constructor raises
    ``InvalidLatticeError`` with the scan's first failure."""
    report = axiom_scan(decl)
    if report.ok:
        return CustomLattice(*decl), report
    with pytest.raises(InvalidLatticeError) as exc:
        CustomLattice(*decl)
    assert str(exc.value) == report.failures[0]
    return None, report


def _distributive(report):
    """Whether ``axiom_scan``'s report gets past distributivity."""
    return report.ok or report.failures[0].startswith("complement")


def test_validate_matches_axiom_scan_on_random_custom_lattices():
    rng = random.Random(20)
    kinds = set()
    for _ in range(600):
        lat, report = _build_as_scanned(_random_custom(rng))
        assert (lat is None) == (not report.ok)
        kinds.add(report.failures[0].split(" at ")[0] if report.failures else "ok")
    # the generator reaches the valid case and failures of every stage
    assert {"ok", "order not antisymmetric", "distributivity fails",
            "complement not an involution", "complement not order-reversing"} <= kinds
    assert any(k.startswith(("no meet", "no join")) for k in kinds)


def test_validate_matches_axiom_scan_on_large_grids():
    # Every grid of chains from 12 elements up to the 24- and 25-element
    # sizes that the load benchmark declares, under the reversing complement
    # and with two of its entries exchanged.
    rng = random.Random(22)
    grids = 0
    for m in range(1, 6):
        for n in range(m, 25 // m + 1):
            if m * n < 12:
                continue
            grids += 1
            names, order, comp = product_decl(m, n)
            a, b = rng.sample(names, 2)
            swapped = dict(comp)
            swapped[a], swapped[b] = comp[b], comp[a]
            for table in (comp, swapped):
                rng.shuffle(names)
                _, report = _build_as_scanned((names, order, table))
                assert report.ok == (table is comp)
    assert grids == 30
    for decl, ok in zip(_grids_7x7(), (True, False)):
        _, report = _build_as_scanned(decl)
        assert report.ok == ok


@st.composite
def _declarations(draw):
    """A custom-lattice declaration in drawn element order: a grid of
    chains of up to 7 elements, M3, N5 or a relation on 1-5 elements, under
    its own complement (the identity for a relation), that with two images
    exchanged, a random map or a random involution."""
    shape = draw(st.sampled_from(("grid", "M3", "N5", "relation")))
    if shape == "grid":
        m = draw(st.integers(1, 3))
        names, order, comp = product_decl(m, draw(st.integers(1, 7 // m)))
    elif shape == "relation":
        names = [f"e{i}" for i in range(draw(st.integers(1, 5)))]
        pairs = [(a, b) for a in names for b in names if a != b]
        order = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        comp = {a: a for a in names}
    else:
        names, order, comp = _M3 if shape == "M3" else _N5
    table = draw(st.sampled_from(("own", "exchanged", "map", "involution")))
    if table == "exchanged" and len(names) > 1:
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        comp = {**comp, a: comp[b], b: comp[a]}
    elif table == "map":
        comp = {a: draw(st.sampled_from(names)) for a in names}
    elif table == "involution":
        rest, comp = list(draw(st.permutations(names))), {}
        while rest:
            a = rest.pop()
            b = rest.pop() if rest and draw(st.booleans()) else a
            comp[a], comp[b] = b, a
    return list(draw(st.permutations(names))), order, comp


@given(_declarations())
def test_declarations_build_or_fail_as_scanned(decl):
    # A declaration either raises InvalidLatticeError with the axiom scan's
    # first failure, or builds a handle whose operators are the declared
    # relation's order, meets, joins and complement on every pair.
    lat, _ = _build_as_scanned(decl)
    if lat is None:
        return
    names, _, comp = decl
    leq = decl_order(decl)
    els = [lat.element(x) for x in names]
    for i, x in enumerate(els):
        assert ~x == lat.element(comp[names[i]])
        for j, y in enumerate(els):
            assert (x <= y) == leq[i][j]
            assert x & y == els[bound_oracle(leq, i, j, True)]
            assert x | y == els[bound_oracle(leq, i, j, False)]


def _grids_7x7():
    """Declarations of the 49-element grid of chains, past the sizes the
    load benchmark declares, under the reversing complement and with two of
    its entries exchanged, each in shuffled element order."""
    rng = random.Random(23)
    names, order, comp = product_decl(7, 7)
    a, b = rng.sample(names, 2)
    swapped = dict(comp)
    swapped[a], swapped[b] = comp[b], comp[a]
    decls = []
    for table in (comp, swapped):
        rng.shuffle(names)
        decls.append((tuple(names), order, table))
    return decls


def _oracle_decls():
    """600 random custom-lattice declarations and every grid of chains up
    to 25 elements, in shuffled element order."""
    rng = random.Random(21)
    decls = [_random_custom(rng) for _ in range(600)]
    for m in range(1, 6):
        for n in range(m, 25 // m + 1):
            names, order, comp = product_decl(m, n)
            rng.shuffle(names)
            decls.append((names, order, comp))
    return decls


def test_custom_tables_match_bound_oracle():
    decls = _oracle_decls()
    assert max(len(names) for names, _, _ in decls) == 25
    nones = 0
    for decl in decls + _grids_7x7():
        up, down = decl_rows(decl)
        leq = decl_order(decl)
        size = range(len(leq))
        meet, join = lattice._bound_table(down, up), lattice._bound_table(up, down)
        assert meet == [[bound_oracle(leq, i, j, True) for j in size] for i in size]
        assert join == [[bound_oracle(leq, i, j, False) for j in size] for i in size]
        nones += any(None in row for row in meet + join)
    assert nones > 0


def _built_lattices():
    """The handles of the declarations of ``_oracle_decls`` that build."""
    lats = []
    for decl in _oracle_decls():
        try:
            lats.append(CustomLattice(*decl))
        except InvalidLatticeError:
            pass
    return lats


def _transitive_reduction(lat):
    """The definition of the covers: ``x < y`` with no third element between
    them, in element order of ``x`` and then of ``y``."""
    els = lat.elements()
    return [(x, y) for x in els for y in els
            if x < y and not any(z != x and z != y and x <= z <= y for z in els)]


def test_cover_pairs_match_transitive_reduction():
    lats = _built_lattices()
    assert len(lats) > 100
    for lat in lats:
        expected = tuple((repr(x), repr(y)) for x, y in _transitive_reduction(lat))
        assert lat.cover_pairs() == expected


def _finite_kinds():
    """A handle of every finite kind: ``two``, chains of 1-8 levels, default
    powersets of 1-4 labels, the ``PQR_COMPLEMENT`` powerset, a swapped-label
    powerset, grids of chains up to 7 x 7 and the built random declarations."""
    lats = [TwoLattice(), powerset_pqr_custom(), label_involution_powerset("pqrs", [("p", "s")])]
    lats += [LevelChain(tuple(f"c{i}" for i in range(n))) for n in range(1, 9)]
    lats += [PowersetLattice(tuple("pqrs"[:n])) for n in range(1, 5)]
    lats += [chain_product(m, n) for m, n in ((2, 2), (2, 3), (3, 3), (5, 5), (7, 7))]
    return lats + _built_lattices()


def test_codec_covers_match_definition():
    # The walk yields exactly the transitive reduction, each cover adds one
    # bit, and the pairs come with x in element order, then y in the order
    # of the added bit.
    for lat in _finite_kinds():
        codec = lat.codec()
        walk = list(codec.covers())
        assert len(walk) == len(set(walk))
        assert {(codec.decode(x), codec.decode(y)) for x, y in walk} == set(
            _transitive_reduction(lat))
        position = {codec.encode(x): k for k, x in enumerate(lat.elements())}
        for x, y in walk:
            bit = y ^ x
            assert y & x == x and bit & (bit - 1) == 0
        assert walk == sorted(walk, key=lambda xy: (position[xy[0]], xy[1] ^ xy[0]))
        if lat.kind in ("two", "chain", "powerset"):
            assert walk == sorted(walk, key=lambda xy: (position[xy[0]], position[xy[1]]))


def test_is_boolean_matches_definition():
    # Read off the codes; the definition is x & ~x == bot and x | ~x == top.
    seen = set()
    for lat in _finite_kinds() + [diamond_fixed()]:
        expected = all((x & ~x) == lat.bot and (x | ~x) == lat.top for x in lat.elements())
        assert lat.is_boolean() == expected
        seen.add(expected)
    assert seen == {True, False}
    assert chain_product(2, 2).is_boolean() and not chain_product(2, 3).is_boolean()


# --- integer codes ------------------------------------------------------------

def _check_codes(lat, codec, x, y):
    """The codec against the lattice's own operations on ``x`` and ``y``,
    alone and as the pairs ``<x, y>`` and ``<y, x>``; ``pcomp`` also
    against the scan over ``lat.elements()`` when the lattice is finite."""
    cx, cy = codec.encode(x), codec.encode(y)
    assert codec.decode(cx) == x
    assert (x <= y) == (cx & cy == cx)
    assert codec.decode(cx | cy) == x | y
    assert codec.decode(cx & cy) == x & y
    assert codec.decode(codec.complement(cx)) == ~x
    assert codec.decode(codec.pcomp(cx, cy)) == lat.pcomp(x, y)
    if lat.is_finite:
        els = lat.elements()
        assert lat.pcomp(x, y) == lat.big_meet([g for g in els if y <= (x | g)])
    u, v = PairValue(x, y), PairValue(y, x)
    cu, cv = codec.pair(u), codec.pair(v)
    assert codec.unpair(cu) == u
    assert (u <= v) == (cu & cv == cu)
    assert codec.unpair(cu | cv) == u | v
    assert codec.unpair(cu & cv) == u & v
    assert codec.unpair(codec.conflate(cu)) == -u
    assert codec.unpair(codec.pcomp(cu, cv)) == pcomp_pair(u, v)


_CODED = {
    "two": TwoLattice(),
    "chain4": chain4(),
    "powerset_pq": powerset_pq(),
    "powerset_pqr": PowersetLattice(("p", "q", "r")),
    "pqr_complement": powerset_pqr_custom(),
    "diamond_fixed": diamond_fixed(),
    "chain_2x3": chain_product(2, 3),
    "chain_3x3": chain_product(3, 3),
}


@pytest.mark.parametrize("name", _CODED)
@given(data=st.data())
def test_codes_match_lattice_operations(name, data):
    lat = _CODED[name]
    els = st.sampled_from(lat.elements())
    _check_codes(lat, lat.codec(), data.draw(els), data.draw(els))


@given(st.lists(fractions, min_size=1, max_size=6), st.data())
def test_unit_codes_match_chain_operations(values, data):
    # The codes cover the given values, 0, 1, and every complement.
    elems = [unit_elem(f) for f in values]
    codec = unit.codec(elems)
    covered = st.sampled_from(elems + [~e for e in elems] + [unit.bot, unit.top])
    _check_codes(unit, codec, data.draw(covered), data.draw(covered))


# --- key-level reference ------------------------------------------------------

def _chain_reference(n):
    """``(leq, meet, join, complement, bot, top)`` on the level indices of
    an ``n``-level chain."""
    return int.__le__, min, max, lambda i: n - 1 - i, 0, n - 1


def _powerset_reference(labels, complement=None):
    """The same on the frozenset keys of a powerset; ``complement`` maps a
    key to its declared complement, and defaults to ``full - s``."""
    full = frozenset(labels)
    return (frozenset.__le__, frozenset.__and__, frozenset.__or__,
            complement or (lambda s: full - s), frozenset(), full)


def _swap_p_s(s):
    return frozenset("pqrs") - {{"p": "s", "s": "p"}.get(l, l) for l in s}


_KEY_REFERENCE = {
    "two": (TwoLattice, _chain_reference(2)),
    "chain4": (chain4, _chain_reference(4)),
    "chain12": (lambda: LevelChain(f"c{i}" for i in range(12)), _chain_reference(12)),
    "powerset_pqr": (lambda: PowersetLattice("pqr"), _powerset_reference("pqr")),
    "pqr_complement": (powerset_pqr_custom,
                       _powerset_reference("pqr", PQR_COMPLEMENT.__getitem__)),
    "pqrs_involution": (lambda: label_involution_powerset("pqrs", [("p", "s")]),
                        _powerset_reference("pqrs", _swap_p_s)),
}


@pytest.mark.parametrize("name", _KEY_REFERENCE)
def test_operators_match_key_reference(name):
    # The element operators of powersets and level chains against their
    # keys, without the codec; pcomp against the least solution there.
    make, (leq, meet, join, comp, bot, top) = _KEY_REFERENCE[name]
    lat = make()
    keys = [x.key for x in lat.elements()]
    assert lat.bot.key == bot and lat.top.key == top
    for x in lat.elements():
        assert (~x).key == comp(x.key)
        for y in lat.elements():
            a, b = x.key, y.key
            assert (x <= y) == leq(a, b) and (x >= y) == leq(b, a)
            assert (x < y) == (leq(a, b) and a != b)
            assert (x & y).key == meet(a, b) and (x | y).key == join(a, b)
            least = [g for g in keys if leq(b, join(a, g))]
            least = [g for g in least if all(leq(g, h) for h in least)]
            assert [lat.pcomp(x, y).key] == least


@pytest.mark.parametrize("decl", [_M3, _N5], ids=["M3", "N5"])
def test_codes_reject_non_distributive_lattices(decl):
    assert lattice._code_tables(*decl_rows(decl)) is None
    assert axiom_scan(decl).failures[0].startswith("distributivity fails")
    with pytest.raises(InvalidLatticeError, match="^distributivity fails at "):
        CustomLattice(*decl)


def test_codes_exist_exactly_on_distributive_lattices():
    # A declared order has codes exactly when the axiom scan gets past
    # distributivity, and on a handle they are exact on every pair of
    # elements.
    decls = _oracle_decls()
    coded = 0
    for decl in decls:
        report = axiom_scan(decl)
        codes = lattice._code_tables(*decl_rows(decl))
        assert (codes is not None) == _distributive(report)
        coded += codes is not None
        if report.ok:
            lat = CustomLattice(*decl)
            codec = lat.codec()
            for x in lat.elements():
                for y in lat.elements():
                    _check_codes(lat, codec, x, y)
    assert 0 < coded < len(decls)


def _all_relations():
    """A declaration for every relation on 1-4 elements, 4,165 in all,
    each under the identity complement."""
    for n in range(1, 5):
        names = [f"e{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        for bits in range(1 << len(pairs)):
            order = [ab for k, ab in enumerate(pairs) if bits >> k & 1]
            yield names, order, {a: a for a in names}


def test_codes_and_validate_exhaustive_on_small_relations():
    # The code proof must accept exactly the distributive lattices: a
    # relation has codes exactly when the axiom scan gets past
    # distributivity, and the constructor, which trusts the proof, builds
    # or fails as the scan does on every relation.
    count, coded, built = 0, 0, 0
    for decl in _all_relations():
        count += 1
        lat, report = _build_as_scanned(decl)
        codes = lattice._code_tables(*decl_rows(decl))
        assert (codes is not None) == _distributive(report)
        coded += codes is not None
        if lat is not None:
            built += 1
            assert validate(lat).ok
            lat.codec()
    assert count == 4165
    assert 0 < built <= coded < count


def test_codes_must_reflect_the_order():
    # The smallest orders whose codes are distinct and closed under & and |
    # yet not order-reflecting have six elements, so the exhaustive scan
    # above cannot see the order check.  Here e's code {a, b} lies inside
    # d's code {a, b, c} but e is not below d: a and b have two minimal
    # upper bounds and no join.
    decl = (("bot", "a", "b", "c", "d", "e"),
            [("bot", "a"), ("bot", "b"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "e"),
             ("c", "d")],
            {x: x for x in ("bot", "a", "b", "c", "d", "e")})
    assert lattice._code_tables(*decl_rows(decl)) is None
    assert axiom_scan(decl) == ValidationReport(False, ("no join of a and b",))
    with pytest.raises(InvalidLatticeError, match="^no join of a and b$"):
        CustomLattice(*decl)


def test_distributive_lattices_skip_the_cubic_scans(monkeypatch):
    # Once the codes prove the order a distributive lattice, neither the
    # bound-table scan nor the order scan runs, and the constructor builds
    # or fails as the axiom scan does.
    decls = []
    for decl in _oracle_decls():
        report = axiom_scan(decl)
        if _distributive(report):
            decls.append((decl, report))
    decls.append((product_decl(10, 10), ValidationReport(True)))

    def cubic(*args):
        raise AssertionError("cubic scan ran on a distributive lattice")

    monkeypatch.setattr(lattice, "_bound_table", cubic)
    monkeypatch.setattr(lattice, "_order_failure", cubic)
    for decl, report in decls:
        if report.ok:
            assert validate(CustomLattice(*decl)) == report
        else:
            with pytest.raises(InvalidLatticeError) as exc:
                CustomLattice(*decl)
            assert str(exc.value) == report.failures[0]
    assert len(decls) > 100 and any(not report.ok for _, report in decls)


def _powerset_tables(rng, labels):
    """Complement tables over the subsets of ``labels``: ``S -> full -
    sigma(S)`` for a random label permutation sigma, the same with two
    entries swapped, a random bijection, and a random involution."""
    subsets = [frozenset()]
    for l in labels:
        subsets += [s | {l} for s in subsets]
    full = frozenset(labels)
    shuffled = list(labels)
    rng.shuffle(shuffled)
    sigma = dict(zip(labels, shuffled))
    table = {s: full - {sigma[l] for l in s} for s in subsets}
    a, b = rng.sample(subsets, 2)
    swapped = dict(table)
    swapped[a], swapped[b] = table[b], table[a]
    images = subsets[:]
    rng.shuffle(images)
    return [table, swapped, dict(zip(subsets, images)), _random_involution(rng, subsets)]


def test_validate_matches_axiom_scan_on_powerset_tables():
    # The constructor names the same first offender as the scan: an
    # element that breaks the involution, then a cover that the table does
    # not reverse.
    rng = random.Random(21)
    seen = {True: 0, "involution": 0, "cover": 0}
    for _ in range(150):
        labels = tuple("pqrs"[:rng.randint(2, 4)])
        for table in _powerset_tables(rng, labels):
            expected = axiom_scan(powerset_decl(labels, table))
            if expected.ok:
                PowersetLattice(labels, table)
                seen[True] += 1
                continue
            with pytest.raises(InvalidLatticeError) as exc:
                PowersetLattice(labels, table)
            assert str(exc.value) == expected.failures[0]
            seen["involution" if "involution" in expected.failures[0] else "cover"] += 1
    assert min(seen.values()) >= 10


@pytest.mark.parametrize("make", [TwoLattice] + [
    lambda n=n: LevelChain(tuple(f"c{i}" for i in range(n))) for n in range(1, 9)])
def test_validate_chains_valid_as_built(make):
    lat = make()
    assert validate(lat) == axiom_scan(handle_decl(lat), total=True) == ValidationReport(True)


def test_validate_default_powersets_valid_as_built():
    for n in range(1, 5):
        lat = PowersetLattice(tuple("pqrs"[:n]))
        assert validate(lat) == axiom_scan(handle_decl(lat)) == ValidationReport(True)


# --- core operations --------------------------------------------------------

def test_powerset_join_is_union():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    assert lat.element({"Ann"}) | lat.element({"Bob"}) == lat.element({"Ann", "Bob"})


def test_chain_meet_is_min():
    assert unit_elem(Fraction(3, 10)) & unit_elem(Fraction(7, 10)) == unit_elem(Fraction(3, 10))


def test_empty_join_is_bottom():
    lat = powerset_pq()
    assert lat.big_join([]) == lat.bot
    assert lat.big_meet([]) == lat.top


def test_complement_chain():
    assert ~unit_elem(Fraction(3, 10)) == unit_elem(Fraction(7, 10))


def test_complement_powerset_default():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    assert ~lat.element({"Ann", "Bob"}) == lat.element({"Pete"})


def test_complement_custom_table():
    lat = powerset_pqr_custom()
    assert ~lat.element({"q"}) == lat.element({"q", "r"})


def test_pcomp_chain_closed_form():
    assert unit.pcomp(unit_elem(Fraction(9, 10)), unit_elem(Fraction(8, 10))) == unit.bot
    assert unit.pcomp(unit_elem(Fraction(3, 10)), unit_elem(Fraction(8, 10))) == unit_elem(Fraction(8, 10))


def test_pcomp_powerset_brute_force():
    lat = powerset_pq()
    alpha, beta = lat.element({"p"}), lat.element({"p", "q"})
    # independent oracle: meet of every satisfying element
    sats = [g for g in lat.elements() if beta <= (alpha | g)]
    expected = lat.big_meet(sats)
    assert expected == lat.element({"q"})
    assert lat.pcomp(alpha, beta) == lat.element({"q"})


def test_pcomp_defining_property_exhaustive():
    for lat in (powerset_pq(), LevelChain(("c0", "c1", "c2", "c3"))):
        for a in lat.elements():
            for b in lat.elements():
                g = lat.pcomp(a, b)
                assert b <= (a | g)
                for other in lat.elements():
                    if b <= (a | other):
                        assert g <= other


def test_pcomp_shortcut_matches_scan_exhaustive():
    # pcomp, the down-closure of beta & ~alpha on the codes (set difference
    # on a powerset's label bits), against the scan, the meet of all
    # satisfying elements, on every pair, the pairs with beta <= alpha,
    # whose answer is bottom, included.
    stacked = CustomLattice(
        ("bot", "c", "a", "b", "ab", "top"),
        [("bot", "c"), ("c", "a"), ("c", "b"), ("a", "ab"), ("b", "ab"), ("ab", "top")],
        {"bot": "top", "c": "ab", "a": "a", "b": "b", "ab": "c", "top": "bot"})
    for lat in (powerset_pq(), powerset_pqr_custom(), stacked):
        assert validate(lat).ok
        shortcuts = 0
        for a in lat.elements():
            for b in lat.elements():
                scan = lat.big_meet([g for g in lat.elements() if b <= (a | g)])
                assert lat.pcomp(a, b) == scan
                shortcuts += b <= a
        assert 0 < shortcuts < len(lat.elements()) ** 2


def test_pcomp_distributes_over_join_in_second_arg():
    lat = powerset_pq()
    for a in lat.elements():
        for b1 in lat.elements():
            for b2 in lat.elements():
                assert lat.pcomp(a, b1) | lat.pcomp(a, b2) == lat.pcomp(a, b1 | b2)


# --- pair lattice -----------------------------------------------------------

def test_pair_meet_proposal_example():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    b_i = PairValue(lat.element({"Pete"}), lat.element({"Bob"}))
    neg_c = PairValue(lat.element({"Ann", "Bob", "Pete"}), lat.element({"Pete"}))
    assert (b_i & neg_c) == PairValue(lat.element({"Pete"}), lat.bot)


def test_pair_join_identity():
    lat = powerset_pq()
    for x in pair_space(lat):
        assert (x | bot_pair(lat)) == x


def test_pcomp_pair_componentwise_chain():
    x = PairValue(unit_elem(Fraction(9, 10)), unit_elem(Fraction(7, 10)))
    y = PairValue(unit_elem(Fraction(8, 10)), unit_elem(Fraction(6, 10)))
    assert pcomp_pair(x, y) == bot_pair(unit)


def test_conflation_proposal_continuation():
    lat = PowersetLattice(("Ann", "Bob", "Pete"))
    c = PairValue(lat.element({"Ann", "Bob"}), lat.bot)
    assert -c == PairValue(lat.element({"Ann", "Bob", "Pete"}), lat.element({"Pete"}))


def test_conflation_chain_fixed_point():
    c = PairValue(unit.bot, unit.top)
    assert -c == c


def test_conflation_involution_exhaustive():
    lat = powerset_pq()
    for x in pair_space(lat):
        assert -(-x) == x


def test_conflation_de_morgan_exhaustive():
    lat = powerset_pq()
    space = pair_space(lat)
    for x in space:
        for y in space:
            assert -(x | y) == (-x & -y)
            assert -(x & y) == (-x | -y)


def test_is_consistent():
    assert PairValue(unit_elem(Fraction(3, 10)), unit_elem(Fraction(7, 10))).is_consistent()
    lat = powerset_pq()
    q = lat.element({"q"})
    assert not PairValue(q, q).is_consistent()
    assert bot_pair(lat).is_consistent()


def test_consistent_change_commutes():
    lat = powerset_pq()
    space = pair_space(lat)
    for c in space:
        if not c.is_consistent():
            continue
        for b in space:
            assert ((b & -c) | c) == ((b | c) & -c)


def test_negation_boolean():
    lat = powerset_pq()
    v = PairValue(lat.element({"p"}), lat.bot)
    assert negation(v) == PairValue(lat.element({"q"}), lat.element({"p", "q"}))
    assert negation(top_pair(lat)) == bot_pair(lat)
    for x in pair_space(lat):
        assert (x | negation(x)) == top_pair(lat)
        assert (x & negation(x)) == bot_pair(lat)


def test_negation_rejects_non_boolean():
    with pytest.raises(UnsupportedOperationError):
        negation(PairValue(unit_elem(Fraction(1, 2)), unit.bot))
    with pytest.raises(UnsupportedOperationError):
        negation(bot_pair(LevelChain(("c0", "c1", "c2"))))


@pytest.mark.parametrize("make", [
    powerset_pq, lambda: LevelChain(("c0", "c1", "c2")),
    lambda: chain_product(2, 2), lambda: chain_product(2, 3)])
def test_is_boolean_and_negation_leave_handle_unchanged(make):
    lat = make()
    assert validate(lat).ok
    before = dict(vars(lat))
    boolean = lat.is_boolean()
    try:
        negation(bot_pair(lat))
    except UnsupportedOperationError:
        assert not boolean
    assert boolean == lat.is_boolean()
    assert vars(lat) == before


# --- distributivity and De Morgan, exhaustive on finite lattices -------------

@pytest.mark.parametrize("make", [
    TwoLattice,
    powerset_pq,
    powerset_pqr_custom,
    lambda: LevelChain(("c0", "c1", "c2", "c3")),
])
def test_finite_lattice_laws(make):
    lat = make()
    els = lat.elements()
    for x in els:
        for y in els:
            assert ~(x | y) == (~x & ~y)
            assert ~(x & y) == (~x | ~y)
            for z in els:
                assert (x & (y | z)) == ((x & y) | (x & z))


# --- unit chain, property-based ----------------------------------------------

@given(fractions)
def test_unit_complement_involution(f):
    assert ~~unit_elem(f) == unit_elem(f)


@given(fractions, fractions)
def test_unit_de_morgan(f, g):
    x, y = unit_elem(f), unit_elem(g)
    assert ~(x | y) == (~x & ~y)
    assert ~(x & y) == (~x | ~y)
    if x <= y:
        assert ~y <= ~x


@given(fractions, fractions, st.integers(min_value=0, max_value=6))
def test_unit_pcomp_least(f, g, k):
    a, b = unit_elem(f), unit_elem(g)
    out = unit.pcomp(a, b)
    assert b <= (a | out)
    if out != unit.bot:
        below = unit.element(out.key * Fraction(k, 7))
        if below < out:
            assert not b <= (a | below)


# --- handle discipline --------------------------------------------------------

def test_cross_lattice_operations_fail():
    a = powerset_pq().element({"p"})
    b = powerset_pq().element({"p"})  # different handle, same shape
    with pytest.raises(LatticeMismatchError):
        _ = a | b
    with pytest.raises(LatticeMismatchError):
        _ = a == b
    with pytest.raises(LatticeMismatchError):
        PairValue(a, b)


def test_pair_operators_reject_non_pairs():
    # PairValue's comparisons and lattice operators refuse what is not a
    # pair value with a TypeError, as Elem's refuse what is not an element.
    lat = powerset_pq()
    pv = bot_pair(lat)
    for op in (operator.le, operator.ge, operator.and_, operator.or_):
        for other in (3, lat.bot, None):
            with pytest.raises(TypeError):
                op(pv, other)
        with pytest.raises(TypeError):
            op(lat.bot, 3)


def test_powerset_rejects_unknown_labels():
    lat = powerset_pq()
    with pytest.raises(LatticeError):
        lat.element({"z"})


def test_custom_lattice_tables_total():
    # Input errors are plain LatticeErrors, not axiom failures.
    with pytest.raises(LatticeError) as exc:
        CustomLattice(("a", "b"), [("a", "b")], {"a": "b"})
    assert type(exc.value) is LatticeError
    with pytest.raises(LatticeError) as exc:
        CustomLattice(("a", "b"), [("a", "c")], {"a": "b", "b": "a"})
    assert type(exc.value) is LatticeError
