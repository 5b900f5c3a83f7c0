"""Pair-lattice isomorphisms, conflation preservation, and shifting."""

import random
from itertools import permutations

import pytest

from annrev import (
    MPT,
    CustomLattice,
    LatticeError,
    LatticeMismatchError,
    NewRule,
    PairAnnotatedAtom,
    PairIso,
    PairMap,
    PairValuation,
    PairValue,
    PowersetLattice,
    Program,
    TValuation,
    TwoLattice,
    UnsupportedOperationError,
    apply_iso,
    build_shift_iso,
    enumerate_revisions,
    encode_classic,
    is_justified_revision,
    pair_space,
    preserves_conflation,
    rin,
    rout,
    tr1,
)
from helpers import (
    chain4,
    chain_product,
    old_program,
    pair_order_preserved,
    powerset_pq,
    powerset_pqr_custom,
    random_conflation_iso,
    random_label_perm,
    random_new_program,
    random_valuation,
    valuation,
)


def qr_permutation(lat):
    """The q <-> r label permutation lifted to subsets."""
    sigma = {"p": "p", "q": "r", "r": "q"}
    return {e: lat.element(frozenset(sigma[l] for l in e.key)) for e in lat.elements()}


def test_swap_preserves_conflation():
    lat = powerset_pq()
    iso = PairIso(lat, {}, PairMap.swap(lat))
    assert preserves_conflation(iso)


def test_identity_preserves_conflation():
    lat = powerset_pq()
    assert PairMap.identity(lat).preserves_conflation()


def test_custom_complement_permutation_breaks_conflation():
    lat = powerset_pqr_custom()
    m = PairMap.from_permutation(lat, qr_permutation(lat))
    assert not m.preserves_conflation()
    # the specific witness: psi(-<{p},{}>) != -psi(<{p},{}>)
    v = PairValue(lat.element({"p"}), lat.bot)
    assert m(-v) == PairValue(lat.element({"p", "q", "r"}), lat.element({"p", "q"}))
    assert -m(v) == PairValue(lat.element({"p", "q", "r"}), lat.element({"p", "r"}))


def test_apply_iso_counterexample_valuations():
    lat = powerset_pqr_custom()
    iso = PairIso(lat, {"a": PairMap.from_permutation(lat, qr_permutation(lat))})
    B_I = valuation(lat, {"a": (frozenset(), {"r"})})
    B_R = valuation(lat, {"a": ({"p"}, {"r"})})
    assert apply_iso(iso, B_I) == valuation(lat, {"a": (frozenset(), {"q"})})
    assert apply_iso(iso, B_R) == valuation(lat, {"a": ({"p"}, {"q"})})


def test_apply_identity_is_noop_and_swap_involutive():
    rng = random.Random(3)
    lat = powerset_pq()
    ident = PairIso(lat, {}, PairMap.identity(lat))
    swap = PairIso(lat, {}, PairMap.swap(lat))
    for _ in range(30):
        B = random_valuation(rng, lat, ("a", "b"))
        assert apply_iso(ident, B) == B
        assert apply_iso(swap, apply_iso(swap, B)) == B
        p = random_new_program(rng, lat, ("a", "b"), 4)
        assert apply_iso(ident, p) == p
        assert apply_iso(swap, apply_iso(swap, p)) == p


def test_apply_iso_rejects_old_syntax():
    lat = powerset_pq()
    iso = PairIso(lat, {}, PairMap.identity(lat))
    p = old_program(lat, ("a",), [(("in", "a", {"p"}), [])])
    with pytest.raises(UnsupportedOperationError):
        apply_iso(iso, p)
    assert apply_iso(iso, tr1(p)) == tr1(p)


def test_apply_iso_rejects_other_lattice():
    lat, other = powerset_pq(), powerset_pq()
    B = random_valuation(random.Random(2), other, ("a",))
    p = random_new_program(random.Random(2), other, ("a",), 3)
    for m in (PairMap.identity(lat), PairMap.swap(lat)):
        iso = PairIso(lat, {}, m)
        for x in (B, p):
            with pytest.raises(LatticeMismatchError):
                apply_iso(iso, x)


def test_wrong_value_types_raise_type_error():
    # As PairValuation and PairValue refuse what is not a pair value, a
    # revision valuation refuses what is not an element and a pair iso or
    # composition what is not a pair map.
    lat = powerset_pq()
    with pytest.raises(TypeError):
        TValuation(lat, {rin("a"): 3, rout("a"): lat.bot})
    with pytest.raises(TypeError):
        PairIso(lat, {"a": 3})
    with pytest.raises(TypeError):
        PairIso(lat, {}, 3)
    with pytest.raises(TypeError):
        PairMap.identity(lat).then(3)


def _diamond():
    return CustomLattice(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        {"bot": "top", "a": "b", "b": "a", "top": "bot"})


def _grid3x3():
    return chain_product(3, 3)


def _symmetry(rng, lat):
    """A random label permutation, or on a lattice without labels the
    identity or the grid transposition ``x{i}y{j} -> x{j}y{i}``."""
    if hasattr(lat, "labels"):
        return random_label_perm(rng, lat)
    if rng.random() < 0.5:
        return {e: e for e in lat.elements()}
    return _transposition(lat)


def _transposition(lat):
    """The grid transposition ``x{i}y{j} -> x{j}y{i}``."""
    def transposed(e):
        i, j = lat.format_element(e)[1:].split("y")
        return lat.element(f"x{j}y{i}")
    return {e: transposed(e) for e in lat.elements()}


def _element_perms(rng, lat):
    """Every element permutation on small lattices; on larger ones random
    permutations, symmetries (``_symmetry``), and symmetries with two
    images exchanged."""
    els = list(lat.elements())
    if len(els) <= 4:
        return [dict(zip(els, images)) for images in permutations(els)]
    out = []
    for _ in range(40):
        images = els[:]
        rng.shuffle(images)
        out.append(dict(zip(els, images)))
        perm = _symmetry(rng, lat)
        out.append(perm)
        a, b = rng.sample(els, 2)
        perm = dict(perm)
        perm[a], perm[b] = perm[b], perm[a]
        out.append(perm)
    return out


def _conflation_by_pair_space(m):
    return all(m(-v) == -m(v) for v in pair_space(m.lattice))


@pytest.mark.parametrize("make", [
    lambda: PowersetLattice(("p", "q", "r")), chain4, _diamond, powerset_pqr_custom, _grid3x3])
def test_structural_pairmap_matches_pair_space_check(make):
    rng = random.Random(13)
    lat = make()
    accepted = []
    rejected = 0
    for perm in _element_perms(rng, lat):
        for swap in (False, True):
            def f(v, perm=perm, swap=swap):
                pos, neg = (v.neg, v.pos) if swap else (v.pos, v.neg)
                return PairValue(perm[pos], perm[neg])
            expected = pair_order_preserved(lat, f)
            try:
                m = PairMap.from_permutation(lat, perm, swap=swap)
            except LatticeError:
                assert not expected
                rejected += 1
            else:
                assert expected
                accepted.append(m)
    assert accepted and rejected
    pairs = [(m, n) for m in accepted[:6] for n in accepted[:6]]
    composed = [m.then(n) for m, n in pairs]
    for (m, n), both in zip(pairs, composed):
        assert pair_order_preserved(lat, both)
        assert all(both(v) == n(m(v)) for v in pair_space(lat))
    answers = set()
    for m in accepted + composed:
        answers.add(m.preserves_conflation())
        assert m.preserves_conflation() == _conflation_by_pair_space(m)
    # only the custom complement has automorphisms that break conflation
    assert answers == ({True, False} if make is powerset_pqr_custom else {True})


def _structural_perms(lat):
    """Every order automorphism of the lattices below: the label
    permutations of a powerset, the identity of a chain, and the identity
    and the transposition of a square grid."""
    els = lat.elements()
    if hasattr(lat, "labels"):
        return [{e: lat.element(frozenset(dict(zip(lat.labels, image))[l] for l in e.key))
                 for e in els} for image in permutations(lat.labels)]
    perms = [{e: e for e in els}]
    if isinstance(lat, CustomLattice):
        perms.append(_transposition(lat))
    return perms


@pytest.mark.parametrize("make", [
    lambda: PowersetLattice(("p", "q", "r")), powerset_pqr_custom, chain4, _grid3x3])
def test_preserves_conflation_on_codes_matches_elements(make):
    # The check on the codec's codes against its definition on elements,
    # ``perm[~x] == ~perm[x]`` for every x, on every structural map.
    lat = make()
    answers = set()
    for perm in _structural_perms(lat):
        for swap in (False, True):
            m = PairMap.from_permutation(lat, perm, swap=swap)
            want = all(perm[~x] == ~px for x, px in perm.items())
            assert m.preserves_conflation() == want
            answers.add(want)
    assert answers == ({True, False} if make is powerset_pqr_custom else {True})


def test_then_composes_checked_maps_without_a_check(monkeypatch):
    # A composition of automorphisms is one, so ``then`` builds it without
    # re-running the constructor's bijection and cover check.
    rng = random.Random(17)
    lat = PowersetLattice(("p", "q", "r", "s"))
    m = PairMap.from_permutation(lat, random_label_perm(rng, lat))
    n = PairMap.from_permutation(lat, random_label_perm(rng, lat), swap=True)
    swap, identity = PairMap.swap(lat), PairMap.identity(lat)
    calls = []
    check = PairMap._validate

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(PairMap, "_validate", counted)
    pairs = [(m, n), (n, m), (m, m), (swap, m), (m, swap), (identity, n), (swap, identity)]
    composed = [first.then(second) for first, second in pairs]
    assert calls == []
    for (first, second), both in zip(pairs, composed):
        assert both.lattice is lat
        assert all(both(v) == second(first(v)) for v in pair_space(lat))


def test_pairmap_rejects_non_automorphism_with_witness():
    lat = chain4()
    c = {e.key: e for e in lat.elements()}
    perm = {e: e for e in lat.elements()}
    perm[c[0]], perm[c[1]] = c[1], c[0]
    with pytest.raises(LatticeError, match=r"^permutation does not preserve the order at c0, c1$"):
        PairMap.from_permutation(lat, perm, swap=True)


def test_pairmap_rejects_permutation_on_infinite_lattice():
    from annrev import UnitChain
    unit = UnitChain()
    PairMap.identity(unit)
    PairMap.swap(unit)
    with pytest.raises(UnsupportedOperationError):
        PairMap.from_permutation(unit, {})


def test_shifting_fails_without_conflation_preservation():
    # With a conflation-preserving map the revision shifts; the q<->r
    # permutation over the custom complement does not preserve conflation
    # and the shifted candidate stops being a revision.
    lat = powerset_pqr_custom()
    head = PairAnnotatedAtom("a", PairValue(lat.element({"p"}), lat.bot))
    p = Program("new", lat, ("a",), [NewRule(head, ())])
    B_I = valuation(lat, {"a": (frozenset(), {"r"})})
    B_R = valuation(lat, {"a": ({"p"}, {"r"})})
    assert is_justified_revision(p, B_I, B_R, MPT).verified

    iso = PairIso(lat, {"a": PairMap.from_permutation(lat, qr_permutation(lat))})
    assert not preserves_conflation(iso)
    sB_I, sB_R = apply_iso(iso, B_I), apply_iso(iso, B_R)
    sP = apply_iso(iso, p)
    assert sP == p  # the program is fixed by the permutation
    out = is_justified_revision(sP, sB_I, sB_R, MPT)
    assert not out.verified
    from annrev import apply_change
    assert apply_change(sB_I, out.necessary_change) == valuation(
        lat, {"a": ({"p"}, frozenset())})


def test_shifting_commutes_for_conflation_preserving_isos():
    rng = random.Random(7)
    lat = powerset_pq()
    atoms = ("a", "b")
    for _ in range(40):
        p = random_new_program(rng, lat, atoms, 4)
        B_I = random_valuation(rng, lat, atoms)
        iso = random_conflation_iso(rng, lat, atoms)
        assert preserves_conflation(iso)
        before = {apply_iso(iso, o.candidate) for o in enumerate_revisions(p, B_I, MPT)}
        after = {o.candidate for o in
                 enumerate_revisions(apply_iso(iso, p), apply_iso(iso, B_I), MPT)}
        assert before == after


def test_build_shift_iso_examples():
    lat = TwoLattice()
    universe = ("a", "b")
    iso = build_shift_iso(lat, universe, {"a"}, set())
    t, f = lat.true, lat.false
    swapped = iso.map_for("a")(PairValue(t, f))
    assert swapped == PairValue(f, t)
    assert iso.map_for("b")(PairValue(t, f)) == PairValue(t, f)

    same = build_shift_iso(lat, universe, {"a"}, {"a"})
    for atom in universe:
        for v in pair_space(lat):
            assert same.map_for(atom)(v) == v


def test_build_shift_iso_maps_first_db_to_second():
    rng = random.Random(11)
    universe = ("a", "b", "c")
    for _ in range(50):
        b1 = frozenset(a for a in universe if rng.random() < 0.5)
        b2 = frozenset(a for a in universe if rng.random() < 0.5)
        _, v1 = encode_classic([], b1, universe)
        lat = v1.lattice
        iso = build_shift_iso(lat, universe, b1, b2)
        assert preserves_conflation(iso)
        shifted = apply_iso(iso, v1)
        target = {a: (lat.true, lat.false) if a in b2 else (lat.false, lat.true)
                  for a in universe}
        assert shifted == PairValuation(lat, {
            a: PairValue(x, y) for a, (x, y) in target.items()})


def test_map_for_requires_entry_or_default():
    lat = powerset_pq()
    iso = PairIso(lat, {"a": PairMap.identity(lat)})
    with pytest.raises(ValueError):
        iso.map_for("b")
