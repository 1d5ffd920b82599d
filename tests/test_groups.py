"""Group tables, subgroup lattice, coset machinery."""

import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idemconv import (
    GroupTable,
    all_subgroups,
    centralizer,
    closure,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    from_permutations,
    from_table,
    full_subgroup,
    g_k_rho,
    intersection,
    is_matched_pair,
    is_subgroup_product,
    left_cosets,
    normal_subgroups,
    normalizer,
    product_set,
    quaternion_group,
    quotient_group,
    semidirect_product,
    subgroup_from_elements,
    symmetric_group,
    trivial_subgroup,
)
from idemconv.characters import character_group
from idemconv.errors import InvariantViolation
import idemconv.groups as groups_module
from idemconv.groups import Subgroup, _all_subgroups_cached, _permutation_closure, is_normal_in
from idemconv.measure_groups import _n_k_rho_masks


def test_cyclic_basics():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.is_abelian
    assert g.exponent == 6
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.op(4, 5) == 3
    assert g.inverse(1) == 5


def test_symmetric_group_labels(s3):
    assert s3.labels == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")
    assert not s3.is_abelian
    # convention: g*h applies h first, so (12)(23) maps 3->2->... = (123)? no:
    # check against the table rather than re-deriving cycle notation here.
    assert s3.op(s3.idx("(12)"), s3.idx("(12)")) == s3.identity


def test_dihedral_labels(d4):
    assert d4.labels == ("e", "r", "r^2", "r^3", "s", "rs", "r^2s", "r^3s")
    r, s = d4.idx("r"), d4.idx("s")
    # s r s^-1 = r^-1
    assert d4.conjugate(s, r) == d4.inverse(r)
    assert d4.exponent == 4


def test_quaternion_relations(q8):
    assert q8.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    i, j, k = q8.idx("i"), q8.idx("j"), q8.idx("k")
    assert q8.op(i, j) == k
    assert q8.op(i, i) == q8.idx("-1")
    assert q8.element_order(i) == 4


def test_from_permutations_closure():
    g = from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert g.order == 24  # S4 generated by a transposition and a 4-cycle


def test_from_table_rejects_nongroup():
    with pytest.raises(ValueError):
        from_table([[0, 1], [1, 1]])  # second row not a bijection
    with pytest.raises(ValueError):
        from_table([[0, 1], [1, 0]], labels=["e"])  # label count mismatch


def _swap_block(mul, rows, cols):
    """A copy of the table with the 2x2 block at rows x cols swapped within
    each row; an intercalate block keeps it a Latin square."""
    out = [list(row) for row in mul]
    c1, c2 = cols
    for r in rows:
        out[r][c1], out[r][c2] = out[r][c2], out[r][c1]
    return out


def _swapped_cyclic_table(n, rows, cols):
    # in Z/n the block is an intercalate when r2 - r1 = c2 - c1 = n/2; away
    # from row and column 0 and the inverse columns it keeps the identity
    # and every inverse
    return _swap_block([[(i + j) % n for j in range(n)] for i in range(n)], rows, cols)


def _brute_force_is_group(mul):
    m = np.array(mul)
    n = len(m)
    straight = np.arange(n)
    ids = [e for e in range(n) if (m[e] == straight).all() and (m[:, e] == straight).all()]
    if not ids:
        return False
    hits = m == ids[0]
    if not all(hits[g].any() and m[hits[g].argmax(), g] == ids[0] for g in range(n)):
        return False
    return bool(np.array_equal(m[m, :], m[:, m]))  # (ab)c == a(bc) for all a, b, c


def test_swapped_c1024_rejected_as_non_associative():
    # a sampled associativity check misses this table: its 16,336
    # non-associative triples are 1.5e-5 of all 1024**3
    mul = _swapped_cyclic_table(1024, (3, 515), (5, 517))
    with pytest.raises(ValueError, match="table is not associative at"):
        GroupTable(mul)


def test_non_associativity_witness_is_real():
    mul = _swapped_cyclic_table(8, (1, 5), (2, 6))
    with pytest.raises(ValueError, match="table is not associative at") as exc:
        GroupTable(mul)
    x, g, y = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(exc.value)).groups())
    assert mul[mul[x][g]][y] != mul[x][mul[g][y]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic_group(4),
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        lambda: symmetric_group(3),
        lambda: dihedral_group(4),
        quaternion_group,
    ],
    ids=["C4", "C2xC2", "S3", "D4", "Q8"],
)
def test_intercalate_swaps_agree_with_brute_force(build):
    # every 2x2 swap that keeps the Latin-square shape: GroupTable accepts
    # exactly the tables that pass the full n**3 check (some swaps of C4
    # and C2xC2 give a group again; none of S3, D4, Q8 do)
    mul = build().mul
    n = len(mul)
    swaps = 0
    for r1, r2 in itertools.combinations(range(n), 2):
        for c1, c2 in itertools.combinations(range(n), 2):
            if mul[r1][c1] != mul[r2][c2] or mul[r1][c2] != mul[r2][c1]:
                continue
            bad = _swap_block(mul, (r1, r2), (c1, c2))
            try:
                GroupTable(bad)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _brute_force_is_group(bad), (r1, r2, c1, c2)
            swaps += 1
    assert swaps > 0


def test_subgroup_counts(s3, s4, d4, q8, c12):
    assert len(all_subgroups(s3)) == 6
    assert len(all_subgroups(s4)) == 30
    assert len(all_subgroups(d4)) == 10
    assert len(all_subgroups(q8)) == 6
    assert len(all_subgroups(c12)) == 6


def _reference_lattice(parent, ambient_elements):
    """The exhaustive search: one closure of H and g for every g outside H."""
    triv = trivial_subgroup(parent)
    found = {triv.elements: triv}
    frontier = [triv]
    while frontier:
        fresh = []
        for h in frontier:
            for g in ambient_elements:
                if g in h.element_set:
                    continue
                s = closure(parent, h.generators + (g,))
                if s.elements not in found:
                    found[s.elements] = s
                    fresh.append(s)
        frontier = fresh
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def _s4_inside_s5(s5):
    return closure(s5, (s5.idx("(12)"), s5.idx("(1234)")))


@pytest.mark.parametrize(
    "name, ambient",
    [
        ("s3", full_subgroup),
        ("s4", full_subgroup),
        ("d4", full_subgroup),
        ("q8", full_subgroup),
        ("c12", full_subgroup),
        ("g18", full_subgroup),
        ("s5", full_subgroup),
        ("s5", _s4_inside_s5),
    ],
    ids=["S3", "S4", "D4", "Q8", "C12", "G18", "S5", "S4-in-S5"],
)
def test_lattice_matches_exhaustive_search(request, name, ambient):
    # one closure per double coset HgH finds the same subgroups, in the same
    # order and with the same generators, as one closure per element g
    g = request.getfixturevalue(name)
    amb = ambient(g)
    subs = all_subgroups(amb)
    ref = _reference_lattice(g, amb.elements)
    assert [(s.order, s.elements, s.generators) for s in subs] == [
        (s.order, s.elements, s.generators) for s in ref
    ]
    for s in subs:
        assert closure(g, s.generators).elements == s.elements
        assert s.element_set <= amb.element_set


def test_element_orders_and_inverses_match_table_walk(s4, d4, q8, c12, g18):
    for g in (s4, d4, q8, c12, g18, direct_product(cyclic_group(4), dihedral_group(6))):
        for x in range(g.order):
            k, y = 1, x
            while y != g.identity:
                y, k = g.mul[y][x], k + 1
            assert g.element_order(x) == g.element_orders[x] == k
            assert g.inv[x] == g.mul[x].index(g.identity)
        assert g.exponent == np.lcm.reduce([g.element_order(x) for x in range(g.order)])


@pytest.mark.parametrize(
    "mul",
    [[[0, 1], [1]], [[0, None], [1, 0]], [0, 1], [[0, 1], [1, "x"]], [[0, 1], [1, 2**70]]],
    ids=["ragged", "null", "flat", "text", "huge"],
)
def test_malformed_table_is_value_error(mul):
    with pytest.raises(ValueError, match="table rows must be length-n index vectors"):
        GroupTable(mul)


def test_subgroup_equality_and_hash(s3):
    a = closure(s3, [s3.idx("(123)")])
    b = subgroup_from_elements(s3, [0, 3, 4])
    assert a == b
    assert hash(a) == hash(b)
    assert a in {b}


def test_cached_hash_of_separately_built_subgroups(s4):
    # the lattice's subgroups against the same element sets rebuilt by
    # closure and by the raw constructor: each hash is cached on first use,
    # so hash one side twice before the other is built
    for k in all_subgroups(s4):
        first = hash(k)
        assert hash(k) == first
        rebuilt = (
            closure(s4, list(k.generators)),
            Subgroup(s4, k.elements, ()),
        )
        for other in rebuilt:
            assert other is not k and other == k
            assert hash(other) == first == hash((id(s4), k.elements))
        assert len({k, *rebuilt}) == 1


def test_closure_of_nothing_is_trivial(s3):
    assert closure(s3, []) == trivial_subgroup(s3)


def test_normality(s3, d4):
    a3 = closure(s3, [s3.idx("(123)")])
    assert a3.is_normal()
    refl = closure(s3, [s3.idx("(12)")])
    assert not refl.is_normal()
    assert len(normal_subgroups(full_subgroup(s3))) == 3
    assert len(normal_subgroups(full_subgroup(d4))) == 6


def test_quotient_s3_mod_a3(s3):
    a3 = closure(s3, [s3.idx("(123)")])
    q = quotient_group(full_subgroup(s3), a3)
    assert q.group.order == 2
    assert sorted(len(c) for c in q.cosets) == [3, 3]
    # projection is a homomorphism
    for x in range(6):
        for y in range(6):
            assert q.projection[s3.op(x, y)] == q.group.op(
                q.projection[x], q.projection[y]
            )


def test_left_cosets_partition(s4):
    k = closure(s4, [s4.idx("(1234)")])
    cs = left_cosets(full_subgroup(s4), k)
    assert len(cs.cosets) == 6
    seen = sorted(x for c in cs.cosets for x in c)
    assert seen == list(range(24))
    for rep, coset in zip(cs.representatives, cs.cosets):
        assert rep in coset
        assert cs.coset_index_of(rep) == cs.coset_index_of(coset[-1])


# the loop forms the array routines replaced, kept as references


def _loop_product_set(k1, k2):
    mul = k1.parent.mul
    return tuple(sorted({mul[a][b] for a in k1.elements for b in k2.elements}))


def _loop_product_witness(k1, k2):
    """The least x in K1K2 whose inverse escapes it, or None."""
    p12 = _loop_product_set(k1, k2)
    pset = frozenset(p12)
    return next((x for x in p12 if k1.parent.inv[x] not in pset), None)


def _loop_centralizer(k):
    g = k.parent
    return tuple(
        x for x in range(g.order) if all(g.mul[x][a] == g.mul[a][x] for a in k.elements)
    )


def _loop_commutator_subgroup(k):
    mul, inv = k.parent.mul, k.parent.inv
    comms = {mul[mul[a][b]][mul[inv[a]][inv[b]]] for a in k.elements for b in k.elements}
    return closure(k.parent, comms)


def _loop_left_cosets(h, l):
    """(cosets, representatives), one coset per first unseen x of H."""
    mul = h.parent.mul
    seen, cosets = set(), []
    for x in h.elements:
        if x not in seen:
            coset = tuple(sorted(mul[x][m] for m in l.elements))
            seen.update(coset)
            cosets.append(coset)
    return tuple(cosets), tuple(c[0] for c in cosets)


def _loop_quotient(h, n):
    """(projection, table, labels, name) of H/N, one product at a time."""
    g = h.parent
    cosets, reps = _loop_left_cosets(h, n)
    coset_of = {y: i for i, coset in enumerate(cosets) for y in coset}
    table = tuple(tuple(coset_of[g.mul[a][b]] for b in reps) for a in reps)
    labels = tuple(f"[{g.labels[r]}]" for r in reps)
    return coset_of, table, labels, f"{g.name}/N{n.order}"


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8", "c2xc6"])
def test_array_routines_match_loop_references(request, name):
    g = request.getfixturevalue(name)
    subs = all_subgroups(g)
    for h in subs:
        assert centralizer(h).elements == _loop_centralizer(h)
        ref = _loop_commutator_subgroup(h)
        comm = commutator_subgroup(h)
        assert (comm.elements, comm.generators) == (ref.elements, ref.generators)
        for l in subs:
            assert product_set(h, l) == _loop_product_set(h, l)
            v = is_subgroup_product(h, l)
            assert v.witness == _loop_product_witness(h, l)
            if not l.element_set <= h.element_set:
                continue
            cs = left_cosets(h, l)
            assert (cs.cosets, cs.representatives) == _loop_left_cosets(h, l)
            if is_normal_in(l, h):
                q = quotient_group(h, l)
                projection, table, labels, qname = _loop_quotient(h, l)
                assert (q.cosets, q.representatives) == (cs.cosets, cs.representatives)
                assert q.projection == projection
                assert q.group.mul == table
                assert (q.group.labels, q.group.name) == (labels, qname)


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8", "c2xc6"])
def test_subgroup_arrays_are_read_only_and_match_elements(request, name):
    g = request.getfixturevalue(name)
    for k in all_subgroups(g):
        assert k.elements_np.tolist() == list(k.elements)
        want = [k.elements.index(x) if x in k.element_set else -1 for x in range(g.order)]
        assert k.positions.tolist() == want
        for arr in (k.elements_np, k.positions):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_left_cosets_rejects_an_unclosed_subset(s3, d4):
    # {0, 1} in C4 is not closed: 3 + {0, 1} = {0, 3} has least element 0,
    # whose coset is {0, 1}, so the cosets do not partition C4
    c4 = cyclic_group(4)
    with pytest.raises(InvariantViolation):
        left_cosets(full_subgroup(c4), Subgroup(c4, (0, 1), (1,)))
    # every subset holding the identity: a partition exactly when it is closed
    for g in (s3, d4):
        others = [x for x in range(g.order) if x != g.identity]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                elts = tuple(sorted((g.identity,) + extra))
                closed = all(g.mul[a][b] in elts for a in elts for b in elts)
                raw = Subgroup(g, elts, elts)
                if closed:
                    assert len(left_cosets(full_subgroup(g), raw).cosets) == g.order // len(elts)
                else:
                    with pytest.raises(InvariantViolation):
                        left_cosets(full_subgroup(g), raw)


def test_normalizer_centralizer(s3, d4):
    refl = closure(s3, [s3.idx("(12)")])
    assert normalizer(refl).order == 2
    assert centralizer(refl).order == 2
    rot = closure(d4, [d4.idx("r")])
    assert normalizer(rot).order == 8  # index-2 subgroups are normal
    assert centralizer(rot).order == 4


def test_normalizer_matches_conjugation_definition(s4, s5, d4, q8):
    # {g : g a g^-1 in K for every a in K}, one conjugate at a time
    for g in (s4, s5, d4, q8):
        for k in all_subgroups(g):
            members = tuple(
                x
                for x in range(g.order)
                if all(g.conjugate(x, a) in k.element_set for a in k.elements)
            )
            assert normalizer(k).elements == members


def test_is_normal_in_matches_conjugation_definition(s4, s5, d4, q8):
    # N inside H and g a g^-1 in N for every g in H, a in N, one at a time
    kinds = set()
    for g in (s4, s5, d4, q8):
        subs = all_subgroups(g)
        for h in subs:
            for n in subs:
                expected = n.element_set <= h.element_set and all(
                    g.conjugate(x, a) in n.element_set
                    for x in h.elements
                    for a in n.elements
                )
                assert is_normal_in(n, h) == expected
                kinds.add((n.element_set <= h.element_set, expected))
    # contained and normal, contained and not normal (none in Q8), not contained
    assert kinds == {(True, True), (True, False), (False, False)}


def test_commutator_subgroups(s3, s4, q8):
    assert commutator_subgroup(full_subgroup(s3)).order == 3
    assert commutator_subgroup(full_subgroup(s4)).order == 12
    assert commutator_subgroup(full_subgroup(q8)).order == 2


def test_intersection_and_product(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    assert intersection(k1, k2) == trivial_subgroup(s3)
    assert len(product_set(k1, k2)) == 6
    v = is_subgroup_product(k1, k2)
    assert v.is_subgroup and v.subgroup.order == 6
    assert is_matched_pair(k1, k2)


def test_product_not_subgroup(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(13)")])
    v = is_subgroup_product(k1, k2)
    assert not v.is_subgroup
    assert v.witness is not None
    assert not is_matched_pair(k1, k2)


def _reference_product_verdict(k1, k2):
    """The three textbook criteria, evaluated independently."""
    g = k1.parent
    p12 = product_set(k1, k2)
    pset = set(p12)
    closed = all(g.mul[a][b] in pset for a in p12 for b in p12)
    inversion_closed = all(g.inv[x] in pset for x in p12)
    commute = p12 == product_set(k2, k1)
    assert closed == inversion_closed == commute
    return closed, p12


@pytest.mark.parametrize("name", ["s4", "d4", "q8", "c12"])
def test_subgroup_product_matches_reference(request, name):
    g = request.getfixturevalue(name)
    subs = all_subgroups(g)
    for k1 in subs:
        for k2 in subs:
            v = is_subgroup_product(k1, k2)
            want, p12 = _reference_product_verdict(k1, k2)
            assert v.is_subgroup == want
            if want:
                assert v.subgroup.elements == p12
                assert v.witness is None and v.witness_kind is None
            else:
                assert v.subgroup is None
                assert v.witness_kind == "inverse_escapes"
                assert v.witness in p12 and g.inv[v.witness] not in p12


def test_direct_product_structure():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.is_abelian
    assert g.exponent == 6


def test_semidirect_product_dihedral():
    # C4 x| C2 with inversion action is D4 up to relabeling
    inv = [tuple(range(4)), (0, 3, 2, 1)]
    g = semidirect_product(cyclic_group(4), cyclic_group(2), inv)
    assert g.order == 8
    assert not g.is_abelian
    assert g.exponent == 4
    assert sorted(g.element_order(x) for x in range(8)) == sorted(
        dihedral_group(4).element_order(x) for x in range(8)
    )


def test_semidirect_rejects_non_action():
    bad = [tuple(range(4)), (1, 0, 2, 3)]  # not an automorphism of C4
    with pytest.raises(ValueError):
        semidirect_product(cyclic_group(4), cyclic_group(2), bad)


def _inversion(n):
    return [tuple(range(n)), tuple((-x) % n for x in range(n))]


def _c2():
    return cyclic_group(2)


# sha256 of (name, labels) then mul_np's bytes, for each constructor's
# groups; the tables that the per-entry Python constructors built
CONSTRUCTOR_PINS = {
    "S1": (lambda: symmetric_group(1), "99c34a2421fad87f3962c28844928d4794d87d02458025b9bda536819aba8ead"),
    "S2": (lambda: symmetric_group(2), "cc00b9a5eb4e4eacbf75043dfd6e8f504e02b9f3231441924854574bd249c036"),
    "S3": (lambda: symmetric_group(3), "7cd856bf4cb7d18a7c95a718bd009b43fd365eec9d6c1023409dba85cf6e207f"),
    "S4": (lambda: symmetric_group(4), "9095f44955ec12dc4d05637f2bde153392c918468b8f9aa696f7c25d730c0cd8"),
    "S5": (lambda: symmetric_group(5), "59a67f8ee1490717b8164005ee17397b0fa05ac3f72b2ad29ce126e53bc5fd9b"),
    "S6": (lambda: symmetric_group(6), "7a15d35854b7c23b5b3a81ce649458e815c32f0a25370845c6d8eeb967b09605"),
    "C1": (lambda: cyclic_group(1), "e539ea92a0001826e3e99a5d9584b6a8c80b7928b9cd9c2eefe331083eb44446"),
    "C2": (lambda: cyclic_group(2), "053b1ae9a5037649c52669f63bce02c3ec03d3d682f34540f93dc8c62fcb2d77"),
    "C3": (lambda: cyclic_group(3), "329e8aea0a0b2cf63a8351bed876b7807c90597f196cdf8bcf1b2dea3e156a75"),
    "C8": (lambda: cyclic_group(8), "f1d7a58f9cbfe8a268c51f92d570ace5c3da639d17260b1ed82e781332c1f281"),
    "C12": (lambda: cyclic_group(12), "914eb925850653fce8374ab8ceda4fbb054ad57548bd1715c5e5b2bbde316c20"),
    "C1024": (lambda: cyclic_group(1024), "384e2a15656690da01f8e49f00b5fd536fc96551bd3d3a9d7a680b84f00d1abc"),
    "D1": (lambda: dihedral_group(1), "5e68ee685374ee7ef9605091452dbb241a3232f865f1ef36e0d11d26941354fd"),
    "D2": (lambda: dihedral_group(2), "d05b695f3a372061d9a0b23574154469eba08e4a513f6df1ecce0a379b1a8715"),
    "D3": (lambda: dihedral_group(3), "c7a86ca94dfacd117bf2bbcbd4eaa1c5b684f9b58789da43766b07b563147fc4"),
    "D4": (lambda: dihedral_group(4), "a24a337a5bb083ba892d134b489d59cc1a81f14e19eaa3e5056ccaba01631abb"),
    "D7": (lambda: dihedral_group(7), "c875b9a451cb0b8fa41cc63e720bb94cd257f14e59547c14b0150970ce699d65"),
    "D512": (lambda: dihedral_group(512), "2dec4b0d9c3c8d15fd2caff07247e92c49044228e019ea6c3e85508386af2448"),
    "Q8": (quaternion_group, "428611f7074550cdb9b932585f500cfde7bfb6bca06c2222fa7f7aaa042eb378"),
    "C2xC3": (
        lambda: direct_product(_c2(), cyclic_group(3)),
        "5d93fdda0fb0844f8c2e686e51752d7c60ce8fa094cf527ba79e7cee4bcaa00a",
    ),
    "Q8xC2": (
        lambda: direct_product(quaternion_group(), _c2()),
        "4c300193f2f6e56e44cecce8cdddf194a62df528756e1a7365b64a358ce34ddb",
    ),
    "C2xC512": (
        lambda: direct_product(_c2(), cyclic_group(512)),
        "0464f19311744eca6359a00aae66521e344fa1a9e3922ba2102315c3e65b6ac2",
    ),
    "S3xD4": (
        lambda: direct_product(symmetric_group(3), dihedral_group(4)),
        "a355500c0d9cf4790086c05a31ea06cbb651ecf2ff07ad12aee993152792ac85",
    ),
    "C2xC2xD128": (
        lambda: direct_product(direct_product(_c2(), _c2()), dihedral_group(128)),
        "722a420c5900331e17a37187afaa44eb2762a0b84cbaedcfc01f00602c576815",
    ),
    "C8:C2": (
        lambda: semidirect_product(cyclic_group(8), _c2(), _inversion(8)),
        "bea32f98981701e3f6070cf07797f055850695de6c5ddb5559ad310cc6f25e77",
    ),
    "C3xC3:C2": (
        lambda: semidirect_product(
            direct_product(cyclic_group(3), cyclic_group(3)),
            _c2(),
            [tuple(range(9)), tuple((x % 3) * 3 + x // 3 for x in range(9))],
        ),
        "21075af15fd078f95dbb46ea42141b42390a1a9ae5f808aad49f9f7c8047df4a",
    ),
    "C4:C4": (
        lambda: semidirect_product(cyclic_group(4), cyclic_group(4), lambda a: _inversion(4)[a % 2]),
        "fb22c483c343346d692ba2740d7a4fa564e17464beb8976dfe8eb51207292688",
    ),
    "C512:C2": (
        lambda: semidirect_product(cyclic_group(512), _c2(), _inversion(512)),
        "b7f3792d609eba03dcd5249632b2af96d829c5ae5c30eb6283c31776ca79a6d8",
    ),
    "perm24": (
        lambda: from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)]),
        "80fcbe40fe3cc40b59abced7bd98c56361eb614c45fb0762d75caef669070e05",
    ),
    # degrees 20, 17 and 40: base-d keys past int64, so the digits go in
    # chunks, and at degree 40 two chunks of eleven digits each
    "perm20": (
        lambda: from_permutations([tuple((i + 1) % 20 for i in range(20))]),
        "c953e79433eb1880cd246dbe495c69cf3a244b9ee0e5f695b58a0872690dacc6",
    ),
    "perm34": (
        lambda: from_permutations(
            [tuple((i + 1) % 17 for i in range(17)), tuple((-i) % 17 for i in range(17))]
        ),
        "dc8c195a8b13fe5a871638f76e6039f13367637b2e090c0939b74167f29380a8",
    ),
    "perm80": (
        lambda: from_permutations(
            [tuple((i + 1) % 40 for i in range(40)), tuple((-i) % 40 for i in range(40))]
        ),
        "567a9ea6ce75b6ae02bdf3a0975e79609a04c066d3821fc1c4cc73a3b7cd55a7",
    ),
    "perm1": (
        lambda: from_permutations([], degree=3),
        "a75a105ea51af99ead44db2c3a2181f6d435b199f0b61beed70b4e2dd93ef2a6",
    ),
}


def _reference_element_orders(mul_np, identity):
    """Element orders by one gather per power, all elements at once."""
    n = mul_np.shape[0]
    g = x = np.arange(n)
    orders, alive = np.ones_like(g), g != identity
    while alive.any():
        orders += alive
        x = mul_np[x, g]  # x = g^k
        alive &= x != identity
    return orders


@pytest.mark.parametrize("name", list(CONSTRUCTOR_PINS))
def test_element_orders_and_inverse_array_match_references(name):
    g = CONSTRUCTOR_PINS[name][0]()
    orders = g.element_orders
    assert orders.dtype == np.int64
    assert np.array_equal(orders, _reference_element_orders(g.mul_np, g.identity))
    assert g.inv_np.dtype == np.int64 and g.inv_np.tolist() == list(g.inv)
    assert (g.mul_np[np.arange(g.order), g.inv_np] == g.identity).all()
    with pytest.raises(ValueError):
        g.inv_np[0] = 0


@pytest.mark.parametrize("name", ["s4", "d4", "q8", "c12", "c2xc6"])
def test_span_is_a_proven_small_generating_set(request, name):
    g = request.getfixturevalue(name)
    for k in all_subgroups(g):
        span = k._span
        assert closure(g, span.tolist()).elements == k.elements
        assert 2 ** span.size <= k.order
        with pytest.raises(ValueError):
            span[:1] = 0


def test_span_of_an_unclosed_subset_is_a_violation(s3):
    # growth from (12) and (123) reaches all of S3, not the three elements
    raw = Subgroup(s3, tuple(sorted((s3.identity, s3.idx("(12)"), s3.idx("(123)")))), ())
    with pytest.raises(InvariantViolation, match="spanning set does not reach exactly"):
        raw._span
    with pytest.raises(InvariantViolation):
        Subgroup(s3, (s3.idx("(12)"),), ())._span  # no identity


def _reference_closure(parent, seed):
    """closure by breadth-first search: every reached element times every
    seed element, the generators the sorted distinct seed."""
    gens = sorted(set(int(x) for x in seed))
    seen = {parent.identity}
    frontier = [parent.identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = parent.mul[x][g]
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return tuple(sorted(seen)), tuple(gens)


@pytest.mark.parametrize("name", ["s4", "d4", "q8", "c2xc6"])
def test_closure_matches_breadth_first_reference(request, name):
    # every seed pair of the lattice: H1 with H2, as Prop 4.3 seeds <H1 H2>,
    # and K with one more element g, as the lattice search seeds <K, g>
    g = request.getfixturevalue(name)
    subs = all_subgroups(g)
    seeds = [h1.elements + h2.elements for h1 in subs for h2 in subs]
    seeds += [k.elements + (x,) for k in subs for x in range(g.order)]
    for seed in seeds:
        s = closure(g, seed)
        assert (s.elements, s.generators) == _reference_closure(g, seed)


@pytest.mark.parametrize("name", ["s4", "d4", "q8", "c2xc6"])
def test_closure_of_whole_subgroups_takes_few_seeds(request, name, monkeypatch):
    # a seed that is all of H1 and H2 costs what a few generators cost: the
    # walk takes at most log2 |<H1 H2>| of the seeds
    g = request.getfixturevalue(name)
    real = groups_module._spanning_set
    taken = []

    def spy(mul, identity, candidates, check=None):
        out = real(mul, identity, candidates, check)
        taken.append(len(out[0]))
        return out

    monkeypatch.setattr(groups_module, "_spanning_set", spy)
    subs = all_subgroups(g)
    for h1 in subs:
        for h2 in subs:
            del taken[:]
            s = closure(g, h1.elements + h2.elements)
            assert len(taken) == 1 and 2 ** taken[0] <= s.order


@pytest.mark.parametrize("name", list(CONSTRUCTOR_PINS))
def test_constructor_tables_are_pinned(name):
    build, digest = CONSTRUCTOR_PINS[name]
    g = build()
    h = hashlib.sha256(repr((g.name, g.labels)).encode())
    h.update(g.mul_np.tobytes())
    assert (g.name, h.hexdigest()) == (name, digest)


C4_INVERSION = _inversion(4)


@pytest.mark.parametrize(
    ("acting", "action", "message"),
    [
        (_c2, [C4_INVERSION[0], (0, 3, 2)], "action of a is not a bijection"),
        (_c2, [C4_INVERSION[0], (0, 3, 2, 4)], "action of a is not a bijection"),
        (_c2, [C4_INVERSION[0], (0, 3, 2, 2**70)], "action of a is not a bijection"),
        (_c2, [C4_INVERSION[0], (1, 0, 2, 3)], "action of a is not an automorphism"),
        (_c2, [C4_INVERSION[1]] * 2, "identity of A must act trivially"),
        # a^3 = e, but a acting by inversion would need a^3 to act by inversion
        (lambda: cyclic_group(3), [C4_INVERSION[0], C4_INVERSION[1], C4_INVERSION[0]],
         "action is not a homomorphism"),
        # the first failing element of A is named, whichever check it fails
        (lambda: cyclic_group(3), [C4_INVERSION[0], (1, 0, 2, 3), (0, 1, 2)],
         "action of a is not an automorphism"),
        (lambda: cyclic_group(3), [C4_INVERSION[0], (0, 1, 2), (1, 0, 2, 3)],
         "action of a is not a bijection"),
        (lambda: cyclic_group(3), [C4_INVERSION[0], (1, 0, 2, 3), (0, 1, 3, 2)],
         "action of a is not an automorphism"),
    ],
    ids=[
        "short-row", "out-of-range", "past-int64", "not-automorphism", "identity-moves",
        "not-homomorphism", "automorphism-first", "bijection-first", "two-automorphisms",
    ],
)
def test_semidirect_rejections_name_the_first_failure(acting, action, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        semidirect_product(cyclic_group(4), acting(), action)


@pytest.mark.parametrize(
    ("labels", "message"),
    [
        (["(23)", "(12)"], "subgroup must contain the identity"),
        (["e", "(123)"], "not inverse-closed at (123)"),
        (["e", "(23)", "(12)"], "not closed: (23)*(12) escapes"),
        # (23) escapes by its row before (123) fails its inverse
        (["e", "(23)", "(123)"], "not closed: (23)*(123) escapes"),
    ],
)
def test_subgroup_validation_names_the_first_escape(s3, labels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        subgroup_from_elements(s3, [s3.idx(s) for s in labels])


@given(st.data())
def test_group_axioms_hold_on_table(data):
    g = data.draw(
        st.sampled_from(
            [cyclic_group(5), symmetric_group(3), dihedral_group(4)]
        )
    )
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    z = data.draw(st.integers(0, g.order - 1))
    assert g.op(g.op(x, y), z) == g.op(x, g.op(y, z))
    assert g.op(x, g.identity) == x
    assert g.op(g.inverse(x), x) == g.identity
    assert g.power(x, g.element_order(x)) == g.identity


@given(st.data())
def test_conjugation_preserves_order(data):
    g = symmetric_group(4)
    x = data.draw(st.integers(0, 23))
    y = data.draw(st.integers(0, 23))
    assert g.element_order(g.conjugate(y, x)) == g.element_order(x)


@pytest.mark.parametrize(
    ("cached", "fill"),
    [
        (character_group, lambda g: character_group(full_subgroup(g))),
        (_all_subgroups_cached, all_subgroups),
        (g_k_rho, lambda g: g_k_rho(full_subgroup(g), character_group(full_subgroup(g))[0])),
        (
            _n_k_rho_masks,
            lambda g: _n_k_rho_masks(full_subgroup(g), character_group(full_subgroup(g))[0]),
        ),
    ],
    ids=["character_group", "all_subgroups", "g_k_rho", "n_k_rho_masks"],
)
def test_group_keyed_caches_are_bounded(cached, fill):
    # each fresh group is a new key; the oldest entries must give way
    bound = cached.cache_info().maxsize
    assert bound is not None
    for _ in range(bound + 1):
        fill(cyclic_group(2))
    assert cached.cache_info().currsize <= bound


def test_permutation_closure_stops_past_its_cap():
    gens = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]
    assert len(_permutation_closure(gens, 7)) == 5040
    assert len(_permutation_closure(gens, 7, 1024)) == 1025
    assert _permutation_closure([], 3) == {(0, 1, 2)}
