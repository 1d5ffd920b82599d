"""Invariance subgroups, gamma structure, local unitaries, exponentials."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from idemconv import _kernel, cyclo, measure_groups, measures
from idemconv import (
    CycloScalar,
    Measure,
    adjoint,
    all_subgroups,
    char_idem,
    character_group,
    classify_pair,
    closure,
    convolve,
    cyclic_group,
    dirac,
    direct_product,
    full_subgroup,
    g_k_rho,
    gamma_elements,
    haar,
    intersection,
    is_local_unitary,
    kernel,
    n_k_rho,
    normalizer,
    nu_u,
    omega_class_count,
    exp_skew,
    run_suite,
    symmetric_group,
    trivial_subgroup,
    verify_prop_43,
)
from idemconv.cyclo import field_tables, multiply_rows
from idemconv.errors import InvariantViolation, PreconditionError
from idemconv.measure_groups import (
    Prop43Report,
    _coset_unit_multiples,
    _item,
    _right_translates,
    _span,
    exp_char_diagonal,
    unit_multiple,
)
from idemconv.measures import FloatMeasure
from idemconv.suite import _g18


def trivial_char(sub):
    return character_group(sub)[0]


def test_trivial_pair_has_full_invariance(s3):
    t = trivial_subgroup(s3)
    assert g_k_rho(t, trivial_char(t)) == full_subgroup(s3)
    assert n_k_rho(t, trivial_char(t)) == full_subgroup(s3)


def test_full_group_invariance(s3):
    full = full_subgroup(s3)
    assert g_k_rho(full, trivial_char(full)) == full
    assert n_k_rho(full, trivial_char(full)) == full


def test_g_is_contained_in_n(s4):
    # G_{K,rho} fixes the idempotent by translation; N_{K,rho} only
    # normalizes the pair, so G sits inside N
    from idemconv import all_subgroups

    for k in all_subgroups(s4):
        if k.order > 8:
            continue
        for chi in character_group(k):
            g = g_k_rho(k, chi)
            n = n_k_rho(k, chi)
            assert set(g.elements) <= set(n.elements)


def _reference_g_k_rho(k, rho):
    """G_{K,rho} by definition: one translate pair compared per g."""
    base = char_idem(k, rho)
    return tuple(
        g
        for g in range(k.parent.order)
        if base.translate_left(g) == base.translate_right(g)
    )


def _items(g):
    return [(k, chi) for k in all_subgroups(g) for chi in character_group(k)]


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8", "g18"])
def test_g_k_rho_matches_translate_definition(name, request):
    for k, chi in _items(request.getfixturevalue(name)):
        assert g_k_rho(k, chi).elements == _reference_g_k_rho(k, chi)


def test_g_k_rho_matches_translate_definition_s5_sample(s5):
    for k, chi in random.Random(9).sample(_items(s5), 60):
        assert g_k_rho(k, chi).elements == _reference_g_k_rho(k, chi)


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8", "g18"])
def test_n_k_rho_matches_normalizer_intersection(name, request):
    for k, chi in _items(request.getfixturevalue(name)):
        assert n_k_rho(k, chi) == intersection(normalizer(k), normalizer(kernel(chi)))


def test_g_k_rho_cache_is_keyed_by_group_object():
    # equal-looking items of two S4 instances are two entries, each answered
    # in its own group, and a repeat call returns the cached subgroup
    before = g_k_rho.cache_info()
    groups = (symmetric_group(4), symmetric_group(4))
    items = [(k, trivial_char(k)) for k in (closure(g, [g.idx("(12)")]) for g in groups)]
    first = [g_k_rho(*item) for item in items]
    assert [gk.parent for gk in first] == list(groups)
    assert first[0].elements == first[1].elements and first[0] != first[1]
    assert all(g_k_rho(*item) is gk for item, gk in zip(items, first))
    after = g_k_rho.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 2)


def test_g_k_rho_rejects_a_character_off_k_on_every_call(s4):
    k = closure(s4, [s4.idx("(12)")])
    other = closure(s4, [s4.idx("(34)")])
    twin = symmetric_group(4)
    twin_k = closure(twin, [twin.idx("(12)")])
    for rho in (character_group(other)[1], character_group(twin_k)[1]):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                g_k_rho(k, rho)


def test_g_k_rho_cache_stays_under_its_bound_over_the_suite():
    g_k_rho.cache_clear()
    run_suite()
    info = g_k_rho.cache_info()
    assert 0 < info.currsize < info.maxsize


def test_g_k_rho_quotient_check_survives_optimize(run_optimized):
    # a commutator path that loses elements must be caught: for the trivial
    # pair on S3 the direct definition gives all of S3, while a commutator
    # test over a corrupted N_{K,rho} = {e} keeps only the identity
    run_optimized(
        "import idemconv.measure_groups as mg\n"
        "from idemconv import character_group, symmetric_group, trivial_subgroup\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(3)\n"
        "t = trivial_subgroup(g)\n"
        "real = mg._n_k_rho_masks\n"
        "def corrupted(k, rho):\n"
        "    in_n, centralizes = real(k, rho)\n"
        "    only_e = in_n & False\n"
        "    only_e[k.parent.identity] = True\n"
        "    return only_e, centralizes\n"
        "mg._n_k_rho_masks = corrupted\n"
        "try:\n"
        "    mg.g_k_rho(t, character_group(t)[0])\n"
        "except InvariantViolation as exc:\n"
        "    raise SystemExit(0 if 'quotient' in str(exc) else 3)\n"
        "raise SystemExit(1)\n"
    )


def test_invariance_via_translation(d4):
    # x in G_{K,rho} iff delta_x * m is a unimodular multiple of m
    rot = closure(d4, [d4.idx("r")])
    chi = [c for c in character_group(rot) if c.rotation(d4.idx("r")) == Fraction(1, 4)][0]
    m = char_idem(rot, chi)
    g = g_k_rho(rot, chi)
    for x in range(d4.order):
        trans = convolve(dirac(d4, x), m)
        scaled = any(
            trans == m * CycloScalar.root_of_unity(Fraction(j, 8))
            for j in range(8)
        )
        assert (x in set(g.elements)) == scaled


def test_gamma_and_omega_consistency(s3):
    from idemconv import all_subgroups

    for k in all_subgroups(s3):
        for chi in character_group(k):
            gam = gamma_elements(k, chi)
            assert len(gam) == g_k_rho(k, chi).order
            assert omega_class_count(k, chi) >= 1
            for ge in gam:
                assert ge.g in set(g_k_rho(k, chi).elements)


def test_prop_43_dihedral_pair(d4):
    k1 = closure(d4, [d4.idx("r^2")])
    k2 = closure(d4, [d4.idx("r")])
    ch1 = [c for c in character_group(k1) if not c.is_trivial][0]
    ch2 = [c for c in character_group(k2) if c.rotation(d4.idx("r")) == Fraction(1, 4)][0]
    rep = verify_prop_43(k1, ch1, k2, ch2)
    assert rep.passed
    assert (rep.k12.order, rep.h1.order, rep.h2.order) == (4, 4, 4)
    assert rep.span.order == 4
    assert rep.gamma_group.order == 4
    assert not rep.proper_inclusion
    assert rep.forward_pairs == 32
    assert rep.forward_realized == 16
    assert rep.reverse_realized == 4


def test_prop_43_trivial_characters(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    rep = verify_prop_43(k1, trivial_char(k1), k2, trivial_char(k2))
    assert rep.passed
    assert rep.k12.order == 6


def test_nu_u_reproduces_units():
    c4 = cyclic_group(4)
    full = full_subgroup(c4)
    chars = character_group(full)
    u = {chi: CycloScalar.root_of_unity(Fraction(i, 4)) for i, chi in enumerate(chars)}
    nu = nu_u(c4, u)
    # evaluating each character against nu returns the chosen unit
    for chi, unit in u.items():
        paired = CycloScalar.zero()
        for g in range(4):
            paired = paired + nu.coeff(g) * chi.value(g)
        assert paired == unit
    t = trivial_subgroup(c4)
    assert is_local_unitary(nu, t, trivial_char(t))


def test_nu_u_multiplicative():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    full = full_subgroup(g)
    chars = character_group(full)
    u1 = {chi: CycloScalar.root_of_unity(Fraction(i, 6)) for i, chi in enumerate(chars)}
    u2 = {chi: CycloScalar.root_of_unity(Fraction((i * i) % 6, 6)) for i, chi in enumerate(chars)}
    u12 = {chi: u1[chi] * u2[chi] for chi in chars}
    assert convolve(nu_u(g, u1), nu_u(g, u2)) == nu_u(g, u12)


def test_nu_u_identity_choice_is_dirac():
    c4 = cyclic_group(4)
    chars = character_group(full_subgroup(c4))
    nu = nu_u(c4, {chi: CycloScalar.one() for chi in chars})
    assert nu == dirac(c4, 0)


def random_skew(g, rng):
    while True:
        acc = Measure.zero(g)
        for x in range(g.order):
            if rng.random() < 0.5:
                continue
            c = CycloScalar.root_of_unity(Fraction(rng.randint(0, 11), 12))
            acc = acc + dirac(g, x) * c * Fraction(rng.randint(-2, 2), rng.randint(2, 4))
        lam = acc - adjoint(acc)
        if not lam.is_zero():
            return lam


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_exp_skew_unitary(s3, seed):
    rng = random.Random(seed)
    lam = random_skew(s3, rng)
    assert adjoint(lam) == -lam
    fm = exp_skew(lam)
    ident = FloatMeasure.from_measure(dirac(s3, 0))
    assert fm.adjoint().convolve(fm).distance(ident) < 1e-9


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_exp_skew_matches_abelian_oracle(seed):
    c3 = cyclic_group(3)
    rng = random.Random(seed)
    lam = random_skew(c3, rng)
    fm = exp_skew(lam)
    oracle = exp_char_diagonal(lam)
    assert fm.distance(oracle) < 1e-9


def test_exp_skew_zero_is_identity(s3):
    fm = exp_skew(Measure.zero(s3))
    assert fm.distance(FloatMeasure.from_measure(dirac(s3, 0))) == 0.0


def test_exp_char_diagonal_requires_abelian(s3):
    lam = dirac(s3, 1) - adjoint(dirac(s3, 1))
    with pytest.raises(Exception):
        exp_char_diagonal(lam)


def _reference_prop_43(k1, rho1, k2, rho2):
    """verify_prop_43 by definition: one convolution per (g1, g2) pair."""
    verdict = classify_pair(k1, rho1, k2, rho2)
    if verdict.kind != "commute":
        raise PreconditionError(
            f"pair does not satisfy the commuting case (got {verdict.kind})"
        )
    k12 = verdict.product_subgroup
    rho12 = verdict.product_character
    parent = k1.parent
    mul = parent.mul

    g_prod = g_k_rho(k12, rho12)
    h1 = intersection(g_k_rho(k1, rho1), g_prod)
    h2 = intersection(g_k_rho(k2, rho2), g_prod)
    span = closure(parent, h1.elements + h2.elements)
    span_set = span.element_set
    g_prod_set = g_prod.element_set

    idem1 = char_idem(k1, rho1)
    idem2 = char_idem(k2, rho2)
    idem12 = char_idem(k12, rho12)

    big1 = g_k_rho(k1, rho1)
    big2 = g_k_rho(k2, rho2)
    pairs = 0
    realized = 0
    for g1 in big1.elements:
        a = idem1.translate_left(g1)
        for g2 in big2.elements:
            pairs += 1
            prod = convolve(a, idem2.translate_left(g2))
            supp = prod.support()
            if len(supp) != k12.order:
                continue
            s = supp[0]
            if sorted(mul[s][x] for x in k12.elements) != list(supp):
                continue
            z = unit_multiple(prod, idem12.translate_left(s))
            if z is None or s not in g_prod_set:
                continue
            realized += 1
            if s not in span_set:
                raise InvariantViolation(
                    "forward inclusion fails: product lands outside <H1 H2>"
                )

    blocks = {}
    for x1 in h1.elements:
        b1 = idem1.translate_left(x1)
        for x2 in h2.elements:
            g = mul[x1][x2]
            if g in blocks:
                continue
            pm = convolve(b1, idem2.translate_left(x2))
            if pm != idem12.translate_left(g):
                raise InvariantViolation(
                    "pair block does not collapse to a translate of rho m_K1K2"
                )
            blocks[g] = pm
    node_measure = {parent.identity: idem12}
    frontier = [parent.identity]
    while frontier:
        nxt = []
        for g in frontier:
            pg = node_measure[g]
            for b, pb in blocks.items():
                t = mul[g][b]
                if t in node_measure:
                    continue
                pt = convolve(pg, pb)
                if pt != idem12.translate_left(t):
                    raise InvariantViolation(
                        "reverse realization produced a non-unit scalar"
                    )
                node_measure[t] = pt
                nxt.append(t)
        frontier = nxt
    if set(node_measure) != span_set:
        raise InvariantViolation("pair blocks fail to reach all of <H1 H2>")

    return Prop43Report(
        k12,
        rho12,
        h1,
        h2,
        span,
        g_prod,
        proper_inclusion=span.order < g_prod.order,
        forward_pairs=pairs,
        forward_realized=realized,
        reverse_realized=len(node_measure),
        passed=True,
    )


def _commuting_pairs(g):
    items = _items(g)
    return [
        a + b for a in items for b in items if classify_pair(*a, *b).kind == "commute"
    ]


@pytest.mark.parametrize("name", ["s3", "q8", "d4"])
def test_prop_43_matches_reference_exhaustive(name, request):
    pairs = _commuting_pairs(request.getfixturevalue(name))
    assert pairs
    for pair in pairs:
        assert verify_prop_43(*pair) == _reference_prop_43(*pair)


def test_prop_43_matches_reference_s4_sample(s4):
    for pair in random.Random(43).sample(_commuting_pairs(s4), 120):
        assert verify_prop_43(*pair) == _reference_prop_43(*pair)


def test_prop_43_matches_reference_g18():
    _, k1, k2, rho1, rho2 = _g18()
    rep = verify_prop_43(k1, rho1, k2, rho2)
    assert rep.proper_inclusion
    assert rep == _reference_prop_43(k1, rho1, k2, rho2)


def _term_products(monkeypatch):
    """The term products of every convolve_exact call: nonzero rows of each
    side times d^2, as the kernel forms them."""
    counts = []
    real = _kernel.convolve_exact

    def spy(mul_rows, mul_np, a_rows, b_rows, red_rows, red_max):
        nnz_a = int((a_rows != 0).any(axis=1).sum())
        nnz_b = int((b_rows != 0).any(axis=1).sum())
        counts.append(nnz_a * nnz_b * red_rows.shape[1] ** 2)
        return real(mul_rows, mul_np, a_rows, b_rows, red_rows, red_max)

    monkeypatch.setattr(_kernel, "convolve_exact", spy)
    return counts


def _exponent_products(monkeypatch):
    """The factors of every exponent-count product verify_prop_43 makes."""
    calls = []
    real = measure_groups._char_idem_product

    def spy(k1, rho1, k2, rho2):
        calls.append((k1, rho1, k2, rho2))
        return real(k1, rho1, k2, rho2)

    monkeypatch.setattr(measure_groups, "_char_idem_product", spy)
    return calls


@pytest.fixture
def clear_items():
    """Empties verify_prop_43's per-item cache now, and on each call, so a
    test's product counts do not depend on the items earlier tests left
    cached in the session-scoped groups."""
    _item.cache_clear()
    return _item.cache_clear


def _cold_and_repeat_calls(monkeypatch, clear_items, pair):
    """The kernel term products and the exponent-count products of
    verify_prop_43 on pair from an empty item cache, then of the same pair
    again, and the two reports."""
    clear_items()
    out = []
    for _ in range(2):
        with monkeypatch.context() as m:
            terms = _term_products(m)
            products = _exponent_products(m)
            rep = verify_prop_43(*pair)
        out.append((terms, products, rep))
    return out


def test_prop_43_matches_reference_dense_s5(s5, monkeypatch, clear_items):
    # A5 (trivial) with <(12)> (sign): K1K2 = S5, G_{A5,1} = S5, so every
    # product has a dense first factor
    a5 = closure(s5, [s5.idx("(123)"), s5.idx("(12345)")])
    k2 = closure(s5, [s5.idx("(12)")])
    sign = next(c for c in character_group(k2) if not c.is_trivial)
    pair = (a5, trivial_char(a5), k2, sign)
    (cold, products, rep), (warm, warm_products, again) = _cold_and_repeat_calls(
        monkeypatch, clear_items, pair
    )
    # no kernel call: cold, the one product rho1 m_K1 * rho2 m_K2, then the
    # square omega * omega, both from exponent counts; a repeat reads the
    # idempotence compare from the item cache
    assert (cold, warm) == ([], [])
    assert products == [pair, (rep.k12, rep.rho12) * 2]
    assert warm_products == products[:1]
    assert rep.k12.order == 120
    assert rep.forward_pairs == 120 * g_k_rho(k2, sign).order
    assert rep == again == _reference_prop_43(*pair)


def test_prop_43_makes_no_kernel_calls(d4, s5, monkeypatch, clear_items):
    # the forward step reads every product off one product and the reverse
    # step every search step off one square, whatever |G_{K2,rho2}|: m_A5
    # with itself has 120 translates and 14,400 realized products.  Both come
    # from exponent counts, not the kernel, and the square is made once per
    # product item, so a repeat makes one product
    a5 = closure(s5, [s5.idx("(123)"), s5.idx("(12345)")])
    one = trivial_char(a5)
    pairs = [(a5, one, a5, one)] + random.Random(45).sample(_commuting_pairs(d4), 20)
    calls, reps = [], []
    for pair in pairs:
        (cold, products, rep), (warm, warm_products, again) = _cold_and_repeat_calls(
            monkeypatch, clear_items, pair
        )
        calls.append((len(cold), len(warm), len(products), len(warm_products)))
        assert rep == again
        reps.append(rep)
    assert calls == [(0, 0, 2, 1)] * len(pairs)
    rep = reps[0]
    assert (rep.forward_pairs, rep.forward_realized, rep.reverse_realized) == (14400, 14400, 120)


def test_prop_43_matches_reference_c3_a5_s5(s5):
    # <(123)> (trivial) with A5 (trivial): G_{A5,1} = S5, so 120 right
    # translates of the one product m_<(123)> * m_A5
    c3 = closure(s5, [s5.idx("(123)")])
    a5 = closure(s5, [s5.idx("(123)"), s5.idx("(12345)")])
    pair = (c3, trivial_char(c3), a5, trivial_char(a5))
    assert verify_prop_43(*pair) == _reference_prop_43(*pair)


def test_prop_43_matches_reference_object_fold(s4, monkeypatch, clear_items):
    # with every exponent fold's bound raised to 2**62, each fold (the
    # products, the squares and the forward tables' rotations) runs on
    # Python ints (test_cyclo's tier test); the reports must not change
    pairs = random.Random(44).sample(_commuting_pairs(s4), 12)
    want = [_reference_prop_43(*pair) for pair in pairs]
    clear_items()
    folds = []
    real = cyclo._fold_exponents

    def wide(counts, n, bound):
        folds.append(n)
        return real(counts, n, max(bound, cyclo.INT64_LIMIT))

    monkeypatch.setattr(measures, "_fold_exponents", wide)
    monkeypatch.setattr(measure_groups, "_fold_exponents", wide)
    assert [verify_prop_43(*pair) for pair in pairs] == want
    # one product per pair; per distinct product item a square and a table
    products = {(rep.k12, rep.rho12) for rep in want}
    assert len(folds) == len(pairs) + 2 * len(products)


def test_prop_43_item_cache_is_keyed_by_group_object():
    # as for g_k_rho: equal-looking items of two S4 instances are two
    # entries, each built in its own group, and a repeat is a hit
    before = _item.cache_info()
    groups = (symmetric_group(4), symmetric_group(4))
    items = [(k, trivial_char(k)) for k in (closure(g, [g.idx("(12)")]) for g in groups)]
    first = [_item(*item) for item in items]
    assert [it.omega.parent for it in first] == list(groups)
    assert [it.gamma.parent for it in first] == list(groups)
    assert first[0] is not first[1]
    assert all(_item(*item) is it for item, it in zip(items, first))
    after = _item.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 2)


def test_prop_43_item_cache_stays_under_its_bound_over_the_suite():
    _item.cache_clear()
    run_suite()
    info = _item.cache_info()
    assert 0 < info.currsize < info.maxsize


def test_prop_43_span_cache_is_keyed_by_group_object():
    # as for _item: equal-looking triples of two S4 instances are two
    # entries, each built in its own group, and a repeat is a hit
    before = _span.cache_info()
    groups = (symmetric_group(4), symmetric_group(4))
    triples = []
    for g in groups:
        k = closure(g, [g.idx("(12)")])
        big = g_k_rho(k, trivial_char(k))
        triples.append((big, big, full_subgroup(g)))
    first = [_span(*triple) for triple in triples]
    assert [span.parent for _, _, span, _ in first] == list(groups)
    assert first[0][2].elements == first[1][2].elements
    assert first[0][2] != first[1][2]
    assert all(_span(*triple) is got for triple, got in zip(triples, first))
    after = _span.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 2)


@pytest.mark.parametrize("name", ["d4", "s4"])
def test_prop_43_span_cache_matches_a_fresh_build(name, request):
    # over every commuting pair, the cached H1, H2 and <H1 H2> equal an
    # intersection and closure made from scratch, and the cache builds once
    # per distinct (G_{K1,rho1}, G_{K2,rho2}, G_{K1K2,rho}) triple
    pairs = _commuting_pairs(request.getfixturevalue(name))
    _span.cache_clear()
    triples = set()
    for pair in pairs:
        rep = verify_prop_43(*pair)
        big1, big2 = g_k_rho(*pair[:2]), g_k_rho(*pair[2:])
        triples.add((big1, big2, rep.gamma_group))
        h1 = intersection(big1, rep.gamma_group)
        h2 = intersection(big2, rep.gamma_group)
        assert (rep.h1, rep.h2) == (h1, h2)
        assert rep.span == closure(h1.parent, h1.elements + h2.elements)
        assert rep.reverse_realized == rep.span.order
    info = _span.cache_info()
    assert info.misses == info.currsize == len(triples)
    assert info.hits == len(pairs) - len(triples) > 0


def test_prop_43_span_cache_stays_under_its_bound_over_the_suite():
    _span.cache_clear()
    run_suite()
    info = _span.cache_info()
    assert 0 < info.currsize < info.maxsize


@pytest.mark.parametrize("name", ["s4", "d4"])
def test_idempotence_compare_holds_for_every_item(name, request):
    # the reverse step reads omega * omega = omega off the item; it is a
    # bool, and true for every (K, rho) item
    for k, chi in _items(request.getfixturevalue(name)):
        assert _item(k, chi).idempotent is True


def test_prop_43_peak_memory_on_c128(clear_items):
    # the full C128 with a conductor-128 character and the trivial item:
    # G_{K1K2,rho} is all of C128, so a stack of its translates of omega,
    # 128 x 128 x 64 integers, is 8 MB a copy; the reverse step makes none
    g = cyclic_group(128)
    full = full_subgroup(g)
    chi = max(character_group(full), key=lambda c: c.conductor)
    t = trivial_subgroup(g)
    assert chi.conductor == 128
    g_k_rho.cache_clear()
    clear_items()
    tracemalloc.start()
    try:
        rep = verify_prop_43(full, chi, t, trivial_char(t))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.reverse_realized, rep.forward_realized) == (128, 128 * 128)
    assert peak < 24 * 2**20


def _sample_commuting_pairs(g, count, seed):
    """Rejection-sample ordered commuting pairs of (subgroup, character) items."""
    items = _items(g)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = items[rng.randrange(len(items))], items[rng.randrange(len(items))]
        if classify_pair(*a, *b).kind == "commute":
            out.append(a + b)
    return out


@pytest.mark.parametrize("name, count", [("s4", 20), ("s5", 16)])
def test_reverse_step_square_matches_block_convolution(name, count, request):
    # verify_prop_43 takes omega * block_b as (omega * omega) * delta_b for
    # every block index b in G_{K1K2,rho}, where block_b = delta_b * omega
    for pair in _sample_commuting_pairs(request.getfixturevalue(name), count, 9):
        v = classify_pair(*pair)
        omega = char_idem(v.product_subgroup, v.product_character)
        sq = convolve(omega, omega)
        for b in g_k_rho(v.product_subgroup, v.product_character).elements:
            lhs = sq.translate_right(b)
            rhs = convolve(omega, omega.translate_left(b))
            assert (lhs.num, lhs.den, lhs.conductor) == (rhs.num, rhs.den, rhs.conductor)


def _random_measure(g, rng, conductor):
    coeffs = []
    for _ in range(g.order):
        if rng.random() < 0.4:
            coeffs.append(0)
            continue
        z = CycloScalar.root_of_unity(Fraction(rng.randrange(conductor), conductor))
        coeffs.append(z * Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
    return Measure.from_coeffs(g, coeffs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_convolution_commutes_with_translation_bit_for_bit(s4, seed):
    # verify_prop_43 reads delta_g * (a * b) off a * b as a translate; the
    # translate must be the very Measure convolution would have produced
    rng = random.Random(seed)
    for _ in range(4):
        a = _random_measure(s4, rng, rng.choice([1, 3, 4, 8, 12]))
        b = _random_measure(s4, rng, rng.choice([1, 3, 4, 8, 12]))
        g = rng.randrange(s4.order)
        for lhs, rhs in (
            (convolve(a.translate_left(g), b), convolve(a, b).translate_left(g)),
            (convolve(a, b.translate_right(g)), convolve(a, b).translate_right(g)),
        ):
            assert (lhs.num, lhs.den, lhs.conductor) == (rhs.num, rhs.den, rhs.conductor)


def _reference_hits(prod, k12, idem12):
    """c[g2]'s forward test as unit_multiple decides it: (s0, hit)."""
    supp = prod.support()
    if not supp:
        return None, False
    s0 = supp[0]
    if sorted(k12.parent.mul[s0][x] for x in k12.elements) != list(supp):
        return s0, False
    return s0, unit_multiple(prod, idem12.translate_left(s0)) is not None


@pytest.mark.parametrize("name, count", [("s4", 40), ("s5", 12)])
def test_coset_unit_multiples_match_unit_multiple(name, count, request):
    g = request.getfixturevalue(name)
    hits = 0
    for k1, rho1, k2, rho2 in _sample_commuting_pairs(g, count, 14):
        v = classify_pair(k1, rho1, k2, rho2)
        k12, rho12 = v.product_subgroup, v.product_character
        idem1, idem2 = char_idem(k1, rho1), char_idem(k2, rho2)
        idem12 = char_idem(k12, rho12)
        g2s = g_k_rho(k2, rho2).elements_np
        p12 = convolve(idem1, idem2)
        prods, den, n = _right_translates(p12, g2s), p12.den, p12.conductor
        s0, hit = _coset_unit_multiples(prods, den, n, k12, rho12)
        for j, g2 in enumerate(g2s):
            prod = convolve(idem1, idem2.translate_left(g2))
            built = Measure._build(g, n, prods[j], den)
            assert (built.num, built.den, built.conductor) == (prod.num, prod.den, prod.conductor)
            want_s0, want_hit = _reference_hits(prod, k12, idem12)
            assert bool(hit[j]) == want_hit
            if want_s0 is not None:
                assert s0[j] == want_s0
            hits += want_hit
    assert hits


def test_coset_unit_multiples_reject_near_misses(d4):
    # stacks with the right coset support that are no unit multiple, a
    # multiple that spills off the coset, and a zero product, beside true
    # multiples by the units -1 and i
    k1 = closure(d4, [d4.idx("r^2")])
    k2 = closure(d4, [d4.idx("r")])
    rho1 = next(c for c in character_group(k1) if not c.is_trivial)
    rho2 = next(c for c in character_group(k2) if c.rotation(d4.idx("r")) == Fraction(1, 4))
    v = classify_pair(k1, rho1, k2, rho2)
    k12, rho12 = v.product_subgroup, v.product_character
    idem1, idem2 = char_idem(k1, rho1), char_idem(k2, rho2)
    p12 = convolve(idem1, idem2)
    prods = _right_translates(p12, g_k_rho(k2, rho2).elements_np)
    den, n = p12.den, p12.conductor
    _, hit = _coset_unit_multiples(prods, den, n, k12, rho12)
    p = prods[int(hit.argmax())]
    assert hit.any() and n == 4
    supp = p.any(axis=1).nonzero()[0]
    bent = p.copy()
    bent[supp[-1]] *= 2
    spilled = p.copy()
    spilled[np.flatnonzero(~p.any(axis=1))[-1]] = p[supp[0]]
    times_i = multiply_rows(p, field_tables(n).pow_rows[1], n)
    stack = np.stack([2 * p, bent, spilled, np.zeros_like(p), -p, times_i, p])
    _, hit = _coset_unit_multiples(stack, den, n, k12, rho12)
    assert hit.tolist() == [False] * 4 + [True] * 3
    idem12 = char_idem(k12, rho12)
    for rows, want in zip(stack, hit):
        prod = Measure._build(d4, n, rows, den)
        assert _reference_hits(prod, k12, idem12)[1] == want


def _product_items(pairs):
    """The distinct product items (K1K2, rho12) of commuting pairs, in order."""
    out = {}
    for pair in pairs:
        v = classify_pair(*pair)
        out.setdefault((v.product_subgroup, v.product_character), None)
    return list(out)


@pytest.mark.parametrize("name, count", [("s4", None), ("d4", None), ("s5", 24)])
def test_forward_table_matches_every_right_translate(name, count, request):
    # the product item's table tests one right translate omega * delta_r per
    # right coset K r; at every g it must give what _coset_unit_multiples
    # gives on omega * delta_g itself
    g = request.getfixturevalue(name)
    pairs = _commuting_pairs(g) if count is None else _sample_commuting_pairs(g, count, 28)
    every = np.arange(g.order)
    hits = 0
    for k, rho in _product_items(pairs):
        item = _item(k, rho)
        s0, hit = item.forward
        assert not s0.flags.writeable and not hit.flags.writeable
        omega = item.omega
        want_s0, want_hit = _coset_unit_multiples(
            _right_translates(omega, every), omega.den, omega.conductor, k, rho
        )
        assert s0.tolist() == want_s0.tolist()
        assert hit.tolist() == want_hit.tolist()
        hits += int(hit.sum())
    assert hits


def test_forward_table_stacks_one_translate_per_right_coset(
    d4, s5, monkeypatch, clear_items
):
    # one stack per product item, of |G| / |K1K2| translates, however large
    # G_{K2,rho2} is
    stacks = []
    real = measure_groups._coset_unit_multiples

    def spy(prods, den, n, k12, rho12):
        stacks.append((len(prods), k12.parent.order // k12.order))
        return real(prods, den, n, k12, rho12)

    monkeypatch.setattr(measure_groups, "_coset_unit_multiples", spy)
    pairs = random.Random(46).sample(_commuting_pairs(d4), 20)
    pairs += _sample_commuting_pairs(s5, 12, 29)
    for pair in pairs:
        verify_prop_43(*pair)
    assert len(stacks) == len(_product_items(pairs))
    assert all(size == cosets for size, cosets in stacks)


def test_forward_inclusion_survives_optimize(run_optimized):
    # two point masses at e: every delta_{g1} * delta_{g2} is realized, so
    # a span too small for the translation parts must be reported
    run_optimized(
        "import idemconv.measure_groups as mg\n"
        "from idemconv import character_group, symmetric_group, trivial_subgroup\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(3)\n"
        "t = trivial_subgroup(g)\n"
        "rho = character_group(t)[0]\n"
        "mg.closure = lambda parent, seed: trivial_subgroup(parent)\n"
        "try:\n"
        "    mg.verify_prop_43(t, rho, t, rho)\n"
        "except InvariantViolation as exc:\n"
        "    raise SystemExit(0 if 'forward inclusion' in str(exc) else 3)\n"
        "raise SystemExit(1)\n"
    )


def _corrupted_prop_43(patch, message):
    """Code for run_optimized: verify_prop_43 on a D4 pair after patch; it
    exits 0 when the InvariantViolation raised names message."""
    return (
        "from fractions import Fraction\n"
        "import idemconv.measure_groups as mg\n"
        "from idemconv import character_group, closure, dihedral_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = dihedral_group(4)\n"
        "k1 = closure(g, [g.idx('r^2')])\n"
        "k2 = closure(g, [g.idx('r')])\n"
        "rho1 = next(c for c in character_group(k1) if not c.is_trivial)\n"
        "rho2 = next(c for c in character_group(k2)"
        " if c.rotation(g.idx('r')) == Fraction(1, 4))\n"
        + patch
        + "try:\n"
        "    mg.verify_prop_43(k1, rho1, k2, rho2)\n"
        "except InvariantViolation as exc:\n"
        f"    raise SystemExit(0 if {message!r} in str(exc) else 3)\n"
        "raise SystemExit(1)\n"
    )


def _corrupted_product(square: bool) -> str:
    """Code for _corrupted_prop_43: mg._char_idem_product doubles the last
    support row of the square omega * omega (square) or of every other
    product."""
    return (
        "real = mg._char_idem_product\n"
        "def corrupted(k1, rho1, k2, rho2):\n"
        "    m = real(k1, rho1, k2, rho2)\n"
        f"    if (k1 is k2 and rho1 is rho2) != {square}:\n"
        "        return m\n"
        "    rows = m.rows.copy()\n"
        "    rows[m.support()[-1]] *= 2\n"
        "    return mg.Measure._build(m.parent, m.conductor, rows, m.den)\n"
        "mg._char_idem_product = corrupted\n"
    )


def test_reverse_checks_survive_optimize(run_optimized):
    # one corrupted row in the one product rho1 m_K1 * rho2 m_K2, of which
    # every pair block is a translate, must fail the pair-block collapse
    run_optimized(_corrupted_prop_43(_corrupted_product(square=False), "pair block"))


def test_pair_block_containment_survives_optimize(run_optimized):
    # block indices that miss the part of H1 outside H2 must fail the check
    # that H1 and H2 lie among them.  For m_<(12)(34)> and m_<(13)(24)> on
    # S4, H1 and H2 are two dihedral groups of order 8 and <H1 H2> is S4;
    # the 12 blocks left still generate S4, so a closure of the blocks would
    # not notice, and neither would a check of H2 alone
    run_optimized(
        "import types\n"
        "import idemconv.measure_groups as mg\n"
        "from idemconv import character_group, closure, symmetric_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(4)\n"
        "k1 = closure(g, [g.idx('(12)(34)')])\n"
        "k2 = closure(g, [g.idx('(13)(24)')])\n"
        "h1_only = [g.idx(x) for x in ('(12)', '(34)', '(1324)', '(1423)')]\n"
        "real = mg.np.unique\n"
        "def corrupted(a):\n"
        "    blocks = real(a)\n"
        "    if len(blocks) != 16 or closure(g, blocks.tolist()).order != 24:\n"
        "        raise SystemExit(4)\n"
        "    kept = blocks[~mg.np.isin(blocks, h1_only)]\n"
        "    if closure(g, kept.tolist()).order != 24:\n"
        "        raise SystemExit(5)\n"
        "    return kept\n"
        "np = types.ModuleType('numpy')\n"
        "np.__dict__.update(vars(mg.np))\n"
        "np.unique = corrupted\n"
        "mg.np = np\n"
        "try:\n"
        "    mg.verify_prop_43(k1, character_group(k1)[0], k2, character_group(k2)[0])\n"
        "except InvariantViolation as exc:\n"
        "    raise SystemExit(0 if 'pair blocks fail to reach' in str(exc) else 3)\n"
        "raise SystemExit(1)\n"
    )


def test_reverse_square_check_survives_optimize(run_optimized):
    # one corrupted row in the square omega * omega alone, of which every
    # step of the realization search is made, must fail the scalar-1
    # realization
    run_optimized(_corrupted_prop_43(_corrupted_product(square=True), "reverse realization"))
