"""Pairwise commutation of contractive idempotents."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
import pytest

import idemconv.commutation as commutation
from idemconv import (
    Character,
    all_subgroups,
    char_idem,
    character_group,
    classify_block,
    classify_pair,
    classify_row,
    closure,
    convolve,
    cyclic_group,
    full_subgroup,
    haar,
    semidirect_counterexample,
    subgroup_from_elements,
)
from idemconv.cyclo import field_tables
from idemconv.errors import PreconditionError


def test_matched_pair_commutes(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    v = classify_pair(
        k1, character_group(k1)[0], k2, character_group(k2)[0], verify=True
    )
    assert v.kind == "commute"
    assert v.product_subgroup.order == 6
    assert v.product_character.is_trivial
    m1 = char_idem(k1, character_group(k1)[0])
    m2 = char_idem(k2, character_group(k2)[0])
    prod = convolve(m1, m2)
    assert prod == convolve(m2, m1)
    assert prod == char_idem(v.product_subgroup, v.product_character)


def test_character_conflict_gives_zero(s3):
    # twisted reflection against trivial rotation subgroup: the restrictions
    # to the intersection of the translated characters disagree somewhere
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = full_subgroup(s3)
    tau = character_group(k1)[1]
    v = classify_pair(k1, tau, k2, character_group(k2)[0], verify=True)
    assert v.kind == "zero_product"
    m1 = char_idem(k1, tau)
    m2 = char_idem(k2, character_group(k2)[0])
    assert convolve(m1, m2).is_zero()
    assert convolve(m2, m1).is_zero()


def test_non_commuting_pair_with_witness(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(13)")])
    triv1 = character_group(k1)[0]
    triv2 = character_group(k2)[0]
    v = classify_pair(k1, triv1, k2, triv2, verify=True)
    assert v.kind == "non_commuting"
    assert s3.labels[v.witness] == "(123)"
    assert v.left != v.right
    m1, m2 = char_idem(k1, triv1), char_idem(k2, triv2)
    assert v.left == convolve(m1, m2)
    assert v.right == convolve(m2, m1)
    assert v.left.coeff(v.witness) != v.right.coeff(v.witness)


def test_verdict_matches_brute_force_on_s3(s3):
    """Every ordered (K, rho) pair: verdict vs direct convolution check."""
    items = [
        (k, chi)
        for k in all_subgroups(s3)
        for chi in character_group(k)
    ]
    assert len(items) == 12
    for k1, r1 in items:
        for k2, r2 in items:
            v = classify_pair(k1, r1, k2, r2)
            m1, m2 = char_idem(k1, r1), char_idem(k2, r2)
            lhs = convolve(m1, m2)
            rhs = convolve(m2, m1)
            if v.kind == "non_commuting":
                assert lhs != rhs
            elif v.kind == "zero_product":
                assert lhs == rhs and lhs.is_zero()
            else:
                assert v.kind == "commute"
                assert lhs == rhs
                assert lhs == char_idem(v.product_subgroup, v.product_character)


def test_same_subgroup_different_characters(c12):
    full = full_subgroup(c12)
    chars = character_group(full)
    v = classify_pair(full, chars[1], full, chars[2])
    assert v.kind == "zero_product"
    v2 = classify_pair(full, chars[3], full, chars[3])
    assert v2.kind == "commute"
    assert v2.product_character == chars[3]


def test_semidirect_counterexample_inversion():
    # C8 x| C2 by inversion, twist rotation 1/8 on the normal factor:
    # one-sided invariance without two-sided invariance
    c8, c2 = cyclic_group(8), cyclic_group(2)
    inv = [tuple(range(8)), tuple((-x) % 8 for x in range(8))]
    k = full_subgroup(c8)
    rho = [
        c for c in character_group(k) if c.rotation(1) == Fraction(1, 8)
    ][0]
    rep = semidirect_counterexample(c8, c2, inv, rho)
    assert rep.coefficient_check
    assert rep.witness is not None
    assert rep.left != rep.right


@pytest.mark.parametrize("n", range(3, 9))
def test_semidirect_products_are_the_convolutions(n):
    # C_n x| C_2 by inversion, K = C_n at 2k and A = C_2 at 0, 1: for every
    # character that inversion moves (one not real at the generator 1), left
    # and right are the two convolutions and witness is their first difference
    cn, c2 = cyclic_group(n), cyclic_group(2)
    inv = [tuple(range(n)), tuple((-x) % n for x in range(n))]
    moved = [rho for rho in character_group(full_subgroup(cn)) if 2 * rho.rotation(1) % 1]
    assert len(moved) == n - 1 - (n % 2 == 0)
    for rho in moved:
        rep = semidirect_counterexample(cn, c2, inv, rho)
        k = subgroup_from_elements(rep.group, [2 * x for x in range(n)])
        m_a = haar(subgroup_from_elements(rep.group, [0, 1]))
        m_k = char_idem(k, Character.from_rotations(k, [rho.rotation(x // 2) for x in k.elements]))
        assert (rep.left, rep.right) == (convolve(m_k, m_a), convolve(m_a, m_k))
        differ = [x for x in range(rep.group.order) if rep.left.coeff(x) != rep.right.coeff(x)]
        assert rep.witness == differ[0]


def test_semidirect_rejects_invariant_character():
    # the trivial twist is fixed by inversion, so no counterexample exists
    c8, c2 = cyclic_group(8), cyclic_group(2)
    inv = [tuple(range(8)), tuple((-x) % 8 for x in range(8))]
    k = full_subgroup(c8)
    with pytest.raises(PreconditionError):
        semidirect_counterexample(c8, c2, inv, character_group(k)[0])


def test_product_map_not_a_character_is_non_commuting(s3):
    # K1 = <(123)> with a cube-root twist, K2 = <(12)> untwisted: the
    # intersection is trivial and K1K2 = S3, so the product map is well
    # defined, but it is not a character (S3 has none nontrivial on A3)
    k1 = closure(s3, [s3.idx("(123)")])
    k2 = closure(s3, [s3.idx("(12)")])
    rho1 = next(c for c in character_group(k1) if c.rotation(s3.idx("(123)")) == Fraction(1, 3))
    triv2 = character_group(k2)[0]
    v = classify_pair(k1, rho1, k2, triv2, verify=True)
    assert v.kind == "non_commuting"
    assert v.product_character is None
    m1, m2 = char_idem(k1, rho1), char_idem(k2, triv2)
    lhs, rhs = convolve(m1, m2), convolve(m2, m1)
    assert v.left == lhs and v.right == rhs
    assert v.witness == next(g for g in range(s3.order) if lhs.coeff(g) != rhs.coeff(g))


def test_verify_check_survives_optimize(run_optimized):
    # the verify=True cross-checks are raises, not asserts: under python -O
    # a convolution that contradicts the verdict must still be reported
    run_optimized(
        "import idemconv._kernel as kernel\n"
        "from idemconv import character_group, classify_pair, closure, symmetric_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(3)\n"
        "k1 = closure(g, [g.idx('(12)')])\n"
        "k2 = closure(g, [g.idx('(123)')])\n"
        "exact = kernel.convolve_exact\n"
        "def wrong(*args):\n"
        "    out = exact(*args).copy()\n"
        "    out[g.identity, 0] += 1\n"
        "    return out\n"
        "kernel.convolve_exact = wrong\n"
        "try:\n"
        "    classify_pair(k1, character_group(k1)[0], k2, character_group(k2)[0], verify=True)\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )


def test_product_character_failure_survives_optimize(run_optimized):
    # equal closed-form products must give a character (structure theorem);
    # if building it fails, that is reported, not turned into a verdict, by
    # the pair decision and by the block decision alike
    run_optimized(
        "import idemconv.commutation as c\n"
        "from idemconv import character_group, closure, symmetric_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(3)\n"
        "k1 = closure(g, [g.idx('(12)')])\n"
        "k2 = closure(g, [g.idx('(123)')])\n"
        "def broken(*args):\n"
        "    raise ValueError('not multiplicative')\n"
        "c.Character = broken\n"
        "try:\n"
        "    c.classify_pair(k1, character_group(k1)[0], k2, character_group(k2)[0])\n"
        "    raise SystemExit(1)\n"
        "except InvariantViolation:\n"
        "    pass\n"
        "try:\n"
        "    c.classify_block(k1, character_group(k1), k2, character_group(k2))\n"
        "except InvariantViolation as exc:\n"
        "    raise SystemExit(0 if 'products agree but give no character' in str(exc) else 4)\n"
        "raise SystemExit(1)\n"
    )


def test_verify_checks_closed_form_survives_optimize(run_optimized):
    # one corrupted exponent gives wrong closed-form products on a
    # non-commuting pair; only verify=True, which convolves, can see it
    run_optimized(
        "from fractions import Fraction\n"
        "from idemconv import Character, character_group, classify_pair, closure, symmetric_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(3)\n"
        "k1 = closure(g, [g.idx('(123)')])\n"
        "k2 = closure(g, [g.idx('(12)')])\n"
        "rho1 = next(c for c in character_group(k1) if c.rotation(g.idx('(123)')) == Fraction(1, 3))\n"
        "rho2 = character_group(k2)[0]\n"
        "exponents = Character._exponents.func\n"
        "def corrupted(chi):\n"
        "    t = exponents(chi).copy()\n"
        "    if chi is rho1:\n"
        "        t[g.idx('(132)')] = 0\n"
        "    return t\n"
        "Character._exponents = property(corrupted)\n"
        "if classify_pair(k1, rho1, k2, rho2).kind != 'non_commuting':\n"
        "    raise SystemExit(3)\n"
        "try:\n"
        "    classify_pair(k1, rho1, k2, rho2, verify=True)\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )


# -- an independent reference for the closed form ------------------------------
# Each product is counted as a multiset of N-th roots of unity per element
# and reduced modulo Phi_N here, sharing no arithmetic with the library.


def _divmod_monic(num, den):
    """Quotient and remainder of integer polynomials (ascending), den monic."""
    num, dd = list(num), len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1 - dd, -1, -1):
        c = quot[k] = num[k + dd]
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    return quot, (num + [0] * dd)[:dd]


@lru_cache(maxsize=None)
def _power_basis(n):
    """Row t: coordinates of zeta_n^t in the basis 1, ..., zeta_n^(phi(n)-1)."""
    phi = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi, rem = _divmod_monic(phi, _power_basis(d)[1])
            assert not any(rem)
    return np.array([_divmod_monic([0] * t + [1], phi)[1] for t in range(n)]), tuple(phi)


def _exps(chi, n):
    return np.array([r.numerator * (n // r.denominator) for r in chi.rot])


def _reference_product(k1, rho1, k2, rho2, n):
    """(rho1 m_K1) * (rho2 m_K2): integer rows over |K1||K2| at conductor n,
    read-only."""
    parent = k1.parent
    x = parent.mul_np[np.array(k1.elements)[:, None], np.array(k2.elements)]
    t = np.add.outer(_exps(rho1, n), _exps(rho2, n)) % n
    counts = np.bincount((x * n + t).ravel(), minlength=parent.order * n)
    rows = counts.reshape(parent.order, n) @ _power_basis(n)[0]
    rows.flags.writeable = False
    return rows


def _convolution(k1, rho1, k2, rho2):
    return convolve(char_idem(k1, rho1), char_idem(k2, rho2))


# The exhaustive comparisons meet every pair of a group twice, pair by pair
# and in blocks, and each product once more as the other side of the swapped
# pair, so they compute each product once per session.  Sampled S5 pairs
# seldom repeat, and compute theirs afresh rather than hold them.
_SHARED = (lru_cache(maxsize=None)(_reference_product), lru_cache(maxsize=None)(_convolution))


def _same_products(v, left, right, n, scale):
    for mu, ref in ((v.left, left), (v.right, right)):
        assert mu.conductor == n and np.array_equal(np.array(mu.num) * scale, ref * mu.den)


def _check_against_reference(parent, k1, rho1, k2, rho2, v=None, shared=False):
    """v, or classify_pair's verdict, against the reference products; a
    verdict from verify=True carries its products for every kind.  shared
    reads the products from the session's _SHARED caches."""
    reference, convolution = _SHARED if shared else (_reference_product, _convolution)
    verified = v is not None
    if v is None:
        v = classify_pair(k1, rho1, k2, rho2)
    n = lcm(rho1.conductor, rho2.conductor)
    left = reference(k1, rho1, k2, rho2, n)
    right = reference(k2, rho2, k1, rho1, n)
    scale = k1.order * k2.order
    if verified or v.kind == "non_commuting":
        _same_products(v, left, right, n, scale)
    else:
        assert v.left is None and v.right is None
    if not left.any():
        assert v.kind == "zero_product" and not right.any()
        return
    differs = np.flatnonzero((left != right).any(axis=1))
    if differs.size:
        assert (v.kind, v.witness) == ("non_commuting", differs[0])
        sides = ((v.left, left, (k1, rho1), (k2, rho2)), (v.right, right, (k2, rho2), (k1, rho1)))
        for mu, ref, a, b in sides:
            conv = convolution(*a, *b)
            assert (mu.conductor, mu.num, mu.den) == (conv.conductor, conv.num, conv.den)
            assert mu.rows.dtype == conv.rows.dtype
        return
    assert v.kind == "commute"
    support = tuple(np.flatnonzero(left.any(axis=1)).tolist())
    k12, rho12 = v.product_subgroup, v.product_character
    assert (k12.elements, k12.generators) == (support, k1.generators + k2.generators)
    assert all(n % r.denominator == 0 for r in rho12.rot)
    # rho12(x) / |K1K2| over |K1||K2| is |K1 meet K2| rho12(x)
    expected = np.zeros_like(left)
    expected[list(support)] = scale // len(support) * _power_basis(n)[0][_exps(rho12, n)]
    assert np.array_equal(left, expected)


def _items(group):
    return [(k, chi) for k in all_subgroups(group) for chi in character_group(k)]


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8"])
def test_closed_form_matches_reference_exhaustively(name, request):
    group = request.getfixturevalue(name)
    items = _items(group)
    for k1, r1 in items:
        for k2, r2 in items:
            _check_against_reference(group, k1, r1, k2, r2, shared=True)


def test_closed_form_matches_reference_on_s5_sample(s5):
    items = _items(s5)
    rng = random.Random(2015)
    for _ in range(2000):
        (k1, r1), (k2, r2) = rng.choice(items), rng.choice(items)
        _check_against_reference(s5, k1, r1, k2, r2)


def _check_blocks_against_reference(group, pairs, shared=False):
    for k1, k2 in pairs:
        chars1, chars2 = character_group(k1), character_group(k2)
        verdicts = classify_block(k1, chars1, k2, chars2, verify=True)
        assert [len(row) for row in verdicts] == [len(chars2)] * len(chars1)
        for r1, row in zip(chars1, verdicts):
            for r2, v in zip(chars2, row):
                _check_against_reference(group, k1, r1, k2, r2, v, shared)


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8"])
def test_block_matches_reference_exhaustively(name, request):
    group = request.getfixturevalue(name)
    subs = all_subgroups(group)
    _check_blocks_against_reference(group, [(k1, k2) for k1 in subs for k2 in subs], True)


def test_block_matches_reference_on_s5_sample(s5):
    subs = all_subgroups(s5)
    rng = random.Random(2015)
    _check_blocks_against_reference(s5, [(rng.choice(subs), rng.choice(subs)) for _ in range(200)])


def test_products_are_built_on_first_read(s3):
    # a non_commuting verdict keeps two exponent vectors, and builds its
    # measures when left or right is read, once
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(13)")])
    triv1, triv2 = character_group(k1)[0], character_group(k2)[0]
    v = classify_pair(k1, triv1, k2, triv2)
    assert v.kind == "non_commuting"
    assert "left" not in vars(v) and "right" not in vars(v)
    m1, m2 = char_idem(k1, triv1), char_idem(k2, triv2)
    for mu, conv in ((v.left, convolve(m1, m2)), (v.right, convolve(m2, m1))):
        assert (mu.conductor, mu.den) == (conv.conductor, conv.den)
        assert mu.rows.dtype == conv.rows.dtype and np.array_equal(mu.rows, conv.rows)
    assert v.left is v.left
    # the other kinds carry products only under verify
    k3 = closure(s3, [s3.idx("(123)")])
    commute = classify_pair(k1, triv1, k3, character_group(k3)[0])
    assert commute.kind == "commute" and commute.left is None and commute.right is None


def test_block_rejects_foreign_characters(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(13)")])
    with pytest.raises(PreconditionError):
        classify_block(k1, character_group(k1) + character_group(k2), k2, character_group(k2))
    # in a row, a later block's characters are checked too
    blocks2 = [(k2, character_group(k2)), (k2, character_group(k1))]
    with pytest.raises(PreconditionError):
        classify_row(k1, character_group(k1), blocks2)


@pytest.mark.parametrize("verify", [False, True])
def test_empty_block_has_no_verdicts(s3, verify):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    chars1, chars2 = character_group(k1), character_group(k2)
    assert classify_block(k1, [], k2, chars2, verify=verify) == []
    assert classify_block(k1, chars1, k2, [], verify=verify) == [[], []]
    assert classify_row(k1, chars1, [], verify=verify) == []
    row = classify_row(k1, chars1, [(k2, []), (k2, chars2)], verify=verify)
    assert row[0] == [[], []] and [len(r) for r in row[1]] == [3, 3]


# -- each check of a verified row, under python -O -------------------------------
# The block decision is wrapped so that it corrupts one verdict after deciding
# it: the first verdict of the given kind, in the block of target (any block
# when target is None).  The row check must name it.
#
# S3 with K1 = <(12)> and K2 = <(123)>: a 2 x 3 block in which both
# characters of K1 commute with the trivial one of K2 and the other four
# pairs do not.

_CORRUPTING = (
    "import dataclasses\n"
    "import idemconv.commutation as c\n"
    "from idemconv import character_group, closure, symmetric_group\n"
    "from idemconv.errors import InvariantViolation\n"
    "decide = c._decide_block\n"
    "def corrupting(kind, change, target=None):\n"
    "    done = []\n"
    "    def corrupted(k1, chars1, t1, k2, chars2, keep):\n"
    "        block = decide(k1, chars1, t1, k2, chars2, keep)\n"
    "        for row in block:\n"
    "            for j, v in enumerate(row):\n"
    "                if v.kind == kind and not done and target in (None, k2):\n"
    "                    done.append(v)\n"
    "                    row[j] = change(v)\n"
    "        return block\n"
    "    return corrupted\n"
)

_S3_BLOCK = (
    "g = symmetric_group(3)\n"
    "k1 = closure(g, [g.idx('(12)')])\n"
    "k2 = closure(g, [g.idx('(123)')])\n"
    "chars1, chars2 = character_group(k1), character_group(k2)\n"
    "block = c.classify_block(k1, chars1, k2, chars2, verify=True)\n"
    "kinds = sorted(v.kind for row in block for v in row)\n"
    "if kinds != ['commute'] * 2 + ['non_commuting'] * 4:\n"
    "    raise SystemExit(3)\n"
    "def classify():\n"
    "    c.classify_block(k1, chars1, k2, chars2, verify=True)\n"
)


def _expect_block_failure(run_optimized, kind, change, message, setup=_S3_BLOCK, target=None):
    run_optimized(
        _CORRUPTING
        + setup
        + f"c._decide_block = corrupting({kind!r}, {change}, {target})\n"
        + "try:\n"
        + "    classify()\n"
        + "except InvariantViolation as exc:\n"
        + f"    raise SystemExit(0 if {message!r} in str(exc) else 4)\n"
        + "raise SystemExit(1)\n"
    )


def test_block_zero_check_survives_optimize(run_optimized):
    # a commuting pair called zero_product: its convolutions are not zero
    _expect_block_failure(
        run_optimized,
        "commute",
        "lambda v: c.CommutationVerdict('zero_product', _products=(v._products[0], 1, 1, "
        "-1 + 0 * v._products[3]))",
        "zero_product verdict, nonzero convolution",
    )


def test_block_closed_form_check_survives_optimize(run_optimized):
    # a non_commuting pair with its two products swapped
    _expect_block_failure(
        run_optimized,
        "non_commuting",
        "lambda v: dataclasses.replace(v, _products=v._products[:3] + (v._products[3][::-1],))",
        "closed-form products disagree with the convolutions",
    )


def test_block_restriction_check_survives_optimize(run_optimized):
    # the first commuting pair is trivial on both sides; its trivial product
    # character on S3 replaced by the sign character leaves the products
    # unchanged, but no longer restricts to the trivial rho1
    _expect_block_failure(
        run_optimized,
        "commute",
        "lambda v: dataclasses.replace(v, product_character="
        "next(x for x in character_group(v.product_subgroup) if not x.is_trivial))",
        "does not restrict to rho1, rho2",
    )


def test_block_witness_check_survives_optimize(run_optimized):
    # a non_commuting pair whose witness is moved past the first difference
    _expect_block_failure(
        run_optimized,
        "non_commuting",
        "lambda v: dataclasses.replace(v, witness=v.witness + 1)",
        "witness is not the first difference",
    )


def test_row_char_idem_check_survives_optimize(run_optimized):
    # S4 with K1 = <(12)>, against K2 = <(12)(34)> and then K2 = <(34)>: in
    # both blocks every pair commutes with K1K2 = <(12), (34)>, and both are
    # at conductor 2, so the row check convolves them in one run, the second
    # block's pairs after the first's.  The trivial pair of the second block
    # gets a D4 that contains K1K2 as its product subgroup and the trivial
    # character of D4 as its product character: the products and the
    # restrictions are unchanged, but that character's char_idem spreads
    # over eight elements where the products have four
    _expect_block_failure(
        run_optimized,
        "commute",
        "lambda v: dataclasses.replace(v, product_subgroup=d4, "
        "product_character=character_group(d4)[0])",
        "commute verdict, convolutions differ from its char_idem",
        setup=(
            "g = symmetric_group(4)\n"
            "k1 = closure(g, [g.idx('(12)')])\n"
            "first = closure(g, [g.idx('(12)(34)')])\n"
            "k2 = closure(g, [g.idx('(34)')])\n"
            "d4 = closure(g, [g.idx('(1324)'), g.idx('(12)')])\n"
            "chars1 = character_group(k1)\n"
            "blocks2 = [(first, character_group(first)), (k2, character_group(k2))]\n"
            "row = c.classify_row(k1, chars1, blocks2, verify=True)\n"
            "if [v.kind for block in row for r in block for v in r] != ['commute'] * 8:\n"
            "    raise SystemExit(3)\n"
            "if c._row_runs(k1, chars1, blocks2) != [[0, 1]]:\n"
            "    raise SystemExit(3)\n"
            "if d4.order != 8 or not k1.element_set | k2.element_set <= d4.element_set:\n"
            "    raise SystemExit(3)\n"
            "def classify():\n"
            "    c.classify_row(k1, chars1, blocks2, verify=True)\n"
        ),
        target="k2",
    )


# -- the block decision against _decide, and the row --------------------------


def _verdict_key(v):
    k12, rho12 = v.product_subgroup, v.product_character
    products = None
    if v._products is not None:
        parent, n, den, exps = v._products
        products = (id(parent), n, den, exps.tolist())
    return (
        v.kind,
        v.witness,
        None if k12 is None else (k12.elements, k12.generators),
        None if rho12 is None else rho12.exps,
        products,
    )


def _check_block_decision(pairs, keep):
    for k1, k2 in pairs:
        chars1, chars2 = character_group(k1), character_group(k2)
        block = commutation._decide_block(
            k1, chars1, commutation._exponents(chars1), k2, chars2, keep
        )
        assert [[_verdict_key(v) for v in row] for row in block] == [
            [_verdict_key(commutation._decide(k1, r1, k2, r2, keep)) for r2 in chars2]
            for r1 in chars1
        ]


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8"])
def test_block_decision_matches_pairwise_exhaustively(name, keep, request):
    group = request.getfixturevalue(name)
    subs = all_subgroups(group)
    _check_block_decision([(k1, k2) for k1 in subs for k2 in subs], keep)


@pytest.mark.parametrize("keep", [False, True])
def test_block_decision_matches_pairwise_on_s5_sample(s5, keep):
    subs = all_subgroups(s5)
    rng = random.Random(16)
    _check_block_decision([(rng.choice(subs), rng.choice(subs)) for _ in range(300)], keep)


def _row_keys(row):
    return [[[_verdict_key(v) for v in r] for r in block] for block in row]


@pytest.mark.parametrize("verify", [False, True])
def test_row_is_its_blocks(s4, verify):
    blocks = [(k, character_group(k)) for k in all_subgroups(s4)]
    for k1, chars1 in blocks[::7]:
        row = classify_row(k1, chars1, blocks, verify=verify)
        assert _row_keys(row) == _row_keys(
            classify_block(k1, chars1, k2, chars2, verify=verify) for k2, chars2 in blocks
        )


def _runs_within_bound(k1, chars1, blocks):
    """_row_runs of the row: every block once, and each run's stacked
    products (four per pair, element and coordinate) within _ROW_BYTES
    unless it is a single block."""
    runs = commutation._row_runs(k1, chars1, blocks)
    assert sorted(b for run in runs for b in run) == [b for b, (_, c) in enumerate(blocks) if c]
    for run in runs:
        chars2 = [rho for b in run for rho in blocks[b][1]]
        n = lcm(*(rho.conductor for rho in chars1), *(rho.conductor for rho in chars2))
        size = 4 * len(chars1) * len(chars2) * k1.parent.order * field_tables(n).degree * 8
        assert size <= commutation._ROW_BYTES or len(run) == 1
    return runs


def test_row_check_runs_are_bounded(s4, s5, monkeypatch):
    # one kernel call per side for each conductor of the row's blocks, and
    # one per run when a small bound cuts them into runs
    blocks = [(k, character_group(k)) for k in all_subgroups(s4)]
    k1, chars1 = max(blocks, key=lambda kc: len(kc[1]))
    n1 = lcm(*(rho.conductor for rho in chars1))
    conductors = {lcm(n1, *(rho.conductor for rho in chars2)) for _, chars2 in blocks}
    calls = []
    real = commutation._convolve_rows

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(commutation, "_convolve_rows", spy)
    classify_row(k1, chars1, blocks)
    assert calls == []
    expected = _row_keys(classify_row(k1, chars1, blocks, verify=True))
    assert sorted(calls) == sorted(2 * list(conductors))
    assert len(_runs_within_bound(k1, chars1, blocks)) == len(conductors)

    monkeypatch.setattr(commutation, "_ROW_BYTES", 16 * len(chars1) * s4.order * 8)
    calls.clear()
    assert _row_keys(classify_row(k1, chars1, blocks, verify=True)) == expected
    runs = _runs_within_bound(k1, chars1, blocks)
    assert len(runs) > len(conductors) and len(calls) == 2 * len(runs)

    # an S5 row at the real bound: up to 515 columns of 120 x phi(n)
    # entries, so some conductor's blocks are cut into several runs
    monkeypatch.undo()
    s5_blocks = [(k, character_group(k)) for k in all_subgroups(s5)]
    k1, chars1 = max(s5_blocks, key=lambda kc: len(kc[1]))
    n1 = lcm(*(rho.conductor for rho in chars1))
    conductors = {lcm(n1, *(rho.conductor for rho in chars2)) for _, chars2 in s5_blocks}
    assert len(_runs_within_bound(k1, chars1, s5_blocks)) > len(conductors)
