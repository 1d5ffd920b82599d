"""Pairwise commutation of contractive idempotents."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
import pytest

from idemconv import (
    all_subgroups,
    char_idem,
    character_group,
    classify_block,
    classify_pair,
    closure,
    convolve,
    cyclic_group,
    full_subgroup,
    semidirect_counterexample,
)
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
    # if building it fails, that is reported, not turned into a verdict
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
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
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


def _reference_product(parent, k1, rho1, k2, rho2, n):
    """(rho1 m_K1) * (rho2 m_K2): integer rows over |K1||K2| at conductor n."""
    x = parent.mul_np[np.array(k1.elements)[:, None], np.array(k2.elements)]
    t = np.add.outer(_exps(rho1, n), _exps(rho2, n)) % n
    counts = np.bincount((x * n + t).ravel(), minlength=parent.order * n)
    return counts.reshape(parent.order, n) @ _power_basis(n)[0]


def _same_products(v, left, right, n, scale):
    for mu, ref in ((v.left, left), (v.right, right)):
        assert mu.conductor == n and np.array_equal(np.array(mu.num) * scale, ref * mu.den)


def _check_against_reference(parent, k1, rho1, k2, rho2, v=None):
    """v, or classify_pair's verdict, against the reference products; a
    verdict from verify=True carries its products for every kind."""
    verified = v is not None
    if v is None:
        v = classify_pair(k1, rho1, k2, rho2)
    n = lcm(rho1.conductor, rho2.conductor)
    left = _reference_product(parent, k1, rho1, k2, rho2, n)
    right = _reference_product(parent, k2, rho2, k1, rho1, n)
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
            conv = convolve(char_idem(*a), char_idem(*b))
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
            _check_against_reference(group, k1, r1, k2, r2)


def test_closed_form_matches_reference_on_s5_sample(s5):
    items = _items(s5)
    rng = random.Random(2015)
    for _ in range(2000):
        (k1, r1), (k2, r2) = rng.choice(items), rng.choice(items)
        _check_against_reference(s5, k1, r1, k2, r2)


def _check_blocks_against_reference(group, pairs):
    for k1, k2 in pairs:
        chars1, chars2 = character_group(k1), character_group(k2)
        verdicts = classify_block(k1, chars1, k2, chars2, verify=True)
        assert [len(row) for row in verdicts] == [len(chars2)] * len(chars1)
        for r1, row in zip(chars1, verdicts):
            for r2, v in zip(chars2, row):
                _check_against_reference(group, k1, r1, k2, r2, v)


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8"])
def test_block_matches_reference_exhaustively(name, request):
    group = request.getfixturevalue(name)
    subs = all_subgroups(group)
    _check_blocks_against_reference(group, [(k1, k2) for k1 in subs for k2 in subs])


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


@pytest.mark.parametrize("verify", [False, True])
def test_empty_block_has_no_verdicts(s3, verify):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    assert classify_block(k1, [], k2, character_group(k2), verify=verify) == []
    assert classify_block(k1, character_group(k1), k2, [], verify=verify) == [[], []]


# -- each check of a verified block, under python -O ----------------------------
# S3 with K1 = <(12)> and K2 = <(123)>: a 2 x 3 block in which both
# characters of K1 commute with the trivial one of K2 and the other four
# pairs do not.  One pair's verdict is corrupted after it is decided; the
# check must name it.

_BLOCK_SETUP = (
    "import dataclasses\n"
    "import idemconv.commutation as c\n"
    "from idemconv import character_group, closure, symmetric_group\n"
    "from idemconv.errors import InvariantViolation\n"
    "g = symmetric_group(3)\n"
    "k1 = closure(g, [g.idx('(12)')])\n"
    "k2 = closure(g, [g.idx('(123)')])\n"
    "chars1, chars2 = character_group(k1), character_group(k2)\n"
    "block = c.classify_block(k1, chars1, k2, chars2, verify=True)\n"
    "kinds = sorted(v.kind for row in block for v in row)\n"
    "if kinds != ['commute'] * 2 + ['non_commuting'] * 4:\n"
    "    raise SystemExit(3)\n"
    "decide = c._decide\n"
    "def corrupting(kind, change):\n"
    "    done = []\n"
    "    def corrupted(*args):\n"
    "        v = decide(*args)\n"
    "        if v.kind == kind and not done:\n"
    "            done.append(v)\n"
    "            return change(v)\n"
    "        return v\n"
    "    return corrupted\n"
)


def _expect_block_failure(run_optimized, kind, change, message):
    run_optimized(
        _BLOCK_SETUP
        + f"c._decide = corrupting({kind!r}, {change})\n"
        + "try:\n"
        + "    c.classify_block(k1, chars1, k2, chars2, verify=True)\n"
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
