"""Pairwise commutation of contractive idempotents."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import idemconv
from idemconv import (
    all_subgroups,
    char_idem,
    character_group,
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


def test_verify_check_survives_optimize():
    # the verify=True cross-checks are raises, not asserts: under python -O
    # a convolution that contradicts the verdict must still be reported
    code = (
        "import idemconv.commutation as c\n"
        "from idemconv import character_group, closure, dirac, symmetric_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "if __debug__:\n"
        "    raise SystemExit(2)\n"
        "g = symmetric_group(3)\n"
        "k1 = closure(g, [g.idx('(12)')])\n"
        "k2 = closure(g, [g.idx('(123)')])\n"
        "c.convolve = lambda a, b: dirac(g, g.identity)\n"
        "try:\n"
        "    c.classify_pair(k1, character_group(k1)[0], k2, character_group(k2)[0], verify=True)\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(idemconv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
