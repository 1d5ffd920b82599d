"""Commutation trichotomy for pairs of contractive idempotents.

classify_pair decides, structurally, whether rho1*haar(K1) and
rho2*haar(K2) have zero product, commute with a closed-form product, or
fail to commute; the brute-force convolution cross-check is opt-in
(verify=True) and is switched on throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence, Union

from .characters import Character, restrict
from .cyclo import promote_rows
from .errors import InvariantViolation, PreconditionError
from .groups import (
    GroupTable,
    Subgroup,
    intersection,
    is_subgroup_product,
    semidirect_product,
    subgroup_from_elements,
)
from .measures import Measure, char_idem, convolve, haar

__all__ = [
    "CommutationVerdict",
    "classify_pair",
    "SemidirectReport",
    "semidirect_counterexample",
]


@dataclass(frozen=True)
class CommutationVerdict:
    """Outcome of classify_pair.

    kind is "zero_product", "commute", or "non_commuting".  For "commute"
    the product equals char_idem(product_subgroup, product_character); for
    "non_commuting" witness is the smallest element index where the two
    convolutions differ.  left/right hold the actual products whenever they
    were computed (always for "non_commuting", under verify otherwise).
    """

    kind: str
    product_subgroup: Optional[Subgroup] = None
    product_character: Optional[Character] = None
    witness: Optional[int] = None
    left: Optional[Measure] = None
    right: Optional[Measure] = None


def _first_difference(a: Measure, b: Measure) -> Optional[int]:
    n = lcm(a.conductor, b.conductor)
    ra = promote_rows(a.num, a.conductor, n)
    rb = promote_rows(b.num, b.conductor, n)
    for g in range(a.parent.order):
        if any(x * b.den != y * a.den for x, y in zip(ra[g], rb[g])):
            return g
    return None


def classify_pair(
    k1: Subgroup,
    rho1: Character,
    k2: Subgroup,
    rho2: Character,
    *,
    verify: bool = False,
) -> CommutationVerdict:
    """Decide commutation of the idempotents rho1*m_K1 and rho2*m_K2.

    (a) restrictions to K1 meet K2 differ       -> zero_product
    (b) K1K2 a subgroup carrying the character
        k1k2 -> rho1(k1) rho2(k2)               -> commute
    (c) otherwise                               -> non_commuting, witness.
    """
    if rho1.domain != k1:
        raise PreconditionError("rho1 is not a character of K1")
    if rho2.domain != k2:
        raise PreconditionError("rho2 is not a character of K2")
    parent = k1.parent
    mul = parent.mul

    inter = intersection(k1, k2)
    if any(rho1.rotation(g) != rho2.rotation(g) for g in inter.elements):
        verdict = CommutationVerdict("zero_product")
        if verify:
            left = convolve(char_idem(k1, rho1), char_idem(k2, rho2))
            right = convolve(char_idem(k2, rho2), char_idem(k1, rho1))
            if not (left.is_zero() and right.is_zero()):
                raise InvariantViolation("zero_product verdict, nonzero convolution")
            verdict = CommutationVerdict("zero_product", left=left, right=right)
        return verdict

    pv = is_subgroup_product(k1, k2)
    rho12: Optional[Character] = None
    if pv.is_subgroup:
        vals: dict[int, Fraction] = {}
        well_defined = True
        for a in k1.elements:
            ra = rho1.rotation(a)
            row = mul[a]
            for b in k2.elements:
                x = row[b]
                r = (ra + rho2.rotation(b)) % 1
                prev = vals.get(x)
                if prev is None:
                    vals[x] = r
                elif prev != r:
                    well_defined = False
                    break
            if not well_defined:
                break
        if well_defined:
            k12 = pv.subgroup
            try:
                rho12 = Character(k12, tuple(vals[g] for g in k12.elements))
            except ValueError:  # not multiplicative
                rho12 = None

    if rho12 is not None:
        k12 = pv.subgroup
        verdict = CommutationVerdict("commute", k12, rho12)
        if verify:
            left = convolve(char_idem(k1, rho1), char_idem(k2, rho2))
            right = convolve(char_idem(k2, rho2), char_idem(k1, rho1))
            predicted = char_idem(k12, rho12)
            if not left == right == predicted:
                raise InvariantViolation("commute verdict, convolutions disagree with it")
            if restrict(rho12, k1) != rho1 or restrict(rho12, k2) != rho2:
                raise InvariantViolation("product character does not restrict to rho1, rho2")
            verdict = CommutationVerdict("commute", k12, rho12, left=left, right=right)
        return verdict

    left = convolve(char_idem(k1, rho1), char_idem(k2, rho2))
    right = convolve(char_idem(k2, rho2), char_idem(k1, rho1))
    witness = _first_difference(left, right)
    if witness is None:
        raise InvariantViolation("structural test predicted non-commuting, products agree")
    return CommutationVerdict("non_commuting", witness=witness, left=left, right=right)


@dataclass(frozen=True)
class SemidirectReport:
    group: GroupTable
    left: Measure  # (rho m_K) * m_A
    right: Measure  # m_A * (rho m_K)
    witness: int
    coefficient_check: bool


def semidirect_counterexample(
    k_grp: GroupTable,
    a_grp: GroupTable,
    action: Union[Sequence[Sequence[int]], Callable[[int], Sequence[int]]],
    rho: Character,
) -> SemidirectReport:
    """Non-commutation of rho*m_K with m_A inside K semidirect A.

    Requires rho to move under the action of some element of A; the right
    product's coefficient at (k, x) is rho(x^-1(k)) / (|K| |A|), checked
    exactly against the convolution.
    """
    if not k_grp.is_abelian:
        raise PreconditionError("K must be abelian")
    if rho.domain.order != k_grp.order or rho.domain.parent is not k_grp:
        raise PreconditionError("rho must be a character of all of K")
    if callable(action):
        acts = [tuple(action(x)) for x in range(a_grp.order)]
    else:
        acts = [tuple(p) for p in action]
    moved = any(
        any(rho.rotation(p[g]) != rho.rotation(g) for g in range(k_grp.order))
        for p in acts
    )
    if not moved:
        raise PreconditionError("rho is invariant under the action; no counterexample")

    g = semidirect_product(k_grp, a_grp, acts)
    na = a_grp.order
    k_embedded = subgroup_from_elements(
        g, [k * na + a_grp.identity for k in range(k_grp.order)], validate=False
    )
    a_embedded = subgroup_from_elements(
        g, [k_grp.identity * na + x for x in range(na)], validate=False
    )
    rho_emb = Character(
        k_embedded, tuple(rho.rotation(x // na) for x in k_embedded.elements)
    )
    left = convolve(char_idem(k_embedded, rho_emb), haar(a_embedded))
    right = convolve(haar(a_embedded), char_idem(k_embedded, rho_emb))
    witness = _first_difference(left, right)
    if witness is None:
        raise InvariantViolation("products agree; the action test should have failed")

    size = Fraction(1, k_grp.order * a_grp.order)
    coeff_ok = True
    for k in range(k_grp.order):
        for x in range(na):
            inv_act = acts[a_grp.inv[x]]
            expected = rho.value(inv_act[k]) * size
            if right.coeff(k * na + x) != expected:
                coeff_ok = False
    if not coeff_ok:
        raise InvariantViolation("closed-form coefficients disagree with the convolution")
    return SemidirectReport(g, left, right, witness, coeff_ok)
