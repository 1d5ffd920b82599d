"""Commutation trichotomy for pairs of contractive idempotents.

classify_pair decides, in closed form, whether rho1*m_K1 and rho2*m_K2
have zero product, commute, or fail to commute.  The closed form is the
structure theorem for finite groups: if rho1 and rho2 differ somewhere on
K1 meet K2 the product is 0; otherwise

    (rho1 m_K1) * (rho2 m_K2) = 1/|K1K2| * sum over x = ab in K1K2 of rho1(a) rho2(b) delta_x,

and the value does not depend on the factorisation ab = x chosen (two
choices differ by an element of K1 meet K2, where the characters agree).
So each product is one integer exponent modulo the parent's exponent per
element of its support, and the two products are compared as integer
vectors.  Nothing is convolved unless verify=True, which cross-checks every
verdict against brute-force convolution; the test suite switches it on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .characters import Character
from .cyclo import field_tables, promote_rows, scale_rows
from .errors import InvariantViolation, MismatchedParents, PreconditionError
from .groups import (
    GroupTable,
    Subgroup,
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
    products differ.  left/right hold the products: for "non_commuting"
    always, built in closed form (bit-identical to convolve); for the other
    kinds only under verify, where they are the convolutions themselves.
    """

    kind: str
    product_subgroup: Optional[Subgroup] = None
    product_character: Optional[Character] = None
    witness: Optional[int] = None
    left: Optional[Measure] = None
    right: Optional[Measure] = None


def _first_difference(a: Measure, b: Measure) -> Optional[int]:
    n = lcm(a.conductor, b.conductor)
    ra = scale_rows(promote_rows(a.rows, a.conductor, n), b.den)
    differs = (ra != scale_rows(promote_rows(b.rows, b.conductor, n), a.den)).any(axis=1)
    return int(differs.argmax()) if differs.any() else None


def _monomial(parent: GroupTable, exps: np.ndarray, n: int, den: int) -> Measure:
    """The measure zeta_e^exps[x] / den on exps >= 0, e = parent.exponent,
    at conductor n; every exponent must be a multiple of e / n.

    Packed as convolve packs it: the row at the identity, exponent 0, is
    (1, 0, ..., 0), so rows over den are already in lowest terms.
    """
    # -1 // step is -1, which picks the zero row at the end of roots
    rows = field_tables(n).roots[exps // (parent.exponent // n)]
    return Measure(parent, n, rows, den)


def classify_pair(
    k1: Subgroup,
    rho1: Character,
    k2: Subgroup,
    rho2: Character,
    *,
    verify: bool = False,
) -> CommutationVerdict:
    """Decide commutation of the idempotents rho1*m_K1 and rho2*m_K2.

    (a) rho1, rho2 differ on K1 meet K2              -> zero_product
    (b) the two closed-form products agree: then K1K2
        is a subgroup carrying the character
        k1k2 -> rho1(k1) rho2(k2)                    -> commute
    (c) otherwise                                    -> non_commuting, witness.

    The products are compared as exponent vectors (module docstring);
    verify=True also convolves and checks the verdict, the product
    character, and for (c) the closed-form products and the witness.
    """
    if rho1.domain != k1:
        raise PreconditionError("rho1 is not a character of K1")
    if rho2.domain != k2:
        raise PreconditionError("rho2 is not a character of K2")
    parent = k1.parent
    if k2.parent is not parent:
        raise MismatchedParents(
            f"subgroups live in different parents ({parent.name} vs {k2.parent.name})"
        )
    if verify:
        # the brute-force products every verdict is checked against
        idem1, idem2 = char_idem(k1, rho1), char_idem(k2, rho2)
        conv_left, conv_right = convolve(idem1, idem2), convolve(idem2, idem1)
    t1, t2 = rho1._exponents, rho2._exponents
    a, b = (t1 >= 0).nonzero()[0], (t2 >= 0).nonzero()[0]
    ta, tb, t2a = t1[a], t2[b], t2[a]

    # t2a >= 0 exactly on K1 meet K2
    if ((t2a >= 0) & (t2a != ta)).any():
        if not verify:
            return CommutationVerdict("zero_product")
        if not (conv_left.is_zero() and conv_right.is_zero()):
            raise InvariantViolation("zero_product verdict, nonzero convolution")
        return CommutationVerdict("zero_product", left=conv_left, right=conv_right)

    # the exponent of rho1(a) rho2(b) at x = ab (left) and at x = ba (right),
    # -1 off the product set; agreement on K1 meet K2 makes every
    # factorisation of x write the same value
    s = (ta[:, None] + tb) % parent.exponent
    left_exps = np.full(parent.order, -1, dtype=np.int64)
    left_exps[parent.mul_np[a[:, None], b]] = s
    right_exps = np.full(parent.order, -1, dtype=np.int64)
    right_exps[parent.mul_np[b[:, None], a]] = s.T
    differs = left_exps != right_exps

    if not differs.any():
        support = np.flatnonzero(left_exps >= 0)
        k12 = subgroup_from_elements(
            parent, support.tolist(), k1.generators + k2.generators, validate=False
        )
        try:
            rho12 = Character(k12, tuple(left_exps[support].tolist()))
        except ValueError as exc:
            # equal products make a nonzero idempotent of norm <= 1, which is
            # rho m_K for a subgroup K and a character rho (Greenleaf)
            raise InvariantViolation(f"products agree but give no character: {exc}") from exc
        if not verify:
            return CommutationVerdict("commute", k12, rho12)
        if not conv_left == conv_right == char_idem(k12, rho12):
            raise InvariantViolation("commute verdict, convolutions disagree with it")
        if rho12._exps_on(k1) != rho1.exps or rho12._exps_on(k2) != rho2.exps:
            raise InvariantViolation("product character does not restrict to rho1, rho2")
        return CommutationVerdict("commute", k12, rho12, left=conv_left, right=conv_right)

    witness = int(differs.argmax())
    n = lcm(rho1.conductor, rho2.conductor)
    # |K1K2| = |K1||K2| / |K1 meet K2|, the support of either product
    den = int(np.count_nonzero(left_exps >= 0))
    left = _monomial(parent, left_exps, n, den)
    right = _monomial(parent, right_exps, n, den)
    if verify:
        if left != conv_left or right != conv_right:
            raise InvariantViolation("closed-form products disagree with the convolutions")
        if _first_difference(conv_left, conv_right) != witness:
            raise InvariantViolation("witness is not the first difference of the convolutions")
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
    t = rho.exps  # rho is on all of K, so t[g] is its exponent at g
    moved = any(tuple(t[x] for x in p) != t for p in acts)
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
    scale = g.exponent // k_grp.exponent  # K's exponent divides that of K x| A
    rho_emb = Character(
        k_embedded, tuple(t[x // na] * scale for x in k_embedded.elements)
    )
    left = convolve(char_idem(k_embedded, rho_emb), haar(a_embedded))
    right = convolve(haar(a_embedded), char_idem(k_embedded, rho_emb))
    witness = _first_difference(left, right)
    if witness is None:
        raise InvariantViolation("products agree; the action test should have failed")

    # right at (k, x) is rho(x^-1(k)) / (|K| |A|): one root of unity per row
    n = rho.conductor
    exps = np.array(t)[np.array([acts[x] for x in a_grp.inv]).T] // (k_grp.exponent // n)
    coeff_ok = right == Measure(g, n, field_tables(n).roots[exps.ravel()], k_grp.order * na)
    if not coeff_ok:
        raise InvariantViolation("closed-form coefficients disagree with the convolution")
    return SemidirectReport(g, left, right, witness, coeff_ok)
