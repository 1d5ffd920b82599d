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
vectors.  A verdict keeps those exponents and builds the product measures
only when they are read.

classify_block decides every pair of characters of one ordered subgroup
pair (K1, K2) the same way, pair by pair.  Nothing is convolved unless
verify=True, which cross-checks the verdicts of a whole block against
brute-force convolution, one stacked kernel call per side; the test suite
and classify_pair(verify=True), a block of one pair, switch it on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
from .measures import Measure, _char_idem_rows, _convolve_rows, char_idem, convolve, haar

__all__ = [
    "CommutationVerdict",
    "classify_pair",
    "classify_block",
    "SemidirectReport",
    "semidirect_counterexample",
]


@dataclass(frozen=True)
class CommutationVerdict:
    """Outcome of classify_pair.

    kind is "zero_product", "commute", or "non_commuting".  For "commute"
    the product equals char_idem(product_subgroup, product_character); for
    "non_commuting" witness is the smallest element index where the two
    products differ.  left/right are the products, bit-identical to
    convolve: for "non_commuting" always, for the other kinds only under
    verify.  They are built on first read from _products, which holds
    (parent, conductor, denominator, exps): exps[0] and exps[1] are the
    exponents of the left and right products, -1 off their support.
    """

    kind: str
    product_subgroup: Optional[Subgroup] = None
    product_character: Optional[Character] = None
    witness: Optional[int] = None
    _products: Optional[tuple] = field(default=None, repr=False, compare=False)

    @cached_property
    def left(self) -> Optional[Measure]:
        return self._product(0)

    @cached_property
    def right(self) -> Optional[Measure]:
        return self._product(1)

    def _product(self, side: int) -> Optional[Measure]:
        if self._products is None:
            return None
        parent, n, den, exps = self._products
        # the row at the identity, exponent 0, is (1, 0, ..., 0), so rows over
        # den are in lowest terms
        return Measure(parent, n, _monomial_rows(parent, exps[side], n), den)


def _monomial_rows(parent: GroupTable, exps: np.ndarray, n: int) -> np.ndarray:
    """The rows of zeta^e at conductor n for exponents e modulo the parent's
    exponent, any leading shape; n divides each e's order, so e is a multiple
    of parent.exponent // n, and -1 // step is -1, the zero row of roots."""
    return field_tables(n).roots[exps // (parent.exponent // n)]


def _first_difference(a: Measure, b: Measure) -> Optional[int]:
    n = lcm(a.conductor, b.conductor)
    ra = scale_rows(promote_rows(a.rows, a.conductor, n), b.den)
    differs = (ra != scale_rows(promote_rows(b.rows, b.conductor, n), a.den)).any(axis=1)
    return int(differs.argmax()) if differs.any() else None


def _require(
    k1: Subgroup, chars1: Sequence[Character], k2: Subgroup, chars2: Sequence[Character]
) -> None:
    if any(rho.domain != k1 for rho in chars1):
        raise PreconditionError("rho1 is not a character of K1")
    if any(rho.domain != k2 for rho in chars2):
        raise PreconditionError("rho2 is not a character of K2")
    if k2.parent is not k1.parent:
        raise MismatchedParents(
            f"subgroups live in different parents ({k1.parent.name} vs {k2.parent.name})"
        )


def _decide(
    k1: Subgroup, rho1: Character, k2: Subgroup, rho2: Character, keep: bool
) -> CommutationVerdict:
    """The closed-form verdict on one pair.  Non-commuting verdicts keep
    their products; keep=True keeps them for every kind."""
    parent = k1.parent
    t1, t2 = rho1._exponents, rho2._exponents
    a, b = (t1 >= 0).nonzero()[0], (t2 >= 0).nonzero()[0]
    ta, tb, t2a = t1[a], t2[b], t2[a]
    n = lcm(rho1.conductor, rho2.conductor)

    # t2a >= 0 exactly on K1 meet K2
    if ((t2a >= 0) & (t2a != ta)).any():
        if not keep:
            return CommutationVerdict("zero_product")
        zero = np.full((2, parent.order), -1, dtype=np.int64)
        return CommutationVerdict("zero_product", _products=(parent, n, 1, zero))

    # the exponent of rho1(a) rho2(b) at x = ab (left) and at x = ba (right),
    # -1 off the product set; agreement on K1 meet K2 makes every
    # factorisation of x write the same value
    s = (ta[:, None] + tb) % parent.exponent
    exps = np.full((2, parent.order), -1, dtype=np.int64)
    exps[0, parent.mul_np[a[:, None], b]] = s
    exps[1, parent.mul_np[b[:, None], a]] = s.T
    differs = exps[0] != exps[1]
    # |K1K2| = |K1||K2| / |K1 meet K2|, the support of either product
    support = np.flatnonzero(exps[0] >= 0)
    products = (parent, n, support.size, exps)

    if not differs.any():
        k12 = subgroup_from_elements(
            parent, support.tolist(), k1.generators + k2.generators, validate=False
        )
        try:
            rho12 = Character(k12, tuple(exps[0, support].tolist()))
        except ValueError as exc:
            # equal products make a nonzero idempotent of norm <= 1, which is
            # rho m_K for a subgroup K and a character rho (Greenleaf)
            raise InvariantViolation(f"products agree but give no character: {exc}") from exc
        return CommutationVerdict("commute", k12, rho12, _products=products if keep else None)

    return CommutationVerdict("non_commuting", witness=int(differs.argmax()), _products=products)


_DISAGREES = {
    "zero_product": "zero_product verdict, nonzero convolution",
    "commute": "commute verdict, convolutions disagree with it",
    "non_commuting": "closed-form products disagree with the convolutions",
}


def _check_block(
    k1: Subgroup,
    chars1: Sequence[Character],
    k2: Subgroup,
    chars2: Sequence[Character],
    verdicts: list[list[CommutationVerdict]],
) -> None:
    """Check the verdicts of a block against brute-force convolution.

    Each side's char_idem rows are built once, from the characters' exps
    (never from the closed form), at the block's common conductor n; one
    kernel call per side gives every left and every right product, each over
    |K1||K2|.  Every closed-form product counts each x = ab once per element
    of K1 meet K2, so times |K1 meet K2| it must equal its convolution.  A
    commute verdict's character must restrict to rho1 and rho2 and its
    char_idem must equal the products; a witness must be the first element
    where the two convolutions differ.  Failures raise InvariantViolation.
    """
    parent = k1.parent
    order, m1, m2 = parent.order, len(chars1), len(chars2)
    n = lcm(*(rho.conductor for rho in chars1), *(rho.conductor for rho in chars2))
    rows1, rows2 = _char_idem_rows(k1, chars1, n), _char_idem_rows(k2, chars2, n)
    left = _convolve_rows(parent, n, rows1, rows2).reshape(m1, m2, order, -1)
    right = _convolve_rows(parent, n, rows2, rows1).reshape(m2, m1, order, -1).swapaxes(0, 1)
    meet = len(k1.element_set & k2.element_set)

    flat = [v for row in verdicts for v in row]
    exps = np.stack([v._products[3] for v in flat]).reshape(m1, m2, 2, order)
    closed = meet * _monomial_rows(parent, exps, n)
    wrong = (np.stack((left, right), axis=2) != closed).any(axis=(2, 3, 4)).ravel()
    if wrong.any():
        raise InvariantViolation(_DISAGREES[flat[int(wrong.argmax())].kind])

    for i, row in enumerate(verdicts):
        for j, v in enumerate(row):
            if v.kind != "commute":
                continue
            rho12 = v.product_character
            if rho12._exps_on(k1) != chars1[i].exps or rho12._exps_on(k2) != chars2[j].exps:
                raise InvariantViolation("product character does not restrict to rho1, rho2")
            if not (left[i, j] == meet * _char_idem_rows(v.product_subgroup, (rho12,), n)).all():
                raise InvariantViolation("commute verdict, convolutions differ from its char_idem")

    differs = (left != right).any(axis=3)
    first = np.where(differs.any(axis=2), differs.argmax(axis=2), -1).ravel()
    if first.tolist() != [-1 if v.witness is None else v.witness for v in flat]:
        raise InvariantViolation("witness is not the first difference of the convolutions")


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
    verify=True checks the verdict as a block of one pair (classify_block).
    """
    _require(k1, (rho1,), k2, (rho2,))
    v = _decide(k1, rho1, k2, rho2, verify)
    if verify:
        _check_block(k1, (rho1,), k2, (rho2,), [[v]])
    return v


def classify_block(
    k1: Subgroup,
    chars1: Sequence[Character],
    k2: Subgroup,
    chars2: Sequence[Character],
    *,
    verify: bool = False,
) -> list[list[CommutationVerdict]]:
    """classify_pair on every pair of characters of K1 and of K2.

    Entry [i][j] is the verdict on (chars1[i], chars2[j]), decided as
    classify_pair decides it.  verify=True checks the whole block against
    brute-force convolution with one stacked kernel call per side.
    """
    _require(k1, chars1, k2, chars2)
    verdicts = [[_decide(k1, r1, k2, r2, verify) for r2 in chars2] for r1 in chars1]
    if verify and chars1 and chars2:
        _check_block(k1, chars1, k2, chars2, verdicts)
    return verdicts


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
