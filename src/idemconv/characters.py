"""Multiplicative character groups of subgroups of a finite group.

A character is stored as one integer exponent t per domain element, with
value exp(2*pi*i*t/e) and 0 <= t < e for e the parent's exponent: every
character value is an e-th root of unity, so the form is exact and
canonical, and character arithmetic is integer arithmetic mod e.  Rational
rotations t/e exist only at the boundary (from_rotations, rot, rotation).

Every construction is validated in one numpy pass, where multiplicativity
is t[g*h] == (t[g] + t[h]) mod e over the domain's product table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .cyclo import INT64_LIMIT, CycloScalar
from .errors import InvariantViolation, PreconditionError
from .groups import (
    GroupTable,
    Subgroup,
    closure,
    commutator_subgroup,
    full_subgroup,
    quotient_group,
    subgroup_from_elements,
)

__all__ = [
    "Character",
    "character_group",
    "restrict",
    "kernel",
    "find_extension",
]


def _check(domain: Subgroup, exps: Sequence[int], e: int) -> None:
    """Raise ValueError naming the first failure, in a fixed order, unless
    exps (exponents mod e aligned with domain.elements) is a character."""
    elems = domain.elements
    n = len(elems)
    if len(exps) != n:
        raise ValueError("need one rotation per subgroup element")
    if exps and (min(exps) < 0 or max(exps) >= e):
        raise ValueError("rotations must lie in [0, 1)")
    t = np.array(exps, dtype=object if e >= INT64_LIMIT else np.int64)
    parent = domain.parent
    idx = np.array(elems, dtype=np.intp)
    # position of each domain element; -1 marks a product escaping it
    where = np.full(parent.order, -1, dtype=np.intp)
    where[idx] = np.arange(n)
    prod = where[parent.mul_np[idx[:, None], idx]]
    if where[parent.identity] < 0 or prod.min() < 0:
        raise ValueError("character domain is not closed under the group operation")
    if t[where[parent.identity]] != 0:
        raise ValueError("character must send the identity to 1")
    # g^order = 1 exactly when t(g) is a multiple of e / order
    bad_order = t % (e // parent.element_orders[idx].astype(t.dtype, copy=False)) != 0
    ok = t[prod] == (t[:, None] + t[None, :]) % e
    if bad_order.any() or not ok.all():
        i = int((bad_order | ~ok.all(axis=1)).argmax())
        g = parent.labels[elems[i]]
        if bad_order[i]:
            raise ValueError(f"value at {g} is not an order-dividing root of unity")
        h = parent.labels[elems[int(ok[i].argmin())]]
        raise ValueError(f"not multiplicative at ({g},{h})")


@dataclass(frozen=True)
class Character:
    """A multiplicative character on a subgroup, as integer exponents.

    exps is aligned with domain.elements and holds ints in [0, e) for
    e = domain.parent.exponent.  Construction validates it; a failure raises
    ValueError naming the first bad element or pair in row order, the
    element's order check before its row of products.
    """

    domain: Subgroup
    exps: tuple[int, ...]

    def __post_init__(self):
        if type(sum(self.exps)) is not int:  # one Fraction or float makes the sum one
            raise TypeError("exponents must be ints; see from_rotations")
        _check(self.domain, self.exps, self.domain.parent.exponent)

    @classmethod
    def from_rotations(cls, domain: Subgroup, rot: Sequence[Fraction]) -> "Character":
        """The character with value exp(2*pi*i*rot[j]) at domain.elements[j];
        raises ValueError as the constructor does."""
        e = domain.parent.exponent
        if all(e % r.denominator == 0 for r in rot):
            return cls(domain, tuple(r.numerator * (e // r.denominator) for r in rot))
        # no e-th root of unity: check over a modulus every denominator divides,
        # as object ints past int64, so the error names the first bad element
        wide = lcm(e, *(r.denominator for r in rot))
        t = [r.numerator * (wide // r.denominator) for r in rot]
        _check(domain, t, wide)
        raise InvariantViolation("a rotation off the exponent's roots of unity passed the check")

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.domain.elements)}

    def _exps_on(self, sub: Subgroup) -> tuple[int, ...]:
        """exps restricted to a subgroup of the domain."""
        return tuple(self._exponents[list(sub.elements)].tolist())

    @cached_property
    def _exponents(self) -> np.ndarray:
        """exps scattered over the whole parent as int64, -1 off the domain."""
        t = np.full(self.domain.parent.order, -1, dtype=np.int64)
        t[list(self.domain.elements)] = self.exps
        return t

    @cached_property
    def rot(self) -> tuple[Fraction, ...]:
        """The rotations exps / e in [0, 1), aligned with domain.elements."""
        e = self.domain.parent.exponent
        return tuple(Fraction(t, e) for t in self.exps)

    def rotation(self, g: int) -> Fraction:
        try:
            return self.rot[self._pos[g]]
        except KeyError:
            raise KeyError(f"element {g} outside the character's domain") from None

    def value(self, g: int, conductor: Optional[int] = None) -> CycloScalar:
        return CycloScalar.root_of_unity(self.rotation(g), conductor)

    @cached_property
    def conductor(self) -> int:
        e = self.domain.parent.exponent
        return e // gcd(e, *self.exps)

    @property
    def is_trivial(self) -> bool:
        return not any(self.exps)

    def conjugate(self) -> "Character":
        e = self.domain.parent.exponent
        return Character(self.domain, tuple(-t % e for t in self.exps))

    def __mul__(self, other: "Character") -> "Character":
        if self.domain != other.domain:
            raise PreconditionError("pointwise product needs a common domain")
        e = self.domain.parent.exponent
        return Character(
            self.domain, tuple((a + b) % e for a, b in zip(self.exps, other.exps))
        )

    def __repr__(self) -> str:
        parent = self.domain.parent
        parts = [
            f"{parent.labels[g]}:{r}"
            for g, r in zip(self.domain.elements, self.rot)
            if r
        ]
        body = ",".join(parts) if parts else "trivial"
        return f"<Character {body} on order-{self.domain.order} subgroup>"


def _max_order_generator(group: GroupTable) -> tuple[int, int]:
    best_g, best_d = group.identity, 1
    for g in range(group.order):
        d = group.element_order(g)
        if d > best_d:
            best_g, best_d = g, d
    return best_g, best_d


def _abelian_basis(group: GroupTable) -> list[tuple[int, int]]:
    """Independent generators (element, order) with A = prod of their cyclics.

    Classic peeling: a maximal-order element generates a direct factor; the
    complement's generators are lifted from the quotient and corrected so
    their orders stay exact.
    """
    if group.order == 1:
        return []
    if not group.is_abelian:
        raise PreconditionError("abelian decomposition on a nonabelian table")
    a, d = _max_order_generator(group)
    if d == group.order:
        return [(a, d)]
    cyc = closure(group, (a,))
    quot = quotient_group(full_subgroup(group), cyc)
    a_pows = {group.power(a, k): k for k in range(d)}
    out = [(a, d)]
    for q_gen, e in _abelian_basis(quot.group):
        x = min(g for g in range(group.order) if quot.projection[g] == q_gen)
        t = a_pows[group.power(x, e)]
        if t % e != 0:
            raise InvariantViolation("maximal-order peeling lost exactness")
        x = group.mul[x][group.power(a, (-(t // e)) % d)]
        if group.power(x, e) != group.identity:
            raise InvariantViolation("corrected generator has wrong order")
        out.append((x, e))
    return out


@lru_cache(maxsize=None)
def character_group(k: Subgroup) -> tuple[Character, ...]:
    """All multiplicative characters of K, the trivial character first.

    Computed as the dual of K/[K,K]: decompose the abelianization into
    cyclic factors, enumerate coordinate characters, lift through the
    projection.
    """
    parent = k.parent
    comm = commutator_subgroup(k)
    quot = quotient_group(k, comm)
    q_group = quot.group
    basis = _abelian_basis(q_group)

    coords: dict[int, tuple[int, ...]] = {}
    for c in itertools.product(*(range(d) for _, d in basis)):
        x = q_group.identity
        for (g, _), ci in zip(basis, c):
            x = q_group.mul[x][q_group.power(g, ci)]
        if x in coords:
            raise InvariantViolation("cyclic factors are not independent")
        coords[x] = c
    if len(coords) != q_group.order:
        raise InvariantViolation("cyclic factors do not span the abelianization")

    # character m takes coordinates c to sum m_i c_i / d_i turns, which is
    # exponent sum m_i c_i (e / d_i) mod e
    e = parent.exponent
    element_coords = [coords[quot.projection[g]] for g in k.elements]
    chars = []
    for m in itertools.product(*(range(d) for _, d in basis)):
        w = [mi * (e // d) for mi, (_, d) in zip(m, basis)]
        exps = tuple(sum(a * b for a, b in zip(w, c)) % e for c in element_coords)
        chars.append(Character(k, exps))
    if len(chars) != k.order // comm.order:
        raise InvariantViolation("character count mismatch")
    return tuple(chars)


def restrict(chi: Character, sub: Subgroup) -> Character:
    if sub.parent is not chi.domain.parent:
        raise PreconditionError("restriction target lives in a different parent")
    if not sub.element_set <= chi.domain.element_set:
        raise PreconditionError("restriction target is not inside the domain")
    return Character(sub, chi._exps_on(sub))


def kernel(chi: Character) -> Subgroup:
    members = [g for g, t in zip(chi.domain.elements, chi.exps) if t == 0]
    return subgroup_from_elements(chi.domain.parent, members, validate=False)


def find_extension(
    target: Subgroup, constraints: Sequence[Character]
) -> Optional[Character]:
    """A character on the target restricting to each given one, or None.

    Each constraint's domain must sit inside the target.  When those
    domains generate the target, a satisfying character is unique; that
    uniqueness is checked.
    """
    parent = target.parent
    union: set[int] = set()
    for chi in constraints:
        if chi.domain.parent is not parent:
            raise PreconditionError("constraint subgroup in a different parent")
        if not chi.domain.element_set <= target.element_set:
            raise PreconditionError("constraint subgroup escapes the target")
        union.update(chi.domain.elements)
    matches = [
        rho
        for rho in character_group(target)
        if all(rho._exps_on(chi.domain) == chi.exps for chi in constraints)
    ]
    if closure(parent, union).elements == target.elements and len(matches) > 1:
        raise InvariantViolation("constraints generate the target but fix no unique character")
    return matches[0] if matches else None
