"""Multiplicative character groups of subgroups of a finite group.

A character is stored as a rational rotation number per element: the value
at g is exp(2*pi*i*rot(g)). Rotation arithmetic is exact and canonical;
conversion to cyclotomic scalars happens only at the measures boundary.

Every construction is validated, in one numpy pass over integer exponents:
the rotations are scaled to integers t = rot * e mod e, with e the parent's
exponent (widened by any stray denominator, so the check stays exact on bad
input), and multiplicativity becomes t[g*h] == (t[g] + t[h]) mod e over the
domain's product table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .cyclo import CycloScalar
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


@dataclass(frozen=True)
class Character:
    """A multiplicative character on a subgroup, as rotation numbers.

    rot is aligned with domain.elements and holds Fractions in [0, 1).
    Construction validates it, vectorised over integer exponents (see the
    module docstring); a failure raises ValueError naming the first bad
    element or pair in row order, the element's order check before its
    row of products.
    """

    domain: Subgroup
    rot: tuple[Fraction, ...]

    def __post_init__(self):
        elems = self.domain.elements
        n = len(elems)
        if len(self.rot) != n:
            raise ValueError("need one rotation per subgroup element")
        num = [r.numerator for r in self.rot]
        den = [r.denominator for r in self.rot]
        if any(p < 0 or p >= q for p, q in zip(num, den)):
            raise ValueError("rotations must lie in [0, 1)")
        parent = self.domain.parent
        # a valid character has every denominator dividing the exponent;
        # only absurd denominators push e past int64, to exact object ints
        e = lcm(parent.exponent, *den)
        dtype = np.int64 if e < 2**62 else object
        q = np.array(den, dtype=dtype)
        t = np.array(num, dtype=dtype) * (e // q)
        idx = np.array(elems, dtype=np.intp)
        # position of each domain element; -1 marks a product escaping it
        where = np.full(parent.order, -1, dtype=np.intp)
        where[idx] = np.arange(n)
        prod = where[parent.mul_np[idx[:, None], idx]]
        if where[parent.identity] < 0 or prod.min() < 0:
            raise ValueError("character domain is not closed under the group operation")
        if t[where[parent.identity]] != 0:
            raise ValueError("character must send the identity to 1")
        bad_order = parent.element_orders[idx] % q != 0
        ok = t[prod] == (t[:, None] + t[None, :]) % e
        if bad_order.any() or not ok.all():
            i = int((bad_order | ~ok.all(axis=1)).argmax())
            g = parent.labels[elems[i]]
            if bad_order[i]:
                raise ValueError(f"value at {g} is not an order-dividing root of unity")
            h = parent.labels[elems[int(ok[i].argmin())]]
            raise ValueError(f"not multiplicative at ({g},{h})")

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.domain.elements)}

    @cached_property
    def _exponents(self) -> np.ndarray:
        """int64 t over the whole parent: chi(g) = exp(2*pi*i*t[g]/e) with
        e = parent.exponent and 0 <= t[g] < e on the domain, -1 off it.

        Exact because construction checked every denominator divides the
        element's order, hence e.
        """
        parent = self.domain.parent
        e = parent.exponent
        t = np.full(parent.order, -1, dtype=np.int64)
        t[list(self.domain.elements)] = [r.numerator * (e // r.denominator) for r in self.rot]
        return t

    def rotation(self, g: int) -> Fraction:
        try:
            return self.rot[self._pos[g]]
        except KeyError:
            raise KeyError(f"element {g} outside the character's domain") from None

    def value(self, g: int, conductor: Optional[int] = None) -> CycloScalar:
        return CycloScalar.root_of_unity(self.rotation(g), conductor)

    @cached_property
    def conductor(self) -> int:
        return lcm(1, *(r.denominator for r in self.rot))

    @property
    def is_trivial(self) -> bool:
        return not any(self.rot)

    def conjugate(self) -> "Character":
        return Character(self.domain, tuple((-r) % 1 for r in self.rot))

    def __mul__(self, other: "Character") -> "Character":
        if self.domain != other.domain:
            raise PreconditionError("pointwise product needs a common domain")
        return Character(
            self.domain, tuple((a + b) % 1 for a, b in zip(self.rot, other.rot))
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

    factor_orders = [d for _, d in basis]
    chars = []
    for m in itertools.product(*(range(d) for d in factor_orders)):
        rot = []
        for g in k.elements:
            c = coords[quot.projection[g]]
            total = sum(
                (Fraction(mi * ci, di) for mi, ci, di in zip(m, c, factor_orders)),
                Fraction(0),
            )
            rot.append(total % 1)
        chars.append(Character(k, tuple(rot)))
    if len(chars) != k.order // comm.order:
        raise InvariantViolation("character count mismatch")
    return tuple(chars)


def restrict(chi: Character, sub: Subgroup) -> Character:
    if sub.parent is not chi.domain.parent:
        raise PreconditionError("restriction target lives in a different parent")
    if not sub.element_set <= chi.domain.element_set:
        raise PreconditionError("restriction target is not inside the domain")
    return Character(sub, tuple(chi.rotation(g) for g in sub.elements))


def kernel(chi: Character) -> Subgroup:
    members = [g for g, r in zip(chi.domain.elements, chi.rot) if r == 0]
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
        if all(restrict(rho, chi.domain) == chi for chi in constraints)
    ]
    if closure(parent, union).elements == target.elements and len(matches) > 1:
        raise InvariantViolation("constraints generate the target but fix no unique character")
    return matches[0] if matches else None
