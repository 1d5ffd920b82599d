"""Multiplicative character groups of subgroups of a finite group.

A character is stored as one integer exponent t per domain element, with
value exp(2*pi*i*t/e) and 0 <= t < e for e the parent's exponent: every
character value is an e-th root of unity, so the form is exact and
canonical, and character arithmetic is integer arithmetic mod e.  Rational
rotations t/e exist only at the boundary (from_rotations, rot, rotation).

A character from outside is validated in one numpy pass, where multiplicativity
is t[g*h] == (t[g] + t[h]) mod e over the domain's product table; products,
conjugates and combinations of validated characters are not validated again.
The product character of a commuting pair (commutation._commuting) is proven
instead against the generators of K1 and K2, t[x*s] == (t[x] + t[s]) mod e
for every x in K1K2 and s in span(K1) | span(K2), and built unchecked; the
full check runs on it only to name a failure.
"""

from __future__ import annotations

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
    if len(exps) != domain.order:
        raise ValueError("need one rotation per subgroup element")
    if exps and (min(exps) < 0 or max(exps) >= e):
        raise ValueError("rotations must lie in [0, 1)")
    t = np.array(exps, dtype=object if e >= INT64_LIMIT else np.int64)
    parent = domain.parent
    idx, where = domain.elements_np, domain.positions
    # -1 marks a product escaping the domain
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

    @classmethod
    def _unchecked(cls, domain: Subgroup, exps: tuple[int, ...]) -> "Character":
        """Trusted constructor for exps (Python ints) known to be a character."""
        out = object.__new__(cls)
        object.__setattr__(out, "domain", domain)
        object.__setattr__(out, "exps", exps)
        return out

    def _exps_on(self, sub: Subgroup) -> tuple[int, ...]:
        """exps restricted to a subgroup of the domain."""
        return tuple(self._exponents[sub.elements_np].tolist())

    @cached_property
    def _exponents(self) -> np.ndarray:
        """exps scattered over the whole parent as int64, -1 off the domain."""
        t = np.full(self.domain.parent.order, -1, dtype=np.int64)
        t[self.domain.elements_np] = self.exps
        return t

    @cached_property
    def rot(self) -> tuple[Fraction, ...]:
        """The rotations exps / e in [0, 1), aligned with domain.elements."""
        e = self.domain.parent.exponent
        return tuple(Fraction(t, e) for t in self.exps)

    def rotation(self, g: int) -> Fraction:
        # checked first: positions[-1] would read the last parent element
        i = self.domain.positions[g] if 0 <= g < self.domain.parent.order else -1
        if i < 0:
            raise KeyError(f"element {g} outside the character's domain")
        return self.rot[i]

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
        return Character._unchecked(self.domain, tuple(-t % e for t in self.exps))

    def __mul__(self, other: "Character") -> "Character":
        if self.domain != other.domain:
            raise PreconditionError("pointwise product needs a common domain")
        e = self.domain.parent.exponent
        return Character._unchecked(
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


def _powers(group: GroupTable, g: int, count: int) -> np.ndarray:
    """g^0, ..., g^(count-1), by a walk over mul_np."""
    out = [group.identity]
    for _ in range(count - 1):
        out.append(group.mul_np.item(out[-1], g))
    return np.array(out, dtype=np.int64)


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
    a = int(group.element_orders.argmax())  # the first element of maximal order
    d = group.element_order(a)
    if d == group.order:
        return [(a, d)]
    a_pows = _powers(group, a, d)
    cyc = Subgroup(group, tuple(sorted(a_pows.tolist())), (a,))
    quot = quotient_group(full_subgroup(group), cyc)
    # log[a^k] = k on <a>, -1 off it
    log = np.full(group.order, -1, dtype=np.int64)
    log[a_pows] = np.arange(d)
    out = [(a, d)]
    for q_gen, e in _abelian_basis(quot.group):
        x = quot.representatives[q_gen]  # the least element of the coset
        t = int(log[_powers(group, x, e + 1)[e]])
        if t < 0 or t % e != 0:
            raise InvariantViolation("maximal-order peeling lost exactness")
        x = group.mul_np.item(x, int(a_pows[(-(t // e)) % d]))
        if _powers(group, x, e + 1)[e] != group.identity:
            raise InvariantViolation("corrected generator has wrong order")
        out.append((x, e))
    return out


# keyed by the parent group object, so bounded for callers that build fresh
# groups: one paper-suite run holds 189 entries, and S6 has 1,455 subgroups
@lru_cache(maxsize=2048)
def character_group(k: Subgroup) -> tuple[Character, ...]:
    """All multiplicative characters of K, the trivial character first.

    Computed as the dual of K/[K,K]: decompose the abelianization into
    cyclic factors, enumerate coordinate characters, lift through the
    projection.  Validating the trivial and the basis characters proves the
    decomposition; the rest are their combinations, built unchecked.  The
    quotient is read through its mul_np only.
    """
    comm = commutator_subgroup(k)
    quot = quotient_group(k, comm)
    q_group = quot.group
    basis = _abelian_basis(q_group)
    dims = [d for _, d in basis]

    # x[c] = prod g_i^c_i over the coordinates c in grid order, row-major
    # (the order of itertools.product)
    x = np.array([q_group.identity], dtype=np.int64)
    for g, d in basis:
        x = q_group.mul_np[x[:, None], _powers(q_group, g, d)].ravel()
    if np.unique(x).size != x.size:
        raise InvariantViolation("cyclic factors are not independent")
    if x.size != q_group.order:
        raise InvariantViolation("cyclic factors do not span the abelianization")
    grid = np.indices(dims, dtype=np.int64).reshape(len(dims), x.size).T
    coord_of = np.empty(q_group.order, dtype=np.int64)
    coord_of[x] = np.arange(x.size)

    # character m takes coordinates c to sum m_i c_i / d_i turns, which is
    # exponent sum m_i c_i (e / d_i) mod e; the m run over the same grid as c
    e = k.parent.exponent
    # the projection is keyed in the order of k.elements
    projected = np.fromiter(quot.projection.values(), dtype=np.int64, count=k.order)
    element_coords = grid[coord_of[projected]]
    weights = grid * (e // np.array(dims, dtype=np.int64))
    exps = (weights @ element_coords.T % e).tolist()
    # m = 0 and the unit vectors are the grid rows summing to at most 1
    return tuple(
        Character(k, tuple(t)) if basic else Character._unchecked(k, tuple(t))
        for t, basic in zip(exps, grid.sum(axis=1) <= 1)
    )


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
