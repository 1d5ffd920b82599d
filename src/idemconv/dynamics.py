"""Convolution-power dynamics.

Exact predictions (limit measures, coset obstructions) paired with float
power iteration as the empirical witness; plus exact rational decay of
alternating-word measures on a free product of two finite cyclic groups.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .characters import Character, find_extension
from .cyclo import CycloScalar
from .errors import BudgetExceeded, InvariantViolation, PreconditionError
from .groups import Subgroup, closure, normal_subgroups
from .measures import (
    FloatMeasure,
    Measure,
    char_idem,
    convolve,
    haar,
    is_probability,
)

__all__ = [
    "StrombergResult",
    "stromberg_check",
    "LimitReport",
    "idempotent_power_limit",
    "Corollary35Report",
    "verify_corollary_35",
    "FreeWord",
    "DecayReport",
    "free_product_decay",
    "DEFAULT_WORD_BUDGET",
]


# -- Stromberg dichotomy -------------------------------------------------------


@dataclass(frozen=True)
class StrombergResult:
    """kind "converges": powers tend to haar(generated); kind "obstructed":
    the support sits inside coset_rep * obstruction, a proper normal coset,
    and powers never settle.  iterations/residual describe the float run
    that corroborated the verdict."""

    kind: str
    generated: Subgroup
    limit: Optional[Measure] = None
    obstruction: Optional[Subgroup] = None
    coset_rep: Optional[int] = None
    iterations: int = 0
    residual: float = 0.0


def stromberg_check(
    mu: Measure, *, tol: float = 1e-9, n_max: int = 500
) -> StrombergResult:
    """Dichotomy for convolution powers of a probability measure.

    Enumerates proper normal subgroups of K = <supp mu> in ascending
    (order, elements) order and reports the first coset obstruction; with
    no obstruction the powers converge to haar(K).  Both branches are
    corroborated by float iteration before returning.
    """
    if not is_probability(mu):
        raise PreconditionError("stromberg_check needs a probability measure")
    parent = mu.parent
    supp = mu.support()
    k = closure(parent, supp)

    hit: Optional[tuple[Subgroup, int]] = None
    for n in normal_subgroups(k):
        if n.order == k.order:
            continue
        nset = n.element_set
        x = supp[0]
        xinv = parent.inv[x]
        if all(parent.mul[xinv][s] in nset for s in supp):
            coset = sorted(parent.mul[x][m] for m in n.elements)
            hit = (n, coset[0])
            break

    v = FloatMeasure.from_measure(mu)
    step = FloatMeasure.from_measure(mu)
    if hit is None:
        target = FloatMeasure.from_measure(haar(k))
        res = v.distance(target)
        it = 1
        while res > tol and it < n_max:
            v = v.convolve(step)
            it += 1
            res = v.distance(target)
        if not res <= tol:  # also catches a NaN residual
            raise InvariantViolation(
                f"no coset obstruction but powers did not reach haar within {n_max}"
            )
        return StrombergResult("converges", k, limit=haar(k), iterations=it, residual=res)

    n_sub, rep = hit
    worst = float("inf")
    prev = v
    it = 0
    for it in range(1, 65):
        v = v.convolve(step)
        worst = min(worst, v.distance(prev))
        prev = v
    if not worst > 0.1:
        raise InvariantViolation("obstruction found but consecutive powers settled")
    return StrombergResult(
        "obstructed", k, obstruction=n_sub, coset_rep=rep, iterations=it, residual=worst
    )


# -- alternating-product limits -------------------------------------------------


@dataclass(frozen=True)
class LimitReport:
    """kind "limit" (predicted contractive idempotent) or "zero_limit";
    empirical holds the last float power, agreement the tolerance check."""

    kind: str
    predicted: Measure
    extension: Optional[Character]
    empirical: np.ndarray
    iterations: int
    residual: float
    agreement: bool


def idempotent_power_limit(
    factors: Sequence[tuple[Subgroup, Character]],
    *,
    tol: float = 1e-9,
    n_max: int = 500,
) -> LimitReport:
    """Limit of powers of a product of contractive idempotents.

    With L generated by all the K_j, the limit is rho*m_L when one
    character rho on L restricts to every rho_j, and zero otherwise; the
    exact prediction is checked against float power iteration, and the
    absorption identity nu * limit = limit is checked exactly; a failure of
    either raises InvariantViolation.
    """
    if not factors:
        raise PreconditionError("need at least one factor")
    parent = factors[0][0].parent
    for k, rho in factors:
        if rho.domain != k:
            raise PreconditionError("character domain differs from its subgroup")
    union: list[int] = []
    for k, _ in factors:
        union.extend(k.elements)
    big = closure(parent, union)
    ext = find_extension(big, [rho for _, rho in factors])

    nu = char_idem(*factors[0])
    for k, rho in factors[1:]:
        nu = convolve(nu, char_idem(k, rho))

    if ext is not None:
        predicted = char_idem(big, ext)
        kind = "limit"
        if convolve(nu, predicted) != predicted:
            raise InvariantViolation("absorption identity failed")
    else:
        predicted = Measure.zero(parent)
        kind = "zero_limit"

    target = FloatMeasure.from_measure(predicted)
    step = FloatMeasure.from_measure(nu)
    v = step
    res = v.distance(target)
    it = 1
    while res > tol and it < n_max:
        v = v.convolve(step)
        it += 1
        res = v.distance(target)
    agreement = res <= tol
    if not agreement:
        raise InvariantViolation(f"float iteration stalled at residual {res:.3g}")
    return LimitReport(kind, predicted, ext, v.values, it, res, agreement)


@dataclass(frozen=True)
class Corollary35Report:
    nu: Measure
    is_idempotent: bool
    is_zero: bool
    chain_is_group: Optional[bool]
    extension: Optional[Character]
    passed: bool


def verify_corollary_35(
    factors: Sequence[tuple[Subgroup, Character]]
) -> Corollary35Report:
    """If the product of the factor idempotents is a nonzero idempotent,
    the product set K_1...K_m must already be the group it generates and
    the factor characters must share an extension; vacuous otherwise."""
    if not factors:
        raise PreconditionError("need at least one factor")
    parent = factors[0][0].parent
    nu = char_idem(*factors[0])
    chain = factors[0][0].elements
    union: list[int] = list(factors[0][0].elements)
    for k, rho in factors[1:]:
        nu = convolve(nu, char_idem(k, rho))
        chain = tuple(
            sorted({parent.mul[a][b] for a in chain for b in k.elements})
        )
        union.extend(k.elements)
    idem = convolve(nu, nu) == nu
    if not idem:
        return Corollary35Report(nu, False, False, None, None, True)
    if nu.is_zero():
        return Corollary35Report(nu, True, True, None, None, True)
    big = closure(parent, union)
    chain_ok = chain == big.elements
    ext = find_extension(big, [rho for _, rho in factors])
    passed = chain_ok and ext is not None
    if not passed:
        raise InvariantViolation(
            "nonzero idempotent product violates the corollary's conclusion"
        )
    return Corollary35Report(nu, True, False, chain_ok, ext, passed)


# -- free products of two finite cyclic groups ---------------------------------


DEFAULT_WORD_BUDGET = 5_000_000


def _word_budget() -> int:
    raw = os.environ.get("IDEMCONV_WORD_BUDGET", "")
    if not raw:
        return DEFAULT_WORD_BUDGET
    try:
        budget = int(raw)
        if budget < 1:
            raise ValueError
    except ValueError:
        raise PreconditionError(
            f"IDEMCONV_WORD_BUDGET must be a positive integer, got {raw!r}"
        ) from None
    return budget


@dataclass(frozen=True)
class FreeWord:
    """Normal-form word in C_m * C_n.

    letters is an alternating tuple of (slot, exponent) with slot 0 for the
    C_m generator a, slot 1 for the C_n generator b, exponents reduced and
    nonzero.  The empty tuple is the identity.
    """

    letters: tuple[tuple[int, int], ...]
    orders: tuple[int, int]

    def __post_init__(self):
        prev = -1
        for slot, exp in self.letters:
            if slot not in (0, 1):
                raise ValueError(f"slot {slot} out of range")
            if slot == prev:
                raise ValueError("letters must alternate between the factors")
            if not 0 < exp < self.orders[slot]:
                raise ValueError(f"exponent {exp} invalid for order {self.orders[slot]}")
            prev = slot

    @classmethod
    def identity(cls, orders: tuple[int, int]) -> "FreeWord":
        return cls((), orders)

    @classmethod
    def generator(cls, slot: int, exp: int, orders: tuple[int, int]) -> "FreeWord":
        exp %= orders[slot]
        if exp == 0:
            return cls.identity(orders)
        return cls(((slot, exp),), orders)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.orders != other.orders:
            raise ValueError("words from different free products")
        out = list(self.letters)
        for slot, exp in other.letters:
            if out and out[-1][0] == slot:
                merged = (out[-1][1] + exp) % self.orders[slot]
                if merged == 0:
                    out.pop()
                else:
                    out[-1] = (slot, merged)
            else:
                out.append((slot, exp))
        return FreeWord(tuple(out), self.orders)

    def inverse(self) -> "FreeWord":
        inv = tuple(
            (slot, self.orders[slot] - exp) for slot, exp in reversed(self.letters)
        )
        return FreeWord(inv, self.orders)

    def __len__(self) -> int:
        return len(self.letters)

    def label(self) -> str:
        if not self.letters:
            return "e"
        names = "ab"
        return "".join(
            names[s] + (f"^{e}" if e > 1 else "") for s, e in self.letters
        )


Scalar = Union[Fraction, CycloScalar]
WordMeasure = dict[FreeWord, Scalar]


def _word_convolve(
    mu: WordMeasure, nu: WordMeasure, budget: int
) -> WordMeasure:
    out: WordMeasure = {}
    for w1, c1 in mu.items():
        for w2, c2 in nu.items():
            w = w1 * w2
            prev = out.get(w)
            if prev is not None:
                out[w] = prev + c1 * c2
            elif len(out) >= budget:  # w would be word budget + 1
                raise BudgetExceeded(
                    f"word support exceeded budget {budget}", partial=out
                )
            else:
                out[w] = c1 * c2
    return {
        w: c
        for w, c in out.items()
        if not (c.is_zero() if isinstance(c, CycloScalar) else c == 0)
    }


def _abs_of(c: Scalar) -> float:
    if isinstance(c, CycloScalar):
        return abs(c.to_complex())
    return abs(float(c))


@dataclass(frozen=True)
class DecayReport:
    orders: tuple[int, int]
    max_by_power: tuple[float, ...]
    support_by_power: tuple[int, ...]
    exact_max_by_power: tuple[Optional[Fraction], ...]
    strictly_decreasing: bool
    below_eps_at: Optional[int]
    budget_exceeded: bool


def free_product_decay(
    m: int,
    n: int,
    *,
    rotations: Optional[tuple[Fraction, Fraction]] = None,
    n_max: int = 8,
    eps: float = 0.1,
    budget: Optional[int] = None,
) -> DecayReport:
    """Coefficient decay of powers of the product of the two factor Haar
    measures inside C_m * C_n (characters optional via generator rotations).

    Exact arithmetic throughout; every coefficient of the n-th power tends
    to zero as n grows because the generated subgroup is infinite.
    """
    if m < 2 or n < 2:
        raise PreconditionError("both cyclic orders must be at least 2")
    if budget is None:
        budget = _word_budget()
    if m * n > budget:  # the base measure has exactly m n words a^i b^j
        raise BudgetExceeded(f"word support exceeded budget {budget}")
    orders = (m, n)

    def factor_haar(slot: int, order: int, rot: Optional[Fraction]) -> WordMeasure:
        out: WordMeasure = {}
        for e in range(order):
            w = FreeWord.generator(slot, e, orders)
            if rot is None:
                out[w] = Fraction(1, order)
            else:
                out[w] = CycloScalar.root_of_unity(rot * e) * Fraction(1, order)
        return out

    r0, r1 = rotations if rotations is not None else (None, None)
    base = _word_convolve(factor_haar(0, m, r0), factor_haar(1, n, r1), budget)

    maxes: list[float] = []
    supports: list[int] = []
    exact: list[Optional[Fraction]] = []
    truncated = False
    power = base
    for _ in range(n_max):
        vals = [
            (abs(c) if isinstance(c, Fraction) else None, _abs_of(c))
            for c in power.values()
        ]
        top = max(v for _, v in vals)
        maxes.append(top)
        supports.append(len(power))
        if rotations is None:
            exact.append(max((f for f, _ in vals), default=Fraction(0)))
        else:
            exact.append(None)
        if len(maxes) == n_max:
            break
        try:
            power = _word_convolve(power, base, budget)
        except BudgetExceeded:
            truncated = True
            break
    decreasing = all(b < a for a, b in zip(maxes, maxes[1:]))
    below = next((i + 1 for i, v in enumerate(maxes) if v < eps), None)
    return DecayReport(
        orders,
        tuple(maxes),
        tuple(supports),
        tuple(exact),
        decreasing,
        below,
        truncated,
    )
