"""Dict-of-words free-product walk, the reference for idemconv.dynamics.

A word of C_m * C_n is a FreeWord object and a measure a dict from words to
Fraction or CycloScalar coefficients; _word_convolve multiplies them pair by
pair.  It shares no code with the array walk of free_product_decay, so the
dynamics tests compare the two; reference_decay runs the walk and returns
the fields of a DecayReport.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from idemconv.cyclo import CycloScalar
from idemconv.errors import BudgetExceeded

__all__ = ["FreeWord", "reference_decay"]


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
                raise BudgetExceeded(f"word support exceeded budget {budget}")
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



def reference_decay(
    m: int,
    n: int,
    *,
    rotations: Optional[tuple[Fraction, Fraction]] = None,
    n_max: int = 8,
    budget: int,
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[Optional[Fraction], ...], bool]:
    """max_by_power, support_by_power, exact_max_by_power and
    budget_exceeded of free_product_decay, from the dict walk."""
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
        maxes.append(max(v for _, v in vals))
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
    return tuple(maxes), tuple(supports), tuple(exact), truncated
