"""Convolution-power dynamics.

Exact predictions (limit measures, coset obstructions) paired with float
power iteration as the empirical witness; plus exact decay of the powers of
the product of the factor Haar measures, optionally twisted by characters,
on a free product C_m * C_n of two finite cyclic groups.

The free-product walk holds each power as integer arrays: one id per
distinct reduced word and one packed coefficient row per word (see
idemconv.cyclo), over the denominator (m n)^k at one conductor, rotated or
not.  Each power is the previous one times the m n base words, formed in
slices of _SLICE_CANDIDATES products and summed by id.  The word budget
caps the distinct words of every power, counted before zero coefficients
are dropped; the walk stops at the first power past it.
"""

from __future__ import annotations

import cmath
import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .characters import Character, find_extension
from .cyclo import INT64_LIMIT, field_tables, max_abs, pack
from .errors import BudgetExceeded, InvariantViolation, PreconditionError
from .groups import Subgroup, closure, normal_subgroups
from .measures import (
    FloatMeasure,
    Measure,
    _char_idem_product,
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
    "DecayReport",
    "free_product_decay",
    "DEFAULT_WORD_BUDGET",
]


def _power_iterate(
    step: FloatMeasure, target: FloatMeasure, tol: float, n_max: int
) -> tuple[FloatMeasure, int, float]:
    """Powers step^1, step^2, ... until one is within tol of target or the
    n_max-th is reached: the last power, its exponent and its distance."""
    v = step
    res = v.distance(target)
    it = 1
    while res > tol and it < n_max:
        v = v.convolve(step)
        it += 1
        res = v.distance(target)
    return v, it, res


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
        # supp lies in the coset x N exactly when x^-1 supp lies in N
        x = supp[0]
        if (n.positions[parent.mul_np[parent.inv_np[x], list(supp)]] >= 0).all():
            hit = (n, int(parent.mul_np[x, n.elements_np].min()))
            break

    step = FloatMeasure.from_measure(mu)
    if hit is None:
        _, it, res = _power_iterate(step, FloatMeasure.from_measure(haar(k)), tol, n_max)
        if not res <= tol:  # also catches a NaN residual
            raise InvariantViolation(
                f"no coset obstruction but powers did not reach haar within {n_max}"
            )
        return StrombergResult("converges", k, limit=haar(k), iterations=it, residual=res)

    n_sub, rep = hit
    worst = float("inf")
    v = prev = step
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
    either raises InvariantViolation.  nu is the product of the factors: the
    first two, both character idempotents, are multiplied from exponent
    counts, and every later factor and the absorption compare by the
    convolution kernel.
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

    if len(factors) == 1:
        nu = char_idem(*factors[0])
    else:
        nu = _char_idem_product(*factors[0], *factors[1])
    for k, rho in factors[2:]:
        nu = convolve(nu, char_idem(k, rho))

    if ext is not None:
        predicted = char_idem(big, ext)
        kind = "limit"
        if convolve(nu, predicted) != predicted:
            raise InvariantViolation("absorption identity failed")
    else:
        predicted = Measure.zero(parent)
        kind = "zero_limit"

    v, it, res = _power_iterate(
        FloatMeasure.from_measure(nu), FloatMeasure.from_measure(predicted), tol, n_max
    )
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
    chain = factors[0][0].elements_np
    for k, rho in factors[1:]:
        nu = convolve(nu, char_idem(k, rho))
        chain = np.unique(parent.mul_np[chain[:, None], k.elements_np])
    idem = convolve(nu, nu) == nu
    if not idem:
        return Corollary35Report(nu, False, False, None, None, True)
    if nu.is_zero():
        return Corollary35Report(nu, True, True, None, None, True)
    # the chain K_1...K_m holds every K_j, so it generates what they do
    big = closure(parent, chain.tolist())
    chain_ok = bool(np.array_equal(chain, big.elements_np))
    ext = find_extension(big, [rho for _, rho in factors])
    passed = chain_ok and ext is not None
    if not passed:
        raise InvariantViolation(
            "nonzero idempotent product violates the corollary's conclusion"
        )
    return Corollary35Report(nu, True, False, chain_ok, ext, passed)


# -- free products of two finite cyclic groups ---------------------------------


DEFAULT_WORD_BUDGET = 5_000_000

# (power word, base word) products formed per slice of a power, so a power
# in the making holds at most the budget plus one slice of words
_SLICE_CANDIDATES = 1 << 20


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


def _times_letter(length, last, key, exp, factor: int):
    """Right-multiply reduced words by g^exp, exp = arange(order) shaped to
    broadcast, g the generator of factor 0 (a) or 1 (b): merge into a last
    letter of that factor, cancel it, or append."""
    order = exp.size
    radix = order - 1
    ends = (length > 0) & (last == factor)
    digit = key % radix
    merged = (digit + 1 + exp) % order
    cancel = ends & (merged == 0)
    append = ~ends & (exp != 0)
    key = np.where(
        append,
        key * radix + exp - 1,
        np.where(cancel, key // radix, np.where(ends, key - digit + merged - 1, key)),
    )
    last = np.where(append, factor, np.where(cancel, 1 - factor, last))
    return length + append - cancel, last, key


def _sum_by_id(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids, ascending, and the sum of the rows of each.

    The sort is stable, a merge sort that finds runs: ids that are the held
    words, already ascending, followed by a new slice cost a sort of the
    slice and one linear merge.
    """
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    return ids[starts], np.add.reduceat(rows[order], starts, axis=0)


def _times_base(ids, rows, span, exps, mats, budget):
    """A power times the base measure, its words and rows with zeros dropped.

    A word is its id key * span + tag (see free_product_decay); exps are the
    exponent ranges of a and b, shaped (1, m, 1) and (1, 1, n).  Column block
    b of mats is the matrix of multiplication by base coefficient b, so the
    rows gain the denominator m n.  Raises BudgetExceeded once more than
    budget distinct words are held, counting words whose coefficients cancel.
    """
    d, width = mats.shape
    step = max(1, _SLICE_CANDIDATES * d // width)
    # a product word sums at most one term per base word (width // d of
    # them), each a sum of d products
    if width * max_abs(rows) * max_abs(mats) >= INT64_LIMIT:
        rows, mats = rows.astype(object), mats.astype(object)
    out_ids, out_rows = ids[:0], rows[:0]
    for lo in range(0, len(ids), step):
        key, tag = np.divmod(ids[lo : lo + step, None, None], span)
        words = ((tag + 1) >> 1, (tag + 1) & 1, key)
        for factor, exp in enumerate(exps):
            words = _times_letter(*words, exp, factor)
        length, last, key = words
        new = key * span + np.maximum(2 * length + last - 1, 0)
        terms = (rows[lo : lo + step] @ mats).reshape(-1, d)
        out_ids, out_rows = _sum_by_id(
            np.concatenate((out_ids, new.ravel())), np.concatenate((out_rows, terms))
        )
        if len(out_ids) > budget:
            raise BudgetExceeded(f"word support exceeded budget {budget}")
    keep = (out_rows != 0).any(axis=1)
    return out_ids[keep], pack(out_rows[keep])


def _largest_modulus(rows: np.ndarray, den: int, roots: np.ndarray) -> float:
    """The largest |row / den| over rows at the conductor of roots, each
    coordinate divided with one rounding and the columns summed in order,
    as CycloScalar.to_complex does."""
    if max(max_abs(rows), den) < 2**53:
        q = rows / den
    else:
        q = (rows.astype(object) / den).astype(float)
    z = q[:, 0] * roots[0]
    for j in range(1, len(roots)):
        z = z + q[:, j] * roots[j]
    return float(np.abs(z).max())


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

    A reduced word alternates letters a^e (0 < e < m) and b^e (0 < e < n),
    so it is three integers: its length, its last factor (0 for a, 1 for b)
    and a key whose mixed-radix digits are e - 1, in radix m - 1 or n - 1,
    the last letter lowest.  Power k holds its distinct words as ids, key *
    span + tag with tag = 2 * length + last - 1 (0 for the empty word), and
    their coefficients as packed rows over (m n)^k at one conductor, the lcm
    of the rotation denominators.  A key is below the number of words of its
    length and last factor; a power holds all words of its longest shape, so
    ids stay below budget * m n * span, far inside int64.
    """
    if m < 2 or n < 2:
        raise PreconditionError("both cyclic orders must be at least 2")
    if budget is None:
        budget = _word_budget()
    if m * n > budget:  # the base measure has exactly m n words a^i b^j
        raise BudgetExceeded(f"word support exceeded budget {budget}")
    turns = [Fraction(0)] * 2 if rotations is None else [Fraction(r) % 1 for r in rotations]
    conductor = lcm(*(t.denominator for t in turns))
    tab = field_tables(conductor)
    d = tab.degree
    exps = (np.arange(m).reshape(1, m, 1), np.arange(n).reshape(1, 1, n))
    # the coefficient of a^i b^j is zeta^t / (m n), t = t_a i + t_b j; it sends
    # the basis element zeta^k to the row of zeta^(k + t)
    t = sum(int(turn * conductor) * e for turn, e in zip(turns, exps)).ravel()
    mats = tab.pow_rows[(np.arange(d)[:, None] + t) % conductor].reshape(d, -1)
    roots = np.array([cmath.exp(2j * cmath.pi * j / conductor) for j in range(d)])
    span = 4 * n_max + 1  # tags of words up to length 2 n_max

    maxes: list[float] = []
    supports: list[int] = []
    exact: list[Optional[Fraction]] = []
    truncated = False
    ids, rows = np.zeros(1, dtype=np.int64), tab.pow_rows[:1]  # the empty word, 1
    for k in range(1, n_max + 1):
        try:
            ids, rows = _times_base(ids, rows, span, exps, mats, budget)
        except BudgetExceeded:
            truncated = True
            break
        den = (m * n) ** k
        maxes.append(_largest_modulus(rows, den, roots))
        supports.append(len(ids))
        exact.append(Fraction(max_abs(rows), den) if rotations is None else None)
    decreasing = all(b < a for a, b in zip(maxes, maxes[1:]))
    below = next((i + 1 for i, v in enumerate(maxes) if v < eps), None)
    return DecayReport(
        (m, n),
        tuple(maxes),
        tuple(supports),
        tuple(exact),
        decreasing,
        below,
        truncated,
    )
