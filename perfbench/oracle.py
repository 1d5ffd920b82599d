"""Brute-force oracle for the commutation verdicts of the S5 sweep.

The product (rho1 m_K1) * (rho2 m_K2) at x is
    1/(|K1||K2|) * sum over a in K1, b in K2 with ab = x of zeta_N^(t1(a) + t2(b)),
so it is an exact multiset of N-th roots of unity per group element.  The
oracle counts that multiset with numpy and reduces it modulo the N-th
cyclotomic polynomial, which gives the canonical power-basis coordinates of
the field element.  It shares no code with the library beyond reading the
group table and the characters' rotation numbers, so a defect in the
library's convolution cannot hide itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = _cyclotomic(d)
        dd = len(den) - 1
        quot = [0] * (len(num) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = num[k + dd]
            quot[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
        if any(num):
            raise ArithmeticError(f"x^{n}-1 is not divisible by Phi_{d}")
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _power_basis(n: int) -> np.ndarray:
    """Row t holds the coordinates of zeta_n^t in the basis 1..zeta^(d-1)."""
    poly = _cyclotomic(n)
    d = len(poly) - 1
    rows = np.zeros((n, d), dtype=np.int64)
    cur = [1] + [0] * (d - 1)
    for t in range(n):
        rows[t] = cur
        lead = cur[-1]
        cur = [0] + cur[:-1]
        for i in range(d):
            cur[i] -= lead * poly[i]
    return rows


def _exponents(chi, n: int) -> np.ndarray:
    return np.array(
        [r.numerator * (n // r.denominator) % n for r in chi.rot], dtype=np.int64
    )


def product(parent, k1, rho1, k2, rho2, n: int) -> np.ndarray:
    """Numerators, over |K1||K2| and at conductor n, of (rho1 m_K1) * (rho2 m_K2).

    Row g holds the power-basis coordinates of the coefficient at g.
    """
    t1, t2 = _exponents(rho1, n), _exponents(rho2, n)
    a = np.asarray(k1.elements, dtype=np.int64)
    b = np.asarray(k2.elements, dtype=np.int64)
    x = parent.mul_np[a[:, None], b[None, :]]
    t = (t1[:, None] + t2[None, :]) % n
    counts = np.bincount((x * n + t).ravel(), minlength=parent.order * n)
    return counts.reshape(parent.order, n) @ _power_basis(n)


def check_verdict(parent, k1, rho1, k2, rho2, kind, witness, k12, rho12) -> bool:
    """True when a classify_pair verdict agrees with brute-force convolution.

    zero_product: both products vanish.  commute: both products equal
    rho12 m_K12.  non_commuting: the products first differ at the witness.
    """
    n = lcm(rho1.conductor, rho2.conductor)
    left = product(parent, k1, rho1, k2, rho2, n)
    right = product(parent, k2, rho2, k1, rho1, n)
    if kind == "zero_product":
        return not left.any() and not right.any()
    if kind == "commute":
        if k12 is None or rho12 is None or n % rho12.conductor:
            return False
        # both products carry denominator |K1||K2| = |K12| |K1 meet K2|
        meet = len(k1.element_set & k2.element_set)
        if len(k12.elements) * meet != len(k1.elements) * len(k2.elements):
            return False
        predicted = np.zeros_like(left)
        idx = np.asarray(k12.elements, dtype=np.int64)
        predicted[idx] = meet * _power_basis(n)[_exponents(rho12, n)]
        return np.array_equal(left, predicted) and np.array_equal(right, predicted)
    if kind == "non_commuting":
        differs = np.flatnonzero((left != right).any(axis=1))
        return differs.size > 0 and int(differs[0]) == witness
    return False
