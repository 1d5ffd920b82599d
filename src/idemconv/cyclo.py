"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A field element is a row of integer coordinates over the power basis
1, zeta, ..., zeta^(d-1), d = phi(N), reduced modulo the N-th cyclotomic
polynomial, divided by one positive denominator that shares no factor with
the row.  That form is canonical, so equality at one conductor is a tuple
compare and zero tests are exact.  Values with different conductors are
promoted to the least common multiple before combining.

The row helpers (normalize, apply_matrix, promote_rows, conjugate_rows,
multiply_rows, add_rows) work on a tuple of such rows over one shared
denominator: a CycloScalar is one row, a Measure one row per group element.

>>> w = CycloScalar.root_of_unity(Fraction(1, 3))
>>> (w * w * w).rational()
Fraction(1, 1)
>>> (w + w.conjugate()).rational()
Fraction(-1, 1)
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

__all__ = [
    "CycloScalar",
    "cyclotomic_poly",
    "field_tables",
    "promotion_rows",
    "normalize",
    "apply_matrix",
    "promote_rows",
    "conjugate_rows",
    "multiply_rows",
    "add_rows",
]

RationalLike = Union[int, Fraction]
IntRows = tuple[tuple[int, ...], ...]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_divexact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # Exact division of integer polynomials with monic divisor.
    num_l = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    qd = len(num_l) - 1 - dd
    quot = [0] * (qd + 1)
    for k in range(qd, -1, -1):
        c = num_l[k + dd]
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                num_l[k + j] -= c * dj
    if any(num_l):
        raise ValueError("division not exact")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    """
    if n < 1:
        raise ValueError(f"bad index {n}")
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, cyclotomic_poly(d))
    return num


class _FieldTables:
    """Per-conductor reduction data, computed once and cached.

    pow_rows[j] is the basis vector of zeta^j for every exponent j that the
    arithmetic can produce: 0 <= j < max(N, 2*phi(N) - 1).  conj_rows[j] is
    the basis vector of zeta^-j, the conjugate of the j-th basis element.
    """

    __slots__ = ("conductor", "degree", "pow_rows", "conj_rows", "red_max")

    def __init__(self, n: int):
        poly = cyclotomic_poly(n)
        d = len(poly) - 1
        rows: list[tuple[int, ...]] = []
        cur = [1] + [0] * (d - 1)
        top = max(n, 2 * d - 1)
        for _ in range(top):
            rows.append(tuple(cur))
            # multiply by x, then reduce the overflow coefficient
            lead = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if lead:
                for i in range(d):
                    cur[i] -= lead * poly[i]
        self.conductor = n
        self.degree = d
        self.pow_rows = tuple(rows)
        self.conj_rows = tuple(rows[(n - j) % n] for j in range(d))
        self.red_max = max(abs(c) for row in rows[: 2 * d - 1] for c in row)


@lru_cache(maxsize=None)
def field_tables(n: int) -> _FieldTables:
    return _FieldTables(n)


@lru_cache(maxsize=None)
def promotion_rows(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Basis vectors at conductor m for each power-basis element of Q(zeta_n)."""
    if m % n != 0:
        raise ValueError(f"conductor {n} does not divide {m}")
    step = m // n
    rows = field_tables(m).pow_rows
    return tuple(rows[(j * step) % m] for j in range(field_tables(n).degree))


# -- integer row helpers ---------------------------------------------------


def normalize(rows: Sequence[Sequence[int]], den: int) -> tuple[IntRows, int]:
    """rows / den in lowest terms: den > 0 and gcd(rows..., den) == 1."""
    if den == 0:
        raise ValueError("denominator must be nonzero")
    g = abs(den)
    for row in rows:
        g = gcd(g, *row)
        if g == 1:
            break
    if den < 0:
        g = -g
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple(tuple(c // g for c in row) for row in rows), den // g


def apply_matrix(rows: Sequence[Sequence[int]], mat: Sequence[Sequence[int]]) -> IntRows:
    """Each row r becomes sum_j r[j] * mat[j]; mat may have spare rows."""
    zero = (0,) * len(mat[0])
    out = []
    for row in rows:
        if not any(row):
            out.append(zero)
            continue
        vec = list(zero)
        for c, mrow in zip(row, mat):
            if c:
                for k, m in enumerate(mrow):
                    if m:
                        vec[k] += c * m
        out.append(tuple(vec))
    return tuple(out)


def promote_rows(rows: IntRows, n_from: int, n_to: int) -> IntRows:
    """Re-express coordinate rows at conductor n_from at a multiple n_to.

    Promotion keeps rows in lowest terms: an algebraic integer of Q(zeta_n)
    divisible by c in Z[zeta_m] is divisible by c in Z[zeta_n].
    """
    if n_from == n_to:
        return rows
    return apply_matrix(rows, promotion_rows(n_from, n_to))


def conjugate_rows(rows: Sequence[Sequence[int]], n: int) -> IntRows:
    """Complex conjugate of each coordinate row at conductor n."""
    return apply_matrix(rows, field_tables(n).conj_rows)


def multiply_rows(rows: Sequence[Sequence[int]], s: Sequence[int], n: int) -> IntRows:
    """Field product of each coordinate row with the row s at conductor n."""
    return apply_matrix([_poly_mul(row, s) for row in rows], field_tables(n).pow_rows)


def add_rows(
    a: Sequence[Sequence[int]], da: int, b: Sequence[Sequence[int]], db: int
) -> tuple[list[tuple[int, ...]], int]:
    """a / da + b / db row by row, over lcm(da, db); not normalized."""
    den = lcm(da, db)
    fa, fb = den // da, den // db
    rows = [tuple(fa * x + fb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]
    return rows, den


class CycloScalar:
    """An element num / den of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Sequence[RationalLike]):
        tab = field_tables(conductor)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != tab.degree:
            raise ValueError(
                f"need {tab.degree} coefficients at conductor {conductor}, got {len(vec)}"
            )
        den = lcm(*(f.denominator for f in vec))
        num = tuple(f.numerator * (den // f.denominator) for f in vec)
        (self.num,), self.den = normalize((num,), den)
        self.conductor = conductor

    @classmethod
    def from_row(cls, conductor: int, num: Sequence[int], den: int) -> "CycloScalar":
        """Trusted constructor: num / den with phi(conductor) integer entries.

        Normalizes but does not validate; for rows produced by the library.
        """
        out = object.__new__(cls)
        (out.num,), out.den = normalize((num,), den)
        out.conductor = conductor
        return out

    @classmethod
    def from_rational(cls, value: RationalLike, conductor: int = 1) -> "CycloScalar":
        q = Fraction(value)
        d = field_tables(conductor).degree
        return cls.from_row(conductor, (q.numerator,) + (0,) * (d - 1), q.denominator)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycloScalar":
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> "CycloScalar":
        return cls.from_rational(1, conductor)

    @classmethod
    def root_of_unity(cls, rotation: Fraction, conductor: int | None = None) -> "CycloScalar":
        """exp(2*pi*i*rotation) for rational rotation, reduced mod 1."""
        rot = Fraction(rotation) % 1
        if conductor is None:
            conductor = rot.denominator
        if conductor % rot.denominator != 0:
            raise ValueError(f"rotation {rot} needs conductor divisible by {rot.denominator}")
        t = (rot.numerator * (conductor // rot.denominator)) % conductor
        return cls.from_row(conductor, field_tables(conductor).pow_rows[t], 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def promote(self, conductor: int) -> "CycloScalar":
        if conductor == self.conductor:
            return self
        (num,) = promote_rows((self.num,), self.conductor, conductor)
        return CycloScalar.from_row(conductor, num, self.den)

    def _common(self, other: "CycloScalar") -> tuple["CycloScalar", "CycloScalar"]:
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.promote(m), other.promote(m)

    @staticmethod
    def _coerce(value) -> "CycloScalar":
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloScalar.from_rational(value)
        raise TypeError(f"cannot treat {type(value).__name__} as a cyclotomic scalar")

    def __add__(self, other) -> "CycloScalar":
        a, b = self._common(self._coerce(other))
        (num,), den = add_rows((a.num,), a.den, (b.num,), b.den)
        return CycloScalar.from_row(a.conductor, num, den)

    __radd__ = __add__

    def __neg__(self) -> "CycloScalar":
        return CycloScalar.from_row(self.conductor, tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "CycloScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CycloScalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CycloScalar":
        other = self._coerce(other)
        # a rational factor scales the row without promotion
        if other.is_rational():
            a, q = self, other
        elif self.is_rational():
            a, q = other, self
        else:
            a, b = self._common(other)
            (num,) = multiply_rows((a.num,), b.num, a.conductor)
            return CycloScalar.from_row(a.conductor, num, a.den * b.den)
        p = q.num[0]
        return CycloScalar.from_row(a.conductor, tuple(c * p for c in a.num), a.den * q.den)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloScalar":
        (num,) = conjugate_rows((self.num,), self.conductor)
        return CycloScalar.from_row(self.conductor, num, self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_unit_modulus(self) -> bool:
        """Exact test of |z| = 1 via z * conj(z) = 1."""
        p = self * self.conjugate()
        return p.is_rational() and p.rational() == 1

    def to_complex(self) -> complex:
        n, den = self.conductor, self.den
        return sum(
            (c / den) * cmath.exp(2j * cmath.pi * j / n)
            for j, c in enumerate(self.num)
            if c
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational() == other
        if not isinstance(other, CycloScalar):
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equal values can live at different conductors

    def __repr__(self) -> str:
        return f"CycloScalar({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        """Algebraic rendering: "3/4", "-z8^3", "1/2 + (1/3)z5^2"."""
        if self.is_rational():
            return str(self.rational())
        n = self.conductor
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
                continue
            power = f"z{n}" if j == 1 else f"z{n}^{j}"
            if c == 1:
                term = power
            elif c == -1:
                term = f"-{power}"
            else:
                term = f"({c}){power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out
