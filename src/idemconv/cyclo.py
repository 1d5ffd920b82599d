"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A field element is a row of integer coordinates over the power basis
1, zeta, ..., zeta^(d-1), d = phi(N), reduced modulo the N-th cyclotomic
polynomial, divided by one positive denominator that shares no factor with
the row.  That form is canonical, so equality at one conductor is an array
compare and zero tests are exact.  Values with different conductors are
promoted to the least common multiple before combining.

The row helpers take and return packed arrays (see pack): one row for a
CycloScalar, one per group element for a Measure.  They run the same numpy
code on int64 and object rows, on object ones once a bound on the results
reaches 2**62, so int64 never wraps.

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
from itertools import combinations
from math import gcd, lcm, prod
from typing import Sequence, Union

import numpy as np

__all__ = [
    "CycloScalar",
    "cyclotomic_poly",
    "field_tables",
    "promotion_rows",
    "pack",
    "normalize",
    "promote_rows",
    "conjugate_rows",
    "multiply_rows",
    "scale_rows",
    "add_rows",
]

RationalLike = Union[int, Fraction]

# entries and bounds below this stay int64; headroom below 2**63 - 1
INT64_LIMIT = 2**62
# float64 holds every integer below this in size exactly, so integer sums
# and products whose results stay below it are exact
FLOAT64_EXACT = 2**53


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
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    # the product of (x^(n/m) - 1)^mu(m) over squarefree m dividing n; the
    # factors with mu(m) = 1 come first, so every division is exact
    factors = [
        (len(ps) % 2, n // prod(ps))
        for k in range(len(primes) + 1)
        for ps in combinations(primes, k)
    ]
    poly = np.ones(1, dtype=object)
    for divide, d in sorted(factors):
        if divide:  # times -(1 + x^d + x^2d + ...): a running sum down each residue mod d
            blocks = np.concatenate((poly, np.zeros(-len(poly) % d, dtype=object))).reshape(-1, d)
            poly = -blocks.cumsum(axis=0).ravel()[: len(poly) - d]
        else:  # times x^d - 1
            pad = np.zeros(d, dtype=object)
            poly = np.concatenate((pad, poly)) - np.concatenate((poly, pad))
    return tuple(int(c) for c in poly)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _FieldTables:
    """Per-conductor reduction data, computed once and cached.

    pow_rows[j] is the basis vector of zeta^j for every exponent j that the
    arithmetic can produce: 0 <= j < max(N, 2*phi(N) - 1).  conj_rows[j] is
    the basis vector of zeta^-j, the conjugate of the j-th basis element;
    roots is pow_rows[:N] then a zero row.  pow_max and red_max bound the
    entries of pow_rows and of its first 2d-1 rows.
    """

    __slots__ = (
        "conductor", "degree", "pow_rows", "conj_rows", "roots", "toeplitz",
        "pow_max", "red_max",
    )

    def __init__(self, n: int):
        poly = cyclotomic_poly(n)
        d = len(poly) - 1
        low = np.array(poly[:d], dtype=np.int64)
        rows = np.zeros((max(n, 2 * d - 1), d), dtype=np.int64)
        rows[0, 0] = 1
        # multiplication by x: shift up one place, fold x^d = -low back in
        for j in range(1, len(rows)):
            prev = rows[j - 1]
            rows[j, 1:] = prev[:-1]
            rows[j] -= prev[-1] * low
        self.conductor = n
        self.degree = d
        self.pow_rows = _read_only(rows)
        self.conj_rows = _read_only(rows[(n - np.arange(d)) % n])
        self.roots = _read_only(np.vstack((rows[:n], np.zeros((1, d), dtype=np.int64))))
        # (s + [0])[toeplitz] is the d x (2d-1) matrix of multiplication by s
        shift = np.arange(2 * d - 1) - np.arange(d)[:, None]
        self.toeplitz = _read_only(np.where((shift >= 0) & (shift < d), shift, d))
        self.pow_max = max_abs(rows)
        self.red_max = max_abs(rows[: 2 * d - 1])


@lru_cache(maxsize=None)
def field_tables(n: int) -> _FieldTables:
    return _FieldTables(n)


@lru_cache(maxsize=None)
def promotion_rows(n: int, m: int) -> np.ndarray:
    """Basis vectors at conductor m for each power-basis element of Q(zeta_n)."""
    if m % n != 0:
        raise ValueError(f"conductor {n} does not divide {m}")
    return _read_only(field_tables(m).pow_rows[np.arange(field_tables(n).degree) * (m // n)])


# -- packed integer rows ---------------------------------------------------


def max_abs(a: np.ndarray) -> int:
    """The largest entry size of an int64 or object array, as a Python int."""
    # np.abs wraps -2**63 to itself; read as uint64 that is 2**63, its true size
    sizes = np.abs(a) if a.dtype == object else np.abs(a).view(np.uint64)
    return int(np.maximum.reduce(sizes, axis=None, initial=0))


def pack(rows) -> np.ndarray:
    """Nested integers or an int64/object array as a packed integer array:
    int64 when every entry is below 2**62 in size, object holding Python
    ints otherwise, so the dtype depends only on the value."""
    if not isinstance(rows, np.ndarray):
        try:
            rows = np.array(rows, dtype=np.int64)
        except OverflowError:
            rows = np.frompyfunc(int, 1, 1)(np.array(rows, dtype=object))
    fits = max_abs(rows) < INT64_LIMIT
    return rows if fits == (rows.dtype == np.int64) else rows.astype(np.int64 if fits else object)


def _exact(bound: int, op, *arrays: np.ndarray) -> np.ndarray:
    # op(*arrays) on object operands when its results may reach bound >= 2**62;
    # int64 results then stay below 2**62, so only object ones need packing
    if bound >= INT64_LIMIT:
        arrays = tuple(a.astype(object) for a in arrays)
    out = op(*arrays)
    return out if out.dtype == np.int64 else pack(out)


def _fold_exponents(counts: np.ndarray, n: int, bound: int) -> np.ndarray:
    """The rows sum_j counts[i, j] zeta^j at conductor n: an (m, n) array of
    integer counts, one column per exponent, folded into the power basis by
    pow_rows[:n].

    bound must bound the size of every partial sum of that product, as the
    sum of the sizes of a row's counts times pow_max does.  Below 2**53 the
    product runs in float64, where each partial sum is then an exact integer
    whatever the summation order; at or past it under the _exact rule.
    """
    rows = field_tables(n).pow_rows[:n]
    if bound < FLOAT64_EXACT:
        return (counts.astype(np.float64) @ rows.astype(np.float64)).astype(np.int64)
    return _exact(bound, np.matmul, counts, rows)


def normalize(rows, den: int) -> tuple[np.ndarray, int]:
    """rows / den in lowest terms: den > 0 and gcd(rows..., den) == 1."""
    if den == 0:
        raise ValueError("denominator must be nonzero")
    rows = rows if isinstance(rows, np.ndarray) and rows.dtype == np.int64 else pack(rows)
    g = gcd(int(np.gcd.reduce(rows, axis=None)), den)
    if den < 0:
        g = -g
    if g == 1:
        return rows, den
    return _exact(abs(g), lambda r: r // g, rows), den // g


def promote_rows(rows: np.ndarray, n_from: int, n_to: int) -> np.ndarray:
    """Re-express coordinate rows at conductor n_from at a multiple n_to.

    Promotion keeps rows in lowest terms: an algebraic integer of Q(zeta_n)
    divisible by c in Z[zeta_m] is divisible by c in Z[zeta_n].
    """
    if n_from == n_to:
        return rows
    bound = rows.shape[1] * max_abs(rows) * field_tables(n_to).pow_max
    return _exact(bound, np.matmul, rows, promotion_rows(n_from, n_to))


def conjugate_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Complex conjugate of each coordinate row at conductor n."""
    tab = field_tables(n)
    return _exact(rows.shape[1] * max_abs(rows) * tab.pow_max, np.matmul, rows, tab.conj_rows)


def multiply_rows(rows: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Field product of each coordinate row with s at conductor n, where s is
    one row or a stack of one row per row: the polynomial product by s,
    reduced by pow_rows."""
    tab = field_tables(n)
    d = tab.degree
    bound = (2 * d - 1) * d * max(1, tab.red_max) * max_abs(rows) * max_abs(s)

    def product(r, s):
        padded = np.zeros(s.shape[:-1] + (d + 1,), dtype=s.dtype)
        padded[..., :d] = s
        return (r[:, None] @ padded[..., tab.toeplitz])[:, 0] @ tab.pow_rows[: 2 * d - 1]

    return _exact(bound, product, rows, s)


def scale_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """rows * p for an integer p; the bound covers p, even against zero rows."""
    return _exact(max(1, max_abs(rows)) * abs(p), lambda r: r * p, rows)


def add_rows(a: np.ndarray, da: int, b: np.ndarray, db: int) -> tuple[np.ndarray, int]:
    """a / da + b / db row by row, over lcm(da, db); not normalized."""
    den = lcm(da, db)
    fa, fb = den // da, den // db
    # the bound covers fa and fb themselves, even against zero rows
    bound = max(fa, fb) * (max_abs(a) + max_abs(b) + 1)
    return _exact(bound, lambda a, b: fa * a + fb * b, a, b), den


class CycloScalar:
    """An element rows / den of Q(zeta_N) in canonical reduced form; rows is
    a read-only (1, phi(N)) packed array."""

    __slots__ = ("conductor", "rows", "den")

    def __init__(self, conductor: int, coeffs: Sequence[RationalLike]):
        tab = field_tables(conductor)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != tab.degree:
            raise ValueError(
                f"need {tab.degree} coefficients at conductor {conductor}, got {len(vec)}"
            )
        den = lcm(*(f.denominator for f in vec))
        num = [f.numerator * (den // f.denominator) for f in vec]
        rows, self.den = normalize([num], den)
        self.rows = _read_only(rows)
        self.conductor = conductor

    @classmethod
    def from_row(cls, conductor: int, num, den: int) -> "CycloScalar":
        """Trusted constructor: num / den with phi(conductor) integer entries.

        Normalizes but does not validate; for rows produced by the library.
        """
        out = object.__new__(cls)
        rows, out.den = normalize(num, den)
        out.rows = _read_only(rows.reshape(1, -1))
        out.conductor = conductor
        return out

    @classmethod
    def from_rational(cls, value: RationalLike, conductor: int = 1) -> "CycloScalar":
        q = Fraction(value)
        d = field_tables(conductor).degree
        return cls.from_row(conductor, [q.numerator] + [0] * (d - 1), q.denominator)

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
    def num(self) -> tuple[int, ...]:
        """The numerator as a tuple of Python ints."""
        return tuple(self.rows[0].tolist())

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def promote(self, conductor: int) -> "CycloScalar":
        if conductor == self.conductor:
            return self
        rows = promote_rows(self.rows, self.conductor, conductor)
        return CycloScalar.from_row(conductor, rows, self.den)

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
        rows, den = add_rows(a.rows, a.den, b.rows, b.den)
        return CycloScalar.from_row(a.conductor, rows, den)

    __radd__ = __add__

    def __neg__(self) -> "CycloScalar":
        return CycloScalar.from_row(self.conductor, -self.rows, self.den)

    def __sub__(self, other) -> "CycloScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CycloScalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CycloScalar":
        if isinstance(other, (int, Fraction)):
            rows = scale_rows(self.rows, other.numerator)
            return CycloScalar.from_row(self.conductor, rows, self.den * other.denominator)
        other = self._coerce(other)
        # a rational factor scales the row without promotion
        if other.is_rational():
            a, q = self, other
        elif self.is_rational():
            a, q = other, self
        else:
            a, b = self._common(other)
            rows = multiply_rows(a.rows, b.rows[0], a.conductor)
            return CycloScalar.from_row(a.conductor, rows, a.den * b.den)
        p = q.num[0]
        return CycloScalar.from_row(a.conductor, scale_rows(a.rows, p), a.den * q.den)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloScalar":
        rows = conjugate_rows(self.rows, self.conductor)
        return CycloScalar.from_row(self.conductor, rows, self.den)

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
