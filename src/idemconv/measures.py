"""Measures on a finite group with exact cyclotomic coefficients.

A Measure stores one read-only integer array of shape (group order, phi(N)),
a power-basis coordinate row per group element, and one positive denominator,
at one conductor N and in lowest terms; the array is int64 when every entry is
below 2**62 in size and object (Python ints) otherwise.  The convolution kernel
consumes that packed form.  A CycloScalar is the same form with one row, so
coefficients cross the API without conversion; both use the row helpers of
idemconv.cyclo.  FloatMeasure is the complex128 companion of the dynamics.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from . import _kernel
from .characters import Character
from .cyclo import (
    CycloScalar,
    _fold_exponents,
    add_rows,
    conjugate_rows,
    field_tables,
    multiply_rows,
    normalize,
    pack,
    promote_rows,
    scale_rows,
)
from .errors import InvariantViolation, MismatchedParents, PreconditionError
from .groups import GroupTable, Subgroup, subgroup_from_elements

__all__ = [
    "Measure",
    "FloatMeasure",
    "IdempotentClass",
    "dirac",
    "haar",
    "char_idem",
    "convolve",
    "adjoint",
    "support",
    "tv_norm",
    "classify_idempotent",
    "is_probability",
    "measure_to_jsonable",
    "measure_from_jsonable",
]

@lru_cache(maxsize=None)
def _basis_complex(n: int) -> np.ndarray:
    d = field_tables(n).degree
    return np.exp(2j * np.pi * np.arange(d) / n)


class Measure:
    """Element of the convolution algebra of a finite group.

    Construct through from_coeffs, zero, or the dirac/haar/char_idem
    helpers; the raw constructor expects packed data already in lowest
    terms, which equality relies on, and checks only its shape.  Measures
    are immutable, so the support is computed once, on first use.
    """

    __slots__ = ("parent", "conductor", "rows", "den", "_support")

    def __init__(self, parent: GroupTable, conductor: int, rows, den: int):
        rows = rows if isinstance(rows, np.ndarray) else pack(rows)
        if rows.shape != (parent.order, field_tables(conductor).degree):
            raise ValueError(f"numerator shape {rows.shape} is not (group order, phi(conductor))")
        if den <= 0:
            raise ValueError("denominator must be positive")
        rows.flags.writeable = False
        self.parent = parent
        self.conductor = conductor
        self.rows = rows
        self.den = den
        self._support = None

    @classmethod
    def _build(cls, parent: GroupTable, conductor: int, rows, den: int) -> "Measure":
        return cls(parent, conductor, *normalize(rows, den))

    @classmethod
    def zero(cls, parent: GroupTable) -> "Measure":
        return cls(parent, 1, np.zeros((parent.order, 1), dtype=np.int64), 1)

    @classmethod
    def from_coeffs(
        cls, parent: GroupTable, coeffs: Sequence[CycloScalar | Fraction | int]
    ) -> "Measure":
        if len(coeffs) != parent.order:
            raise ValueError(f"need {parent.order} coefficients, got {len(coeffs)}")
        scalars = [
            c if isinstance(c, CycloScalar) else CycloScalar.from_rational(c)
            for c in coeffs
        ]
        n = lcm(*(s.conductor for s in scalars))
        scalars = [s.promote(n) for s in scalars]
        den = lcm(*(s.den for s in scalars))
        rows = np.vstack([scale_rows(s.rows, den // s.den) for s in scalars])
        return cls._build(parent, n, rows, den)

    # -- accessors ---------------------------------------------------------

    @property
    def num(self) -> tuple[tuple[int, ...], ...]:
        """The numerator as a tuple of rows of Python ints."""
        return tuple(map(tuple, self.rows.tolist()))

    def coeff(self, g: int) -> CycloScalar:
        return CycloScalar.from_row(self.conductor, self.rows[g], self.den)

    def coeffs(self) -> tuple[CycloScalar, ...]:
        return tuple(self.coeff(g) for g in range(self.parent.order))

    def support(self) -> tuple[int, ...]:
        if self._support is None:
            self._support = tuple(self.rows.any(axis=1).nonzero()[0].tolist())
        return self._support

    def is_zero(self) -> bool:
        return not self.rows.any()

    def to_complex(self) -> np.ndarray:
        return self.rows.astype(np.float64) @ _basis_complex(self.conductor) / self.den

    # -- linear structure ----------------------------------------------------

    def _require_sibling(self, other: "Measure") -> None:
        if self.parent is not other.parent:
            raise MismatchedParents(
                f"measures live on {self.parent.name} and {other.parent.name}"
            )

    def __add__(self, other: "Measure") -> "Measure":
        if not isinstance(other, Measure):
            return NotImplemented
        self._require_sibling(other)
        n = lcm(self.conductor, other.conductor)
        rows, den = add_rows(
            promote_rows(self.rows, self.conductor, n),
            self.den,
            promote_rows(other.rows, other.conductor, n),
            other.den,
        )
        return Measure._build(self.parent, n, rows, den)

    def __sub__(self, other: "Measure") -> "Measure":
        if not isinstance(other, Measure):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Measure":
        return Measure(self.parent, self.conductor, -self.rows, self.den)

    def scale(self, s: CycloScalar | Fraction | int) -> "Measure":
        if isinstance(s, CycloScalar) and not s.is_rational():
            n = lcm(self.conductor, s.conductor)
            rows = promote_rows(self.rows, self.conductor, n)
            rows = multiply_rows(rows, s.promote(n).rows[0], n)
            return Measure._build(self.parent, n, rows, self.den * s.den)
        q = s.rational() if isinstance(s, CycloScalar) else Fraction(s)
        rows = scale_rows(self.rows, q.numerator)
        return Measure._build(self.parent, self.conductor, rows, self.den * q.denominator)

    def __mul__(self, s):
        if isinstance(s, (CycloScalar, Fraction, int)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    # -- group actions -------------------------------------------------------

    def translate_left(self, g: int) -> "Measure":
        """Convolution by dirac(g) on the left: new(x) = old(g^-1 x)."""
        parent = self.parent
        rows = self.rows[parent.mul_np[parent.inv[g]]]
        return Measure(parent, self.conductor, rows, self.den)

    def translate_right(self, g: int) -> "Measure":
        """Convolution by dirac(g) on the right: new(x) = old(x g^-1)."""
        parent = self.parent
        rows = self.rows[parent.mul_np[:, parent.inv[g]]]
        return Measure(parent, self.conductor, rows, self.den)

    def adjoint(self) -> "Measure":
        """mu*(g) = conj(mu(g^-1)); an involution on the algebra."""
        rows = conjugate_rows(self.rows[self.parent.inv_np], self.conductor)
        return Measure(self.parent, self.conductor, rows, self.den)

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        if self.parent is not other.parent:
            return False
        # both sides are in lowest terms, so equal values have equal rows
        if self.den != other.den:
            return False
        n = lcm(self.conductor, other.conductor)
        a = promote_rows(self.rows, self.conductor, n)
        return bool((a == promote_rows(other.rows, other.conductor, n)).all())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        supp = self.support()
        shown = ", ".join(self.parent.labels[g] for g in supp[:6])
        if len(supp) > 6:
            shown += ", ..."
        return (
            f"Measure({self.parent.name}, conductor={self.conductor}, "
            f"support=[{shown}])"
        )


def dirac(parent: GroupTable, g: int | str) -> Measure:
    """Point mass at g."""
    if isinstance(g, str):
        g = parent.idx(g)
    rows = np.zeros((parent.order, 1), dtype=np.int64)
    rows[g] = 1
    return Measure(parent, 1, rows, 1)


def haar(k: Subgroup) -> Measure:
    """Normalized counting measure on the subgroup k."""
    parent = k.parent
    rows = np.zeros((parent.order, 1), dtype=np.int64)
    rows[k.elements_np] = 1
    return Measure(parent, 1, rows, k.order)


def char_idem(k: Subgroup, chi: Character) -> Measure:
    """The contractive idempotent chi * haar(k).

    chi must be a character of k itself; coefficient at g in k is
    chi(g) / |k|, zero elsewhere.  The row at the identity is (1, 0, ...),
    so the rows over |k| are already in lowest terms.
    """
    if chi.domain != k:
        raise PreconditionError("character domain differs from the given subgroup")
    rows = _monomial_rows(k.parent, chi._exponents, chi.conductor)
    return Measure(k.parent, chi.conductor, rows, k.order)


def _monomial_rows(parent: GroupTable, exps: np.ndarray, n: int) -> np.ndarray:
    """The rows of zeta^e at conductor n for exponents e modulo the parent's
    exponent, any leading shape; n divides each e's order, so e is a multiple
    of parent.exponent // n, and -1 // step is -1, the zero row of roots.
    On a character's _exponents these are the numerators of its char_idem."""
    return field_tables(n).roots[exps // (parent.exponent // n)]


def _char_idem_product(k1: Subgroup, rho1: Character, k2: Subgroup, rho2: Character) -> Measure:
    """rho1 m_K1 * rho2 m_K2 from exponent counts, for characters rho_j of
    K_j: equal, conductor (the lcm), rows and denominator, to
    convolve(char_idem(k1, rho1), char_idem(k2, rho2)).

    The product at x is the sum over k1 k2 = x of zeta^(t1(k1) + t2(k2)) /
    (|K1| |K2|), with t_j the exponents of rho_j at the lcm conductor n.  So
    one bincount over the |K1| x |K2| pairs counts each (k1 k2, exponent mod
    n), and _fold_exponents turns the n exponent columns into the power
    basis.  At most min(|K1|, |K2|) pairs share a target, so no count, and
    no sum of n of them times pow_max, passes min(|K1|, |K2|) * n * pow_max.
    """
    parent = k1.parent
    if k2.parent is not parent:
        raise MismatchedParents(f"measures live on {parent.name} and {k2.parent.name}")
    n = lcm(rho1.conductor, rho2.conductor)
    step = parent.exponent // n
    ks1, ks2 = k1.elements_np, k2.elements_np
    t1 = rho1._exponents[ks1] // step
    t2 = rho2._exponents[ks2] // step
    keys = parent.mul_np[ks1[:, None], ks2] * n + (t1[:, None] + t2) % n
    counts = np.bincount(keys.ravel(), minlength=parent.order * n).reshape(parent.order, n)
    bound = min(ks1.size, ks2.size) * n * field_tables(n).pow_max
    return Measure._build(parent, n, _fold_exponents(counts, n, bound), ks1.size * ks2.size)


def _convolve_rows(parent: GroupTable, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product of two stacks of packed numerators at conductor n
    (see idemconv._kernel.convolve_exact), not normalized."""
    tab = field_tables(n)
    red = tab.pow_rows[: 2 * tab.degree - 1]
    return _kernel.convolve_exact(parent.mul_np, parent.mul_np, a, b, red, tab.red_max)


def convolve(a: Measure, b: Measure) -> Measure:
    """(a * b)(x) = sum over h of a(h) b(h^-1 x)."""
    a._require_sibling(b)
    n = lcm(a.conductor, b.conductor)
    anum = promote_rows(a.rows, a.conductor, n)
    bnum = promote_rows(b.rows, b.conductor, n)
    return Measure._build(a.parent, n, _convolve_rows(a.parent, n, anum, bnum), a.den * b.den)


def adjoint(mu: Measure) -> Measure:
    return mu.adjoint()


def support(mu: Measure) -> tuple[int, ...]:
    return mu.support()


def tv_norm(mu: "Measure | FloatMeasure") -> float:
    """Total variation norm, evaluated in floating point."""
    if isinstance(mu, FloatMeasure):
        return float(np.abs(mu.values).sum())
    return float(np.abs(mu.to_complex()).sum())


def is_probability(mu: Measure) -> bool:
    # rational means only the constant coordinate is nonzero
    if mu.rows[:, 1:].any() or (mu.rows[:, 0] < 0).any():
        return False
    return sum(mu.rows[:, 0].tolist()) == mu.den


# -- idempotent classification -------------------------------------------------


@dataclass(frozen=True)
class IdempotentClass:
    """Outcome of classify_idempotent.

    kind is one of "not_idempotent", "zero", "contractive",
    "idempotent_other"; subgroup/character are set only for "contractive".
    """

    kind: str
    subgroup: Subgroup | None = None
    character: Character | None = None


def classify_idempotent(mu: Measure) -> IdempotentClass:
    """Decide where an element sits relative to mu * mu = mu.

    Contractive means: support is a subgroup K and |K| * mu is a
    character on K, i.e. mu = char_idem(K, chi) exactly.
    """
    if convolve(mu, mu) != mu:
        return IdempotentClass("not_idempotent")
    if mu.is_zero():
        return IdempotentClass("zero")
    parent = mu.parent
    supp = mu.support()
    try:
        k = subgroup_from_elements(parent, supp)
    except ValueError:
        return IdempotentClass("idempotent_other")
    # |K| mu(g) must be a root of unity, so an m-th one, m = lcm(2, conductor)
    scaled = mu.scale(len(supp))
    m = lcm(2, mu.conductor)
    rows = promote_rows(scaled.rows[list(supp)], mu.conductor, m)
    hits = (rows[:, None] == field_tables(m).roots[:m]).all(axis=2)
    if scaled.den != 1 or not hits.any(axis=1).all():
        return IdempotentClass("idempotent_other")
    rots = tuple(Fraction(t, m) for t in hits.argmax(axis=1).tolist())
    try:
        chi = Character.from_rotations(k, rots)
    except ValueError:
        return IdempotentClass("idempotent_other")
    if mu != char_idem(k, chi):
        raise InvariantViolation("contractive idempotent differs from its char_idem")
    return IdempotentClass("contractive", k, chi)


# -- float companion -------------------------------------------------------------


class FloatMeasure:
    """complex128 coefficient vector; used where exact iteration is wasteful."""

    __slots__ = ("parent", "values")

    def __init__(self, parent: GroupTable, values: Iterable[complex]):
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (parent.order,):
            raise ValueError(f"need shape ({parent.order},), got {vals.shape}")
        self.parent = parent
        self.values = vals

    @classmethod
    def from_measure(cls, mu: Measure) -> "FloatMeasure":
        return cls(mu.parent, mu.to_complex())

    def convolve(self, other: "FloatMeasure") -> "FloatMeasure":
        if self.parent is not other.parent:
            raise MismatchedParents("float measures on different groups")
        out = np.zeros(self.parent.order, dtype=np.complex128)
        np.add.at(
            out,
            self.parent.mul_np.ravel(),
            np.multiply.outer(self.values, other.values).ravel(),
        )
        return FloatMeasure(self.parent, out)

    def adjoint(self) -> "FloatMeasure":
        return FloatMeasure(
            self.parent, np.conj(self.values[self.parent.inv_np])
        )

    def __sub__(self, other: "FloatMeasure") -> "FloatMeasure":
        return FloatMeasure(self.parent, self.values - other.values)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def distance(self, other: "FloatMeasure") -> float:
        return float(np.abs(self.values - other.values).max())

    def __repr__(self) -> str:
        return f"FloatMeasure({self.parent.name}, max_abs={self.max_abs():.3g})"


# -- serialization ------------------------------------------------------------


def measure_to_jsonable(mu: Measure, include_float: bool = False) -> dict:
    """JSON-ready dict; exact rationals as strings, support entries only.

    Raises PreconditionError if an entry has more digits than Python's int
    digit limit (sys.get_int_max_str_digits()) lets str() print.
    """
    entries = []
    for g in mu.support():
        try:
            row = [str(Fraction(c, mu.den)) for c in mu.rows[g].tolist()]
        except ValueError:
            raise PreconditionError(
                f"a coefficient at {mu.parent.labels[g]} has more than "
                f"{sys.get_int_max_str_digits()} digits, the int digit limit"
            ) from None
        entries.append([mu.parent.labels[g], row, mu.conductor])
    obj: dict = {
        "group": mu.parent.name,
        "group_order": mu.parent.order,
        "entries": entries,
    }
    if include_float:
        vals = mu.to_complex()
        obj["float"] = {
            mu.parent.labels[g]: [float(vals[g].real), float(vals[g].imag)]
            for g in mu.support()
        }
    return obj


def measure_from_jsonable(parent: GroupTable, obj: dict) -> Measure:
    if obj.get("group") != parent.name or obj.get("group_order") != parent.order:
        raise PreconditionError(
            f"serialized measure belongs to {obj.get('group')!r}, not {parent.name!r}"
        )
    coeffs: list[CycloScalar] = [CycloScalar.zero() for _ in range(parent.order)]
    for label, row, conductor in obj["entries"]:
        g = parent.idx(label)
        coeffs[g] = CycloScalar(conductor, [Fraction(s) for s in row])
    return Measure.from_coeffs(parent, coeffs)
