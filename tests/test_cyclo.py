"""Exact cyclotomic scalar arithmetic."""

import doctest
import importlib
import pkgutil
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

import idemconv
from idemconv import CycloScalar
from idemconv.cyclo import multiply_rows, pack


fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
rotations = st.integers(min_value=0, max_value=23).map(lambda k: Fraction(k, 24))


def scalars():
    """Small sums of scaled roots of unity, conductor dividing 24."""
    term = st.tuples(fractions, rotations).map(
        lambda t: CycloScalar.root_of_unity(t[1]) * t[0]
    )
    return st.lists(term, min_size=1, max_size=3).map(
        lambda ts: sum(ts[1:], ts[0])
    )


def test_root_of_unity_order():
    z = CycloScalar.root_of_unity(Fraction(1, 8))
    acc = CycloScalar.one()
    for _ in range(8):
        acc = acc * z
    assert acc == CycloScalar.one()
    # z^4 = -1
    half = CycloScalar.one()
    for _ in range(4):
        half = half * z
    assert half == -CycloScalar.one()


def test_conductor_promotion():
    z3 = CycloScalar.root_of_unity(Fraction(1, 3))
    z4 = CycloScalar.root_of_unity(Fraction(1, 4))
    p = z3 * z4
    assert p.conductor == 12
    assert p == CycloScalar.root_of_unity(Fraction(7, 12))


def test_rational_detection():
    # 1 + z5 + z5^2 + z5^3 + z5^4 = 0, so the tail sums to -1.
    s = CycloScalar.zero()
    for k in range(1, 5):
        s = s + CycloScalar.root_of_unity(Fraction(k, 5))
    assert s.is_rational()
    assert s.rational() == Fraction(-1)


def test_rational_rejects_irrational():
    z = CycloScalar.root_of_unity(Fraction(1, 5))
    assert not z.is_rational()
    with pytest.raises(Exception):
        z.rational()


def test_from_rational_round_trip():
    q = CycloScalar.from_rational(Fraction(3, 4))
    assert q.is_rational() and q.rational() == Fraction(3, 4)
    assert str(q) == "3/4"


def test_constructor_normalizes_and_validates():
    s = CycloScalar(5, [Fraction(2, 4), Fraction(1, 6), 0, Fraction(-3, 9)])
    assert (s.conductor, s.num, s.den) == (5, (3, 1, 0, -2), 6)
    assert s.coeffs == (Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 3))
    assert (CycloScalar(3, [4, 6]).num, CycloScalar(3, [4, 6]).den) == ((4, 6), 1)
    with pytest.raises(ValueError):
        CycloScalar(5, [1, 2])


def test_conjugate_inverts_roots():
    for k in range(1, 12):
        z = CycloScalar.root_of_unity(Fraction(k, 12))
        assert z.conjugate() * z == CycloScalar.one()
        assert z.is_unit_modulus()


def test_no_division_operator():
    z = CycloScalar.root_of_unity(Fraction(1, 3))
    with pytest.raises(TypeError):
        z / z  # noqa: B018 - division is deliberately unsupported


def test_unhashable():
    # equality crosses conductors, so hashing is disabled on purpose
    with pytest.raises(TypeError):
        hash(CycloScalar.one())


def test_str_rendering():
    z8 = CycloScalar.root_of_unity(Fraction(1, 8))
    assert str(z8) == "z8"
    assert str(-z8) == "-z8"
    assert str(z8 * Fraction(-1, 2) * z8 * z8) == "(-1/2)z8^3"
    assert str(CycloScalar.one() + CycloScalar.root_of_unity(Fraction(1, 5))) == "1 + z5"
    assert str(z8 * Fraction(1, 16)) == "(1/16)z8"
    assert str(-CycloScalar.root_of_unity(Fraction(3, 8))) == "-z8^3"
    mixed = Fraction(1, 2) + CycloScalar.root_of_unity(Fraction(2, 5)) * Fraction(1, 3)
    assert str(mixed) == "1/2 + (1/3)z5^2"
    assert repr(mixed) == "CycloScalar(5, ['1/2', '0', '1/3', '0'])"
    assert str(CycloScalar.from_rational(Fraction(-3, 4), 12)) == "-3/4"


@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    # the stored form is canonical: lowest terms, and a round trip restores it
    for s in (a, a * b, a + b):
        assert s.den > 0 and gcd(*s.num, s.den) == 1
    back = (a + b) - b
    same = a.promote(back.conductor)
    assert (back.conductor, back.num, back.den) == (same.conductor, same.num, same.den)


@given(scalars(), scalars())
def test_conjugation_is_ring_morphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars(), scalars())
def test_to_complex_matches_exact_ops(a, b):
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9


@given(scalars())
def test_norm_is_nonnegative_rational(a):
    n = a * a.conjugate()
    # |a|^2 lies in the fixed field of conjugation; for our sampled scalars
    # it need not be rational, but it must be conjugation-invariant.
    assert n.conjugate() == n
    if n.is_rational():
        assert n.rational() >= 0


# -- the packed array form and its object (big-int) path -------------------------

BIG = 2**70  # a power of two, so float evaluation scales by it exactly


def test_pack_picks_the_dtype_from_the_value():
    # a bare np.array makes the first float64 and the second uint64
    for rows in ([[2**63], [-1]], [2**63], [[2**62]], [[-(2**62)]]):
        packed = pack(rows)
        assert packed.dtype == object and packed.tolist() == rows
        assert all(type(c) is int for c in packed.ravel())
    for rows in ([[2**62 - 1], [-(2**62) + 1]], [[0, 3]]):
        packed = pack(rows)
        assert packed.dtype == np.int64 and packed.tolist() == rows
    assert pack(np.array([[2**62]], dtype=np.int64)).dtype == object
    assert pack(np.array([[5, -2**61]], dtype=object)).dtype == np.int64


def _same(a, b):
    return (a.conductor, a.num, a.den, a.rows.dtype) == (b.conductor, b.num, b.den, b.rows.dtype)


@given(scalars(), scalars())
def test_object_path_matches_int64_path(a, b):
    down, down2 = Fraction(1, BIG), Fraction(1, BIG * BIG)
    big_a, big_b = a * BIG, b * BIG
    assert big_a.is_zero() or big_a.rows.dtype == object
    assert _same((big_a + big_b) * down, a + b)
    assert _same((big_a - big_b) * down, a - b)
    assert _same((big_a * big_b) * down2, a * b)
    assert _same(big_a.conjugate() * down, a.conjugate())
    assert _same(big_a.promote(120) * down, a.promote(120))
    assert (big_a == big_b) == (a == b)
    assert big_a.to_complex() == a.to_complex() * BIG
    assert str(big_a * down) == str(a)


def _seeded_scalar(rng, conductor):
    terms = [
        CycloScalar.root_of_unity(Fraction(rng.randrange(conductor), conductor), conductor)
        * Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        for _ in range(rng.randint(1, 3))
    ]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rational_factor_scales_like_a_rational_scalar(seed):
    # z * q scales z's row directly; z * CycloScalar(q) packs and normalizes
    # q first: both must give the same canonical value, dtype included
    rng = random.Random(seed)
    for _ in range(40):
        z = _seeded_scalar(rng, rng.choice([1, 3, 4, 5, 8, 12, 24]))
        if rng.random() < 0.2:
            z = z * BIG
        for q in (
            0,
            -1,
            rng.randint(-9, 9),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(-BIG, 3),
        ):
            via_scalar = z * CycloScalar.from_rational(q)
            assert _same(z * q, via_scalar)
            assert _same(q * z, via_scalar)


def test_multiply_rows_by_a_stack_matches_row_by_row():
    rng = random.Random(5)
    for n in (1, 4, 5, 12, 24):
        a = [_seeded_scalar(rng, n) for _ in range(6)]
        b = [_seeded_scalar(rng, n) for _ in range(6)]
        rows = np.vstack([x.rows for x in a])
        stack = np.vstack([y.rows for y in b])
        want = np.vstack([multiply_rows(x.rows, y.rows[0], n) for x, y in zip(a, b)])
        assert (multiply_rows(rows, stack, n) == want).all()
        wide = multiply_rows(rows.astype(object) * BIG, stack, n)
        assert wide.dtype == object and (wide == want.astype(object) * BIG).all()


def test_library_doctests():
    # the examples of every idemconv module run; cyclo.py alone has five
    names = ["idemconv", *(m.name for m in pkgutil.iter_modules(idemconv.__path__, "idemconv."))]
    runs = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(r.failed for r in runs) == 0
    assert sum(r.attempted for r in runs) >= 5
