"""Exact measures: convolution, adjoints, idempotent classification."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemconv import (
    CycloScalar,
    Measure,
    adjoint,
    all_subgroups,
    char_idem,
    character_group,
    classify_idempotent,
    closure,
    convolve,
    cyclic_group,
    dirac,
    full_subgroup,
    haar,
    support,
    symmetric_group,
    trivial_subgroup,
    tv_norm,
)
from idemconv.errors import MismatchedParents
from idemconv.measures import (
    _char_idem_product,
    is_probability,
    measure_from_jsonable,
    measure_to_jsonable,
)


@pytest.fixture(scope="module")
def c4():
    return cyclic_group(4)


def test_dirac_convolution_follows_table(s3):
    a, b = s3.idx("(12)"), s3.idx("(13)")
    prod = convolve(dirac(s3, a), dirac(s3, b))
    assert prod == dirac(s3, s3.op(a, b))


def test_classify_and_convolve_leave_the_nested_table_unbuilt():
    # validation and the kernel read mul_np; the nested-tuple view stays lazy
    g = cyclic_group(64)
    mu = dirac(g, g.identity)
    assert classify_idempotent(mu).kind == "contractive"
    assert convolve(mu, haar(full_subgroup(g))) == haar(full_subgroup(g))
    assert "mul" not in vars(g)


def test_haar_is_absorbing(s3):
    m = haar(full_subgroup(s3))
    assert convolve(m, m) == m
    assert convolve(dirac(s3, 4), m) == m
    assert convolve(m, dirac(s3, 1)) == m
    assert is_probability(m)
    assert tv_norm(m) == pytest.approx(1.0)


def test_haar_on_subgroup(s3):
    k = closure(s3, [s3.idx("(123)")])
    m = haar(k)
    assert support(m) == k.elements
    assert m.coeff(0).rational() == Fraction(1, 3)
    assert convolve(m, m) == m


def test_char_idem_is_idempotent(d4):
    rot = closure(d4, [d4.idx("r")])
    for chi in character_group(rot):
        m = char_idem(rot, chi)
        assert convolve(m, m) == m
        assert adjoint(m) == m
        cls = classify_idempotent(m)
        assert cls.kind == "contractive"
        assert cls.subgroup == rot
        assert cls.character == chi


def test_char_idem_coefficients(c4):
    full = full_subgroup(c4)
    chi = [c for c in character_group(full) if c.rotation(1) == Fraction(1, 4)][0]
    m = char_idem(full, chi)
    # (1/4) sum_g chi(g) delta_g
    assert m.coeff(0) == CycloScalar.from_rational(Fraction(1, 4))
    assert m.coeff(1) == CycloScalar.root_of_unity(Fraction(1, 4)) * Fraction(1, 4)
    assert m.coeff(2) == CycloScalar.from_rational(Fraction(-1, 4))


def test_classification_kinds(c4):
    full = full_subgroup(c4)
    sub2 = closure(c4, [2])
    chi_i = [c for c in character_group(full) if c.rotation(1) == Fraction(1, 4)][0]

    assert classify_idempotent(Measure.zero(c4)).kind == "zero"
    assert classify_idempotent(dirac(c4, 1)).kind == "not_idempotent"
    assert classify_idempotent(haar(sub2)).kind == "contractive"
    # sum of two orthogonal contractive idempotents: idempotent, norm > 1
    mix = char_idem(sub2, character_group(sub2)[0]) + char_idem(full, chi_i)
    assert convolve(mix, mix) == mix
    assert classify_idempotent(mix).kind == "idempotent_other"


def test_classify_check_survives_optimize(run_optimized):
    # the final char_idem comparison is a raise, not an assert: under
    # python -O a wrong reconstruction must still be reported
    code = (
        "import idemconv.measures as m\n"
        "from idemconv import cyclic_group, full_subgroup, haar\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = cyclic_group(2)\n"
        "m.char_idem = lambda k, chi: m.dirac(g, 0)\n"
        "try:\n"
        "    m.classify_idempotent(haar(full_subgroup(g)))\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    run_optimized(code)


def test_classify_trivial_group():
    g = cyclic_group(1)
    cls = classify_idempotent(haar(full_subgroup(g)))
    assert cls.kind == "contractive"
    assert cls.subgroup.order == 1
    assert cls.character.is_trivial


def test_adjoint_reverses_convolution(s3):
    a = dirac(s3, s3.idx("(123)")) * CycloScalar.root_of_unity(Fraction(1, 3))
    b = dirac(s3, s3.idx("(12)")) + dirac(s3, 0) * Fraction(1, 2)
    assert adjoint(convolve(a, b)) == convolve(adjoint(b), adjoint(a))
    assert adjoint(adjoint(a)) == a


def test_translate(s3):
    m = haar(closure(s3, [s3.idx("(12)")]))
    g = s3.idx("(123)")
    left = m.translate_left(g)
    assert left == convolve(dirac(s3, g), m)
    right = m.translate_right(g)
    assert right == convolve(m, dirac(s3, g))


def test_mismatched_parents_rejected(s3, d4):
    with pytest.raises(MismatchedParents):
        convolve(dirac(s3, 0), dirac(d4, 0))
    with pytest.raises(MismatchedParents):
        dirac(s3, 0) + dirac(d4, 0)


def test_jsonable_round_trip(c4):
    full = full_subgroup(c4)
    chi = [c for c in character_group(full) if c.rotation(1) == Fraction(1, 4)][0]
    m = char_idem(full, chi) + dirac(c4, 2) * Fraction(-7, 3)
    obj = measure_to_jsonable(m)
    assert measure_from_jsonable(c4, obj) == m


def test_tv_norm_values(c4):
    m = dirac(c4, 1) * Fraction(3, 4) - dirac(c4, 2) * Fraction(1, 4)
    assert tv_norm(m) == pytest.approx(1.0)
    assert tv_norm(Measure.zero(c4)) == 0.0
    assert not is_probability(m)
    walk = dirac(c4, 1) * Fraction(3, 4) + dirac(c4, 2) * Fraction(1, 4)
    assert is_probability(walk)
    assert not is_probability(walk * Fraction(1, 2))
    assert not is_probability(walk * CycloScalar.root_of_unity(Fraction(1, 4)))


def test_zero_drops_from_support(c4):
    m = dirac(c4, 1) - dirac(c4, 1)
    assert m.is_zero()
    assert support(m) == ()


def coeff_strategy():
    return st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
        st.integers(0, 11),
    ).map(lambda t: CycloScalar.root_of_unity(Fraction(t[1], 12)) * t[0])


def measures_on(g):
    return st.lists(
        st.tuples(st.integers(0, g.order - 1), coeff_strategy()),
        min_size=0,
        max_size=3,
    ).map(
        lambda pairs: sum(
            (dirac(g, x) * c for x, c in pairs), Measure.zero(g)
        )
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_convolution_algebra_laws(data):
    g = symmetric_group(3)
    mu = data.draw(measures_on(g))
    nu = data.draw(measures_on(g))
    pi = data.draw(measures_on(g))
    assert convolve(convolve(mu, nu), pi) == convolve(mu, convolve(nu, pi))
    assert convolve(mu, nu + pi) == convolve(mu, nu) + convolve(mu, pi)
    e = dirac(g, 0)
    assert convolve(e, mu) == mu
    assert convolve(mu, e) == mu
    # every result is in lowest terms, which equality relies on, and
    # coefficients share the packed form, so a round trip is bit for bit
    for m in (mu, convolve(mu, nu) + pi, adjoint(nu), pi.translate_left(1)):
        assert m.den > 0 and gcd(*(c for row in m.num for c in row), m.den) == 1
        back = Measure.from_coeffs(g, m.coeffs())
        assert (back.conductor, back.num, back.den) == (m.conductor, m.num, m.den)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_adjoint_is_antihomomorphism(data):
    g = symmetric_group(3)
    mu = data.draw(measures_on(g))
    nu = data.draw(measures_on(g))
    assert adjoint(mu + nu) == adjoint(mu) + adjoint(nu)
    assert adjoint(convolve(mu, nu)) == convolve(adjoint(nu), adjoint(mu))


def _rows_support(m):
    return tuple(g for g, row in enumerate(m.num) if any(row))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_support_matches_rows(data):
    # support() is filled on first use; every derived measure must start
    # from its own rows, not a support cached on the measure it came from
    g = symmetric_group(3)
    mu = data.draw(measures_on(g))
    nu = data.draw(measures_on(g))
    s = data.draw(coeff_strategy())
    x = data.draw(st.integers(0, g.order - 1))
    assert mu.support() == _rows_support(mu) and nu.support() == _rows_support(nu)
    derived = (
        mu + nu, mu - mu, -mu, mu.scale(s), mu * 0, mu * Fraction(2, 3),
        mu.translate_left(x), mu.translate_right(x), mu.adjoint(), convolve(mu, nu),
    )
    for m in derived:
        first = m.support()
        assert first == _rows_support(m)
        assert m.support() is first


# -- the packed array form: shape check and the object (big-int) path -----------

BIG = 2**70  # a power of two, so float evaluation scales by it exactly


def test_raw_constructor_checks_shape(c4):
    # conductor 4 has two coordinates, so one column is the wrong shape
    with pytest.raises(ValueError, match="shape"):
        Measure(c4, 4, ((1,), (0,), (0,), (0,)), 1)
    with pytest.raises(ValueError, match="shape"):
        Measure(c4, 1, ((1,), (0,), (0,)), 1)
    assert Measure(c4, 1, ((1,), (0,), (0,), (0,)), 1) == dirac(c4, 0)


def _identical(a, b):
    return (a.conductor, a.num, a.den, a.rows.dtype) == (b.conductor, b.num, b.den, b.rows.dtype)


def _down(m, k=1):
    return m.scale(Fraction(1, BIG**k))


def _object_pair(d4):
    """Two small D4 measures with cyclotomic and rational coefficients."""
    rot = closure(d4, [d4.idx("r")])
    chi = next(c for c in character_group(rot) if c.rotation(d4.idx("r")) == Fraction(1, 4))
    mu = char_idem(rot, chi) + dirac(d4, d4.idx("s")).scale(Fraction(-2, 3))
    nu = haar(full_subgroup(d4)).scale(Fraction(5, 7)) + dirac(d4, d4.idx("rs"))
    return mu, nu


def test_object_path_matches_int64_path(d4):
    from idemconv import _kernel

    mu, nu = _object_pair(d4)
    big_mu, big_nu = mu.scale(BIG), nu.scale(BIG)
    for m in (big_mu, big_nu):
        assert m.rows.dtype == object and max(abs(c) for r in m.num for c in r) > 2**62
    assert mu.rows.dtype == nu.rows.dtype == np.int64
    z = CycloScalar.root_of_unity(Fraction(3, 8)) * Fraction(-5, 3)

    assert _identical(_down(big_mu + big_nu), mu + nu)
    assert _identical(_down(big_mu - big_nu), mu - nu)
    assert _identical(_down(big_mu.scale(Fraction(-3, 11))), mu.scale(Fraction(-3, 11)))
    assert _identical(_down(big_mu.scale(z)), mu.scale(z))
    for pure in (True, False):
        saved = _kernel.FORCE_PURE
        _kernel.FORCE_PURE = pure
        try:
            assert _identical(_down(convolve(big_mu, big_nu), 2), convolve(mu, nu))
        finally:
            _kernel.FORCE_PURE = saved
    g = d4.idx("rs")
    assert _identical(_down(big_mu.translate_left(g)), mu.translate_left(g))
    assert _identical(_down(big_mu.translate_right(g)), mu.translate_right(g))
    assert _identical(_down(adjoint(big_mu)), adjoint(mu))
    assert big_mu == Measure.from_coeffs(d4, [c * BIG for c in mu.coeffs()])
    assert big_mu != big_nu and big_mu != mu
    assert big_mu.support() == mu.support() and not big_mu.is_zero()
    assert np.array_equal(big_mu.to_complex() / BIG, mu.to_complex())
    big_json = measure_to_jsonable(big_mu, include_float=True)
    small_json = measure_to_jsonable(mu, include_float=True)
    assert [[e[0], [str(Fraction(c) / BIG) for c in e[1]], e[2]] for e in big_json["entries"]] == (
        small_json["entries"]
    )
    assert _identical(_down(measure_from_jsonable(d4, big_json)), mu)


def test_int64_sums_past_the_bound_stay_exact(c4):
    # each entry fits int64 and packs as int64; their sum does not
    near = 2**61 + 1
    m = Measure._build(c4, 1, [[near], [-near], [0], [1]], 1)
    assert m.rows.dtype == np.int64
    total = (m + m).scale(4)
    assert total.num == ((8 * near,), (-8 * near,), (0,), (8,))
    assert total.rows.dtype == object
    # and back below 2**62 the dtype returns to int64
    assert (total - total.scale(Fraction(1, 2))).scale(Fraction(1, 2**61)).rows.dtype == np.int64


def _items(g):
    return [(k, chi) for k in all_subgroups(g) for chi in character_group(k)]


@pytest.mark.parametrize("name", ["s5", "d4", "q8", "g18"])
def test_exponent_product_matches_convolve(name, request):
    # rho1 m_K1 * rho2 m_K2 from exponent counts equals the kernel's
    # convolution bit for bit (conductor, rows, dtype, den), in both orders,
    # zero products included
    items = _items(request.getfixturevalue(name))
    rng = random.Random(32)
    zeros = 0
    for _ in range(150):
        p, q = rng.choice(items), rng.choice(items)
        for a, b in ((p, q), (q, p)):
            got = _char_idem_product(*a, *b)
            assert _identical(got, convolve(char_idem(*a), char_idem(*b)))
            zeros += got.is_zero()
    assert zeros


@pytest.mark.parametrize("order", [128, 256])
def test_exponent_product_matches_convolve_at_large_conductor(order):
    # cyclic subgroups of C128 and C256, each with a faithful character, and
    # products of lcm conductor 64 or more; a product is zero when the
    # characters differ on the intersection
    g = cyclic_group(order)
    faithful = {}
    for k in all_subgroups(g):
        chars = sorted(character_group(k), key=lambda c: c.exps)
        faithful[k.order] = (k, [c for c in chars if c.conductor == k.order][:2])
    zeros = 0
    for m1, m2 in ((order // 2, 2), (order // 2, 4), (64, 8), (64, order // 8)):
        (k1, chars1), (k2, chars2) = faithful[m1], faithful[m2]
        for rho1 in chars1:
            for rho2 in chars2:
                assert lcm(rho1.conductor, rho2.conductor) >= 64
                for a, b in (((k1, rho1), (k2, rho2)), ((k2, rho2), (k1, rho1))):
                    got = _char_idem_product(*a, *b)
                    assert _identical(got, convolve(char_idem(*a), char_idem(*b)))
                    zeros += got.is_zero()
    assert zeros


def test_exponent_product_rejects_mismatched_parents(s3, d4):
    a = full_subgroup(s3)
    b = full_subgroup(d4)
    with pytest.raises(MismatchedParents):
        _char_idem_product(a, character_group(a)[0], b, character_group(b)[0])
