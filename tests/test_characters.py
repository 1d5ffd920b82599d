"""Characters of subgroups: construction, duality, extension."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from idemconv import (
    Character,
    CycloScalar,
    Subgroup,
    all_subgroups,
    character_group,
    closure,
    find_extension,
    full_subgroup,
    restrict,
    char_idem,
    kernel,
    trivial_subgroup,
)
from idemconv.cyclo import field_tables
from idemconv.errors import PreconditionError
from idemconv.measures import Measure


def rot_of(chi, g: int) -> Fraction:
    return chi.rotation(g)


def test_character_group_sizes(s3, d4, q8, c12):
    # dual of the abelianization
    assert len(character_group(full_subgroup(s3))) == 2
    assert len(character_group(full_subgroup(d4))) == 4
    assert len(character_group(full_subgroup(q8))) == 4
    assert len(character_group(full_subgroup(c12))) == 12


def test_trivial_character_first(s3):
    chars = character_group(full_subgroup(s3))
    assert chars[0].is_trivial
    assert all(not c.is_trivial for c in chars[1:])


def test_character_values_are_roots_of_unity(c12):
    full = full_subgroup(c12)
    for chi in character_group(full):
        for g in full.elements:
            v = chi.value(g)
            assert v.is_unit_modulus()
            assert v == CycloScalar.root_of_unity(rot_of(chi, g))


def test_characters_multiplicative(d4):
    full = full_subgroup(d4)
    for chi in character_group(full):
        for a in full.elements:
            for b in full.elements:
                assert chi.value(d4.op(a, b)) == chi.value(a) * chi.value(b)


def test_sign_character_of_s3(s3):
    sgn = character_group(full_subgroup(s3))[1]
    for t in ("(12)", "(13)", "(23)"):
        assert rot_of(sgn, s3.idx(t)) == Fraction(1, 2)
    for t in ("(123)", "(132)"):
        assert rot_of(sgn, s3.idx(t)) == 0


def test_constructor_rejects_non_multiplicative(s3):
    k = closure(s3, [s3.idx("(123)")])
    # rotation 1/2 on an order-3 element cannot define a character
    bad = {g: Fraction(1, 2) if g != 0 else Fraction(0) for g in k.elements}
    with pytest.raises((PreconditionError, ValueError)):
        Character.from_rotations(k, tuple(bad[g] for g in k.elements))


def test_conjugate_inverts(c12):
    full = full_subgroup(c12)
    for chi in character_group(full):
        inv = chi.conjugate()
        for g in full.elements:
            assert inv.value(g) * chi.value(g) == CycloScalar.one()


def test_restrict(s3):
    sgn = character_group(full_subgroup(s3))[1]
    k = closure(s3, [s3.idx("(12)")])
    chi = restrict(sgn, k)
    assert rot_of(chi, s3.idx("(12)")) == Fraction(1, 2)
    assert chi.domain == k


def test_orthogonality(d4):
    full = full_subgroup(d4)
    chars = character_group(full)
    for chi in chars:
        for psi in chars:
            s = CycloScalar.zero()
            for g in full.elements:
                s = s + chi.value(g) * psi.conjugate().value(g)
            expected = Fraction(full.order if chi == psi else 0)
            assert s == CycloScalar.from_rational(expected)


def test_pointwise_product_closes(c12):
    full = full_subgroup(c12)
    chars = character_group(full)
    table = {tuple(c.rot): c for c in chars}
    for a in chars[:4]:
        for b in chars[:4]:
            prod = tuple(
                (ra + rb) % 1 for ra, rb in zip(a.rot, b.rot)
            )
            assert prod in table


def test_find_extension_sign(s3):
    k = closure(s3, [s3.idx("(12)")])
    tau = character_group(k)[1]  # order-2 twist on the reflection
    ext = find_extension(full_subgroup(s3), [tau])
    assert ext is not None
    assert rot_of(ext, s3.idx("(12)")) == Fraction(1, 2)
    assert rot_of(ext, s3.idx("(123)")) == 0


def test_find_extension_obstructed(s3):
    # sgn restricted to one reflection, trivial demanded on another:
    # no character of S3 does both
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(13)")])
    tau = character_group(k1)[1]
    triv2 = character_group(k2)[0]
    assert find_extension(full_subgroup(s3), [tau, triv2]) is None


def test_trivial_subgroup_has_one_character(s3):
    chars = character_group(trivial_subgroup(s3))
    assert len(chars) == 1 and chars[0].is_trivial


def scalar_validate(domain, rot):
    """The element-by-element Fraction check, kept as the parity reference."""
    elems = domain.elements
    if len(rot) != len(elems):
        raise ValueError("need one rotation per subgroup element")
    if any(r < 0 or r >= 1 for r in rot):
        raise ValueError("rotations must lie in [0, 1)")
    parent = domain.parent
    pos = {g: i for i, g in enumerate(elems)}
    if rot[pos[parent.identity]] != 0:
        raise ValueError("character must send the identity to 1")
    mul = parent.mul
    for i, g in enumerate(elems):
        if (rot[i] * parent.element_order(g)) % 1 != 0:
            raise ValueError(
                f"value at {parent.labels[g]} is not an order-dividing root of unity"
            )
        for j, h in enumerate(elems):
            if rot[pos[mul[g][h]]] != (rot[i] + rot[j]) % 1:
                raise ValueError(
                    f"not multiplicative at ({parent.labels[g]},{parent.labels[h]})"
                )


def _perturbations(k, chi, rng):
    """Seeded corruptions of a valid rotation vector, one per kind."""
    parent = k.parent
    e = parent.exponent
    rot = list(chi.rot)
    n = len(rot)

    i = rng.randrange(n)
    moved = rot[:]
    moved[i] = rng.choice([Fraction(t, e) for t in range(e) if Fraction(t, e) != rot[i]])
    yield "moved", moved

    i = rng.randrange(n)
    d = parent.element_order(k.elements[i])
    q = rng.choice([q for q in range(2, 14) if d % q])
    stray = rot[:]
    stray[i] = Fraction(rng.choice([p for p in range(1, q) if gcd(p, q) == 1]), q)
    yield "stray denominator", stray
    huge = rot[:]
    huge[rng.randrange(n)] = Fraction(1, 2**64 + 1)
    yield "huge denominator", huge

    at_identity = rot[:]
    at_identity[k.elements.index(parent.identity)] = Fraction(rng.randrange(1, e), e)
    yield "identity", at_identity

    yield "short", rot[:-1]
    yield "long", rot + [Fraction(0)]
    out_of_range = rot[:]
    out_of_range[rng.randrange(n)] = rng.choice([Fraction(1), Fraction(-1, e)])
    yield "range", out_of_range


def _outcome(check, k, rot):
    try:
        check(k, tuple(rot))
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["s4", "d4", "c12"])
def test_vectorised_validation_matches_scalar_reference(name, request):
    group = request.getfixturevalue(name)
    rng = random.Random(f"parity-{name}")
    cases = 0
    rejected = 0
    for k in all_subgroups(group):
        for chi in character_group(k):
            assert _outcome(scalar_validate, k, chi.rot) is None
            assert _outcome(Character.from_rotations, k, chi.rot) is None
            for kind, rot in _perturbations(k, chi, rng):
                want = _outcome(scalar_validate, k, rot)
                assert _outcome(Character.from_rotations, k, rot) == want, (kind, k, rot)
                cases += 1
                rejected += want is not None
    assert rejected > cases // 2


def test_non_subgroup_domain_rejected(s3):
    # hand-built domains the table does not close: the product (12)(13)
    # escapes, and a domain without the identity escapes at once
    a, b = s3.idx("(12)"), s3.idx("(13)")
    escapes = Subgroup(s3, tuple(sorted((s3.identity, a, b))), (a, b))
    with pytest.raises(ValueError, match="not closed"):
        Character.from_rotations(escapes, (Fraction(0),) * 3)
    no_identity = Subgroup(s3, (a,), (a,))
    with pytest.raises(ValueError, match="not closed"):
        Character.from_rotations(no_identity, (Fraction(0),))


# -- the exponent form against the Fraction formulas it replaced ---------------


def _ref_char_idem(k, rot):
    """chi * haar(k) from rotations, as char_idem built it before exponents."""
    n = lcm(1, *(r.denominator for r in rot))
    tab = field_tables(n)
    rows = [(0,) * tab.degree] * k.parent.order
    for g, r in zip(k.elements, rot):
        rows[g] = tab.pow_rows[(r.numerator * (n // r.denominator)) % n]
    return Measure._build(k.parent, n, rows, k.order)


@pytest.mark.parametrize("name", ["s4", "d4", "q8", "c12"])
def test_exponent_form_matches_fraction_reference(name, request):
    group = request.getfixturevalue(name)
    e = group.exponent
    lattice = all_subgroups(group)
    for k in lattice:
        subs = [h for h in lattice if h.element_set <= k.element_set]
        chars = character_group(k)
        for chi in chars:
            rot = chi.rot
            again = Character.from_rotations(k, rot)
            assert again == chi and hash(again) == hash(chi)
            assert chi.conjugate().rot == tuple((-r) % 1 for r in rot)
            for psi in chars:
                assert (chi * psi).rot == tuple((a + b) % 1 for a, b in zip(rot, psi.rot))
            for h in subs:
                assert restrict(chi, h).rot == tuple(chi.rotation(g) for g in h.elements)
            zeros = tuple(g for g, r in zip(k.elements, rot) if r == 0)
            assert kernel(chi).elements == zeros
            assert chi.conductor == lcm(1, *(r.denominator for r in rot))
            assert chi.is_trivial == (not any(rot))
            mu, ref = char_idem(k, chi), _ref_char_idem(k, rot)
            assert (mu.conductor, mu.num, mu.den) == (ref.conductor, ref.num, ref.den)

            exps = chi.exps
            for bad in (exps[:-1], exps + (0,), exps[:-1] + (e,), exps[:-1] + (-1,)):
                with pytest.raises(ValueError):
                    Character(k, bad)
            with pytest.raises(TypeError):
                Character(k, rot)


def test_stray_denominator_rejected_without_the_check_survives_optimize(run_optimized):
    # a denominator not dividing the exponent is rejected even if the
    # widened check itself lets it through
    run_optimized(
        "from fractions import Fraction\n"
        "import idemconv.characters as c\n"
        "from idemconv import closure, symmetric_group\n"
        "from idemconv.errors import InvariantViolation\n"
        "g = symmetric_group(3)\n"
        "k = closure(g, [g.idx('(12)')])\n"
        "c._check = lambda *args: None\n"
        "try:\n"
        "    c.Character.from_rotations(k, (Fraction(0), Fraction(1, 5)))\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )


def test_character_surface_read_by_the_benchmark(c12):
    # perfbench/spans.py wraps these through vars(Character), and
    # perfbench/oracle.py and workloads.py read rot as Fractions
    assert {"__post_init__", "conjugate", "__mul__"} <= set(vars(Character))
    chi = character_group(full_subgroup(c12))[1]
    assert all(isinstance(r, Fraction) for r in chi.rot)
    assert [r.numerator * (12 // r.denominator) for r in chi.rot] == list(chi.exps)
    assert isinstance(chi.rotation(1), Fraction)
