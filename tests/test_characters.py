"""Characters of subgroups: construction, duality, extension."""

import hashlib
import itertools
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
    symmetric_group,
    commutator_subgroup,
    cyclic_group,
    direct_product,
    kernel,
    quotient_group,
    trivial_subgroup,
)
from idemconv import characters
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


def test_rotation_off_the_domain_is_a_key_error(s3):
    # positions[-1] would read the last element of S3, so -1 and the order
    # are refused before the array is read
    k = closure(s3, [s3.idx("(12)")])
    chi = character_group(k)[1]
    assert chi.rotation(s3.idx("(12)")) == Fraction(1, 2)
    for g in (s3.idx("(123)"), -1, s3.order):
        with pytest.raises(KeyError, match="outside the character's domain"):
            chi.rotation(g)


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


# -- character_group against the per-character formula it replaced -------------


def _ref_character_group(k):
    """Every character's exponents, one Python sum per element and character,
    as character_group computed them before its one matrix product."""
    quot = quotient_group(k, commutator_subgroup(k))
    q = quot.group
    basis = characters._abelian_basis(q)
    coords = {}
    for c in itertools.product(*(range(d) for _, d in basis)):
        x = q.identity
        for (g, _), ci in zip(basis, c):
            x = q.mul[x][q.power(g, ci)]
        coords[x] = c
    e = k.parent.exponent
    element_coords = [coords[quot.projection[g]] for g in k.elements]
    out = []
    for m in itertools.product(*(range(d) for _, d in basis)):
        w = [mi * (e // d) for mi, (_, d) in zip(m, basis)]
        out.append(tuple(sum(a * b for a, b in zip(w, c)) % e for c in element_coords))
    return out


_ABELIAN = {
    "c8xc4": lambda: direct_product(cyclic_group(8), cyclic_group(4)),
    "c2xc2xc6": lambda: direct_product(
        direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(6)
    ),
    "c64": lambda: cyclic_group(64),
}

# sha256 (first 16 hex digits) of repr(chi.exps) over every character of
# every subgroup, in lattice order, computed while every character was built
# by the reference formula and validated
_LATTICE_DIGESTS = {
    "s3": "d99072c160dc98c9",
    "s4": "166eb83f1ab2f013",
    "d4": "ffb394d3adfbb442",
    "q8": "e2e181e829166e05",
    "c12": "a2a556435730c1fa",
    "s5": "d893cd4dfd82a175",
    "c8xc4": "9c4d3d9479c2e1be",
    "c2xc2xc6": "ab10ac1c63b2c7ef",
    "c64": "31c60947dcc17c0f",
}


@pytest.mark.parametrize("name", list(_LATTICE_DIGESTS))
def test_character_group_matches_per_character_reference(name, request):
    # the same exponents in the same order as the formula, every character
    # (checked or built unchecked) and every product and conjugate of them a
    # character under the full check
    group = _ABELIAN[name]() if name in _ABELIAN else request.getfixturevalue(name)
    e = group.exponent
    digest = hashlib.sha256()
    for k in all_subgroups(group):
        chars = character_group(k)
        assert [chi.exps for chi in chars] == _ref_character_group(k)
        for chi in chars:
            digest.update(repr(chi.exps).encode())
            characters._check(k, chi.exps, e)
            again = Character(k, chi.exps)
            assert again == chi and hash(again) == hash(chi)
            characters._check(k, chi.conjugate().exps, e)
            for psi in chars:
                characters._check(k, (chi * psi).exps, e)
    assert digest.hexdigest()[:16] == _LATTICE_DIGESTS[name]


def test_corrupted_basis_is_caught_under_optimize(run_optimized):
    # character_group proves its cyclic basis by the independence and
    # spanning checks and the full check of each basis character, so a wrong
    # basis raises under -O; the split basis (a^4 beside a of order 4 in C8)
    # passes both counting checks and only the basis characters catch it
    run_optimized(
        "import idemconv.characters as c\n"
        "from idemconv import cyclic_group, full_subgroup\n"
        "from idemconv.errors import InvariantViolation\n"
        "real = c._abelian_basis\n"
        "def doubled(q):\n"
        "    (a, d), *rest = real(q)\n"
        "    return [(a, 2 * d), *rest]\n"
        "def not_a_generator(q):\n"
        "    (a, d), *rest = real(q)\n"
        "    return [(q.power(a, 2), d // 2), *rest]\n"
        "def split(q):\n"
        "    (a, d), *rest = real(q)\n"
        "    return [(a, d // 2), (q.power(a, d // 2), 2), *rest]\n"
        "cases = [\n"
        "    (doubled, InvariantViolation, 'not independent'),\n"
        "    (not_a_generator, InvariantViolation, 'do not span'),\n"
        "    (split, ValueError, 'not multiplicative'),\n"
        "]\n"
        "for corrupt, error, words in cases:\n"
        "    c._abelian_basis = corrupt\n"
        "    try:\n"
        "        c.character_group(full_subgroup(cyclic_group(8)))\n"
        "    except error as exc:\n"
        "        if words in str(exc):\n"
        "            continue\n"
        "    raise SystemExit(corrupt.__name__)\n"
    )


def test_character_group_builds_no_nested_view_of_a_quotient(monkeypatch):
    # character_group reads each quotient (and the quotients _abelian_basis
    # peels) through mul_np only; fresh groups, so nothing comes from a cache
    quotients = []
    real = characters.quotient_group

    def spy(h, n):
        q = real(h, n)
        quotients.append(q)
        return q

    monkeypatch.setattr(characters, "quotient_group", spy)
    s4 = symmetric_group(4)
    for k in [*all_subgroups(s4), full_subgroup(direct_product(cyclic_group(4), cyclic_group(8)))]:
        character_group(k)
    assert len(quotients) > len(all_subgroups(s4))
    assert all("mul" not in q.group.__dict__ for q in quotients)


def test_character_surface_read_by_the_benchmark(c12):
    # perfbench/spans.py wraps these through vars(Character), and
    # perfbench/oracle.py and workloads.py read rot as Fractions
    assert {"__post_init__", "conjugate", "__mul__"} <= set(vars(Character))
    chi = character_group(full_subgroup(c12))[1]
    assert all(isinstance(r, Fraction) for r in chi.rot)
    assert [r.numerator * (12 // r.denominator) for r in chi.rot] == list(chi.exps)
    assert isinstance(chi.rotation(1), Fraction)
