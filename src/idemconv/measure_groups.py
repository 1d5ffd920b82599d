"""Groups of measures attached to a contractive idempotent.

N_{K,rho} and G_{K,rho} (the latter computed by two independent
definitions and cross-checked), the projective family of translates
delta_g * rho*m_K, local-unitary membership, the product-group
verification of the two-idempotent case (Prop 4.3: one product of the two
idempotents per pair, from exponent counts rather than the convolution
kernel, compared exactly with the product idempotent; every other product
is a translate of that idempotent, so the forward test is a table of the
product item and every reverse step rests on G_{K,rho} membership and one
idempotence compare, each built once per distinct product item and cached
with the item's idempotent and G_{K,rho}; H1, H2 and <H1 H2> are built once
per distinct triple of the three G_{K,rho}), and
unitary elements of abelian group algebras (nu_u synthesis, skew
exponentials).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Union

import numpy as np

from .characters import Character, character_group
from .commutation import classify_pair
from .cyclo import (
    CycloScalar,
    _fold_exponents,
    conjugate_rows,
    field_tables,
    max_abs,
    multiply_rows,
    scale_rows,
)
from .errors import InvariantViolation, PreconditionError
from .groups import (
    GroupTable,
    Subgroup,
    closure,
    full_subgroup,
    intersection,
    subgroup_from_elements,
)
from .measures import (
    FloatMeasure,
    Measure,
    _char_idem_product,
    adjoint,
    char_idem,
    convolve,
    dirac,
)

__all__ = [
    "n_k_rho",
    "g_k_rho",
    "GammaElement",
    "gamma_elements",
    "omega_class_count",
    "unit_multiple",
    "is_local_unitary",
    "Prop43Report",
    "verify_prop_43",
    "nu_u",
    "exp_skew",
    "exp_char_diagonal",
]


# beside g_k_rho's cache, so n_k_rho and g_k_rho of one item share a gather
@lru_cache(maxsize=2048)
def _n_k_rho_masks(k: Subgroup, rho: Character) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only masks over the parent: N_{K,rho}, and the g with
    g k g^-1 k^-1 in ker(rho) for every k in K.

    One gather reads rho's exponents (-1 off K) at g k g^-1 for every g and
    k, and decides all three conditions: g normalizes K where no exponent is
    -1, g normalizes ker(rho) where every k in ker(rho) lands on exponent 0,
    and, for g normalizing K, g k g^-1 k^-1 lies in ker(rho) exactly where
    rho(g k g^-1) = rho(k), that is where the exponents equal rho's at k.
    """
    if rho.domain != k:
        raise PreconditionError("rho is not a character of K")
    parent = k.parent
    mul_np = parent.mul_np
    ks = k.elements_np
    t = rho._exponents
    # [g, k] -> rho's exponent at g k g^-1
    conj = t[mul_np[mul_np[:, ks], parent.inv_np[:, None]]]
    in_n = (conj >= 0).all(axis=1) & (conj[:, t[ks] == 0] == 0).all(axis=1)
    centralizes = (conj == t[ks]).all(axis=1)
    in_n.flags.writeable = centralizes.flags.writeable = False
    return in_n, centralizes


def n_k_rho(k: Subgroup, rho: Character) -> Subgroup:
    """Normalizer of K intersected with the normalizer of ker rho."""
    in_n, _ = _n_k_rho_masks(k, rho)
    return subgroup_from_elements(k.parent, np.flatnonzero(in_n).tolist(), validate=False)


# bounded like character_group, for callers that build fresh groups; Prop
# 4.3 over every commuting S5 pair needs 515 entries
@lru_cache(maxsize=2048)
def g_k_rho(k: Subgroup, rho: Character) -> Subgroup:
    """Elements whose point mass commutes with rho*m_K under convolution.

    Computed twice: directly (exact measure equality for every g) and as
    the preimage in N_{K,rho} of the centralizer of K/ker(rho) inside
    N_{K,rho}/ker(rho); the two must agree.  The preimage is read without
    building the quotient: the g in N_{K,rho} with g k g^-1 k^-1 in ker(rho)
    for every k in K, from the same gather that decides N_{K,rho}
    (_n_k_rho_masks).

    Translation only permutes the rows of omega = rho*m_K, so delta_g *
    omega == omega * delta_g exactly when omega(g^-1 x) == omega(x g^-1) at
    every x.  Rows of omega are equal exactly where rho's exponents (-1 off
    K) are, so the exponents are compared, one gather for all g at once.

    Results are cached per (K, rho), keyed by value: the parent group
    object, K's elements and rho's exponents, so every returned subgroup
    lies in the caller's group.  A rho off K raises PreconditionError on
    every call.
    """
    in_n, centralizes = _n_k_rho_masks(k, rho)
    parent = k.parent
    row_id = rho._exponents
    mul_np = parent.mul_np
    inv = parent.inv_np
    # [g, x] -> g^-1 x on the left, x g^-1 on the right
    commutes = (row_id[mul_np[inv]] == row_id[mul_np[:, inv].T]).all(axis=1)
    direct = np.flatnonzero(commutes)
    if not np.array_equal(direct, np.flatnonzero(in_n & centralizes)):
        raise InvariantViolation(
            "the convolution and quotient definitions of G_{K,rho} disagree"
        )
    return subgroup_from_elements(parent, direct.tolist(), validate=False)


@dataclass(frozen=True)
class GammaElement:
    """One translate delta_g * (rho m_K), tracked projectively by g.

    The continuous unit-circle scalar is not stored; scalar identities
    are only ever checked for root-of-unity multiples.
    """

    g: int
    k: Subgroup
    rho: Character


def gamma_elements(k: Subgroup, rho: Character) -> tuple[GammaElement, ...]:
    return tuple(GammaElement(g, k, rho) for g in g_k_rho(k, rho).elements)


def omega_class_count(k: Subgroup, rho: Character) -> int:
    """Number of classes of G_{K,rho} under g ~ gk: |G_{K,rho}| / |K|, as K lies in it."""
    return g_k_rho(k, rho).order // k.order


def unit_multiple(candidate: Measure, base: Measure) -> Optional[CycloScalar]:
    """The unit-modulus z with candidate = z * base, if one exists.

    Works without field division: only bases whose leading coefficient has
    rational modulus squared (rational multiples of roots of unity, which
    covers every translate of a char_idem) are invertible here; anything
    else reports None.
    """
    bs = base.support()
    if candidate.support() != bs:
        return None
    if not bs:
        return None
    b0 = base.coeff(bs[0])
    norm = b0 * b0.conjugate()
    if not norm.is_rational():
        return None
    r = norm.rational()
    if r == 0:
        return None
    z = candidate.coeff(bs[0]) * b0.conjugate() * (1 / r)
    if not z.is_unit_modulus():
        return None
    if candidate != base.scale(z):
        return None
    return z


def is_local_unitary(nu: Measure, k: Subgroup, rho: Character) -> bool:
    """nu* conv nu = rho m_K = nu conv nu* (partial-isometry identity)."""
    base = char_idem(k, rho)
    star = adjoint(nu)
    if convolve(star, nu) != base or convolve(nu, star) != base:
        return False
    if not convolve(nu, base) == nu == convolve(base, nu):
        raise InvariantViolation("local unitary fails the absorption identities")
    return True


def _right_translates(m: Measure, gs: np.ndarray) -> np.ndarray:
    """The rows of m * delta_g for each g in gs, stacked (len(gs), |G|, d):
    row x of m * delta_g is row x g^-1 of m."""
    parent = m.parent
    return m.rows[parent.mul_np[:, parent.inv_np[gs]].T]


def _coset_unit_multiples(
    prods: np.ndarray, den: int, n: int, k12: Subgroup, rho12: Character
) -> tuple[np.ndarray, np.ndarray]:
    """unit_multiple over a stack of products, in array passes.

    prods is (m, |G|, d): numerators over den at conductor n, which rho12's
    conductor divides.  Returns, for each product P, its least support
    element s0 and whether P has support s0 K12 and is a unit multiple of
    delta_{s0} * omega, omega = rho12 m_K12.  That translate's coefficient
    at s0 is omega(e) = 1/|K12|, rational and nonzero, so the multiple is
    z = |K12| T(e) for T(k) = P(s0 k), and unit_multiple succeeds exactly
    when T(k) = T(e) zeta_n^t(k) on K12 (t: rho12's exponents at conductor
    n) and |K12|^2 T(e) conj(T(e)) = 1: both are compares of integer rows
    over den, the second against den^2.
    """
    parent = k12.parent
    tab = field_tables(n)
    d = tab.degree
    ks = k12.elements_np
    nonzero = (prods != 0).any(axis=2)
    s0 = nonzero.argmax(axis=1)
    coset = parent.mul_np[s0[:, None], ks]  # [i, k] -> s0_i k
    shaped = np.zeros_like(nonzero)
    shaped[np.arange(len(prods))[:, None], coset] = True
    idx = np.flatnonzero((shaped == nonzero).all(axis=1))

    lead = prods[idx, s0[idx]]  # T(e)
    t = rho12._exponents[ks] // (parent.exponent // n)
    # T(e) zeta^t(k): coordinate j of T(e) moves to exponent j + t(k), and
    # the d exponents of each row fold back into the power basis
    spread = np.zeros((idx.size, ks.size, n), dtype=lead.dtype)
    spread[:, np.arange(ks.size)[:, None], (np.arange(d) + t[:, None]) % n] = lead[:, None]
    bound = d * max_abs(lead) * tab.pow_max
    want = _fold_exponents(spread.reshape(-1, n), n, bound).reshape(idx.size, ks.size, d)
    multiple = (prods[idx[:, None], coset[idx]] == want).all(axis=(1, 2))
    norm = scale_rows(multiply_rows(lead, conjugate_rows(lead, n), n), k12.order**2)
    unit = (norm[:, 0] == den * den) & ~(norm[:, 1:] != 0).any(axis=1)
    hit = np.zeros(len(prods), dtype=bool)
    hit[idx] = multiple & unit
    return s0, hit


def _forward_table(
    k: Subgroup, rho: Character, omega: Measure
) -> tuple[np.ndarray, np.ndarray]:
    """The forward test of omega * delta_g for every g of the parent, omega =
    rho m_K: its least support element s0 and whether it is a unit multiple
    of delta_{s0} * omega (_coset_unit_multiples), both read-only.

    omega * delta_{kg} = conj(rho(k)) (omega * delta_g) for k in K, a unit
    multiple on the same support K g, so both answers are constant on each
    right coset K g: s0 is the coset's least element, and one translate per
    coset, the one by that least element, is tested.
    """
    parent = k.parent
    s0 = parent.mul_np[k.elements_np].min(axis=0)  # least element of K g
    reps = np.flatnonzero(s0 == np.arange(parent.order))
    rep_s0, rep_hit = _coset_unit_multiples(
        _right_translates(omega, reps), omega.den, omega.conductor, k, rho
    )
    if not np.array_equal(rep_s0, reps):
        raise InvariantViolation("a right translate of rho m_K leaves its coset K g")
    coset = np.zeros(parent.order, dtype=np.intp)
    coset[reps] = np.arange(reps.size)
    hit = rep_hit[coset[s0]]
    s0.flags.writeable = hit.flags.writeable = False
    return s0, hit


class _Item:
    """What verify_prop_43 reads of one (K, rho) item: omega = rho m_K and
    G_{K,rho}, built with the item.  Only a pair's product item (K1K2, rho12)
    reads coset_min, forward and idempotent, so each is built on its first
    read; idempotent squares omega from exponent counts, not in the
    convolution kernel.  What depends on the pair's three items together,
    through their G_{K,rho} alone, is cached per triple by _span."""

    def __init__(self, k: Subgroup, rho: Character):
        self.k = k
        self.rho = rho
        self.omega = char_idem(k, rho)
        self.gamma = g_k_rho(k, rho)

    @cached_property
    def coset_min(self) -> np.ndarray:
        """The least element of each left coset x K, read-only."""
        out = self.k.parent.mul_np[:, self.k.elements_np].min(axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def forward(self) -> tuple[np.ndarray, np.ndarray]:
        """(s0, hit) of omega * delta_g for every g (_forward_table)."""
        return _forward_table(self.k, self.rho, self.omega)

    @cached_property
    def idempotent(self) -> bool:
        """omega * omega == omega, compared exactly, the square from exponent
        counts (_char_idem_product)."""
        return _char_idem_product(self.k, self.rho, self.k, self.rho) == self.omega


# keyed by value like g_k_rho's, with its bound: one entry per distinct
# (K, rho) item, however many pairs share it
@lru_cache(maxsize=2048)
def _item(k: Subgroup, rho: Character) -> _Item:
    return _Item(k, rho)


# keyed by value like _item's, with its bound: one entry per distinct
# (G_{K1,rho1}, G_{K2,rho2}, G_{K1K2,rho}) triple, 1,714 over every
# commuting S5 pair
@lru_cache(maxsize=2048)
def _span(
    big1: Subgroup, big2: Subgroup, g_prod: Subgroup
) -> tuple[Subgroup, Subgroup, Subgroup, bool]:
    """H1 = G_{K1,rho1} ∩ G_{K1K2,rho}, H2 likewise, <H1 H2>, and whether the
    pair-block indices x1 x2 (x_j in H_j) include H1 and H2, so that the
    search steps from e reach all of <H1 H2>."""
    parent = g_prod.parent
    h1 = intersection(big1, g_prod)
    h2 = intersection(big2, g_prod)
    span = closure(parent, h1.elements + h2.elements)
    blocks = np.unique(parent.mul_np[h1.elements_np[:, None], h2.elements_np])
    in_blocks = np.zeros(parent.order, dtype=bool)
    in_blocks[blocks] = True
    reaches = bool(in_blocks[h1.elements_np].all() and in_blocks[h2.elements_np].all())
    return h1, h2, span, reaches


@dataclass(frozen=True)
class Prop43Report:
    k12: Subgroup
    rho12: Character
    h1: Subgroup
    h2: Subgroup
    span: Subgroup  # <H1 H2>
    gamma_group: Subgroup  # G_{K1K2, rho}
    proper_inclusion: bool
    forward_pairs: int
    forward_realized: int
    reverse_realized: int
    passed: bool


def verify_prop_43(
    k1: Subgroup, rho1: Character, k2: Subgroup, rho2: Character
) -> Prop43Report:
    """Product-group identity for a commuting pair of idempotents.

    Forward: every product delta_{g1} * rho1 m_K1 * delta_{g2} * rho2 m_K2
    (g_j ranging over G_{K_j,rho_j}) that is a unit multiple of a translate
    of rho m_{K1K2} has its translation part inside <H1 H2>.  Reverse:
    every element of <H1 H2> is realized by such a product with scalar
    exactly 1.  Also reports whether <H1 H2> is proper in G_{K1K2,rho}.

    Left translation is a row permutation and delta_g * (a * b) =
    (delta_g * a) * b, so the product for (g1, g2) is, bit for bit, the
    g1-translate of c[g2] = rho1 m_K1 * delta_{g2} * rho2 m_K2.  And g2 in
    G_{K2,rho2} means delta_{g2} commutes with rho2 m_K2, which g_k_rho
    proves, so c[g2] = (rho1 m_K1 * rho2 m_K2) * delta_{g2}.  For a
    commuting pair that one product is omega = rho m_{K1K2}, the structure
    theorem classify_pair decides; the pair makes that product from
    exponent counts (_char_idem_product, bit for bit the kernel's
    convolution) and compares it with omega exactly, so c[g2] = omega *
    delta_{g2}.  Support size, left-coset shape and being a unit multiple
    of a translate of omega survive left translation, so each c[g2] is
    tested once, and g1 only moves its translation part: from the coset
    s0 K1K2 to the coset g1 s0 K1K2, read off as that coset's least
    element.  The test of
    omega * delta_g depends on the product item alone, and is constant on
    the right coset K1K2 g (omega * delta_{kg} is a unit multiple of
    omega * delta_g on the same support), so the item tests one translate
    per right coset, in array passes (_coset_unit_multiples), and keeps
    (s0, hit) for every g (_forward_table); the pair reads it at G_{K2,rho2}.

    Reverse: each x2 in H2 lies in G_{K2,rho2} and in G_{K1K2,rho}, so
    c[x2] = omega * delta_x2 = delta_x2 * omega, and the pair block
    delta_x1 * c[x2] is delta_{x1 x2} * omega: the compare of the product
    with omega decides every block.  Each block index b = x1 x2 lies in
    G_{K1K2,rho}, so omega * block_b = (omega * omega) * delta_b, and the
    search step from g by b, delta_g * (omega * omega) * delta_b, is
    delta_{g b} * omega exactly when omega * omega = omega: one exact compare
    decides every step.  The steps from e reach the subgroup the b generate,
    which is <H1 H2> exactly when H1 and H2 lie among the b: the b = x1 x2
    lie in <H1 H2>, and include H1 and H2 by construction (x2 = e and
    x1 = e), so one mask check decides the reach, and reverse_realized is
    |<H1 H2>|.

    Everything that depends on one (K, rho) item alone is read from a cache
    keyed by value like g_k_rho's, so it is built once per process however
    many pairs share the item: each item's rho m_K and G_{K,rho}, and for
    the product item (K1K2, rho) its coset minima, the forward table and
    the idempotence compare, whose square is also made from exponent
    counts.  Everything that depends on the triple (G_{K1,rho1},
    G_{K2,rho2}, G_{K1K2,rho}) alone, H1, H2, <H1 H2> and the reach of the
    block indices, is read from a second such cache (_span), built once per
    distinct triple.  A pair whose items and triple are all cached makes
    one product, rho1 m_K1 * rho2 m_K2, and no kernel call.
    """
    verdict = classify_pair(k1, rho1, k2, rho2)
    if verdict.kind != "commute":
        raise PreconditionError(
            f"pair does not satisfy the commuting case (got {verdict.kind})"
        )
    k12 = verdict.product_subgroup
    rho12 = verdict.product_character
    mul_np = k1.parent.mul_np

    item1 = _item(k1, rho1)
    item2 = _item(k2, rho2)
    item12 = _item(k12, rho12)
    big1 = item1.gamma
    big2 = item2.gamma
    g_prod = item12.gamma
    h1, h2, span, reaches = _span(big1, big2, g_prod)
    # rho1 m_K1 * rho2 m_K2 is omega = rho m_K1K2 for a commuting pair, and
    # every pair block is a translate of it
    if _char_idem_product(k1, rho1, k2, rho2) != item12.omega:
        raise InvariantViolation(
            "pair block does not collapse to a translate of rho m_K1K2"
        )

    # forward: conditional inclusion over all Gamma generator pairs, from the
    # item's table at g2 in G_{K2,rho2}; the g1-translate of c[g2] lies on
    # the coset g1 s0 K1K2, named by its least element
    s0, hit = item12.forward
    g2s = big2.elements_np
    s = item12.coset_min[mul_np[big1.elements_np[:, None], s0[g2s[hit[g2s]]]]]
    s = s[g_prod.positions[s] >= 0]
    realized = s.size
    if not (span.positions[s] >= 0).all():
        raise InvariantViolation(
            "forward inclusion fails: product lands outside <H1 H2>"
        )
    # reverse: omega * omega = omega decides every search step
    if not item12.idempotent:
        raise InvariantViolation(
            "reverse realization produced a non-unit scalar"
        )
    if not reaches:
        raise InvariantViolation("pair blocks fail to reach all of <H1 H2>")

    return Prop43Report(
        k12,
        rho12,
        h1,
        h2,
        span,
        g_prod,
        proper_inclusion=span.order < g_prod.order,
        forward_pairs=big1.order * big2.order,
        forward_realized=realized,
        reverse_realized=span.order,
        passed=True,
    )


UnitLike = Union[CycloScalar, Fraction, int]


def nu_u(h: GroupTable, u: Mapping[Character, UnitLike]) -> Measure:
    """Measure with prescribed unit character values on an abelian group.

    nu_u = delta_e + sum over characters of (u_chi - 1) conj(chi) m_H, so
    that sum_g nu_u(g) chi(g) = u_chi exactly for every chi; u must assign
    a unit-modulus (root of unity) scalar to every character.
    """
    if not h.is_abelian:
        raise PreconditionError("nu_u requires an abelian group")
    chars = character_group(full_subgroup(h))
    vals: dict[Character, CycloScalar] = {}
    for chi in chars:
        if chi not in u:
            raise PreconditionError("u must be defined on every character")
        z = u[chi]
        if not isinstance(z, CycloScalar):
            z = CycloScalar.from_rational(z)
        if not z.is_unit_modulus():
            raise PreconditionError("u values must have unit modulus")
        vals[chi] = z
    n = h.order
    inv = h.inv
    coeffs = []
    for g in range(n):
        c = CycloScalar.from_rational(1 if g == h.identity else 0)
        for chi in chars:
            c = c + (vals[chi] - 1) * chi.value(inv[g]) * Fraction(1, n)
        coeffs.append(c)
    out = Measure.from_coeffs(h, coeffs)
    for chi in chars:
        total = CycloScalar.zero()
        for g in range(n):
            total = total + out.coeff(g) * chi.value(g)
        if total != vals[chi]:
            raise InvariantViolation("Fourier property failed")
    return out


def exp_skew(
    lam: Measure, *, tol: float = 1e-15, max_terms: int = 200
) -> FloatMeasure:
    """Float exponential series of an exactly skew-adjoint measure.

    Terms are added until the next one falls below tol in max-abs; the
    result is checked unitary: ||exp(lam)* conv exp(lam) - delta_e||_inf
    must be below 1e-9.
    """
    if adjoint(lam) != -lam:
        raise PreconditionError("exp_skew needs an exactly skew-adjoint measure")
    parent = lam.parent
    x = FloatMeasure.from_measure(lam)
    acc = FloatMeasure.from_measure(dirac(parent, parent.identity))
    term = acc
    for k in range(1, max_terms + 1):
        term = FloatMeasure(parent, term.convolve(x).values / k)
        acc = FloatMeasure(parent, acc.values + term.values)
        if term.max_abs() < tol:
            break
    ident = FloatMeasure.from_measure(dirac(parent, parent.identity))
    residual = acc.adjoint().convolve(acc).distance(ident)
    if not residual < 1e-9:
        raise InvariantViolation(f"exponential is not unitary (residual {residual:.3g})")
    return acc


def exp_char_diagonal(lam: Measure) -> FloatMeasure:
    """Closed-form exponential on an abelian group via characters.

    The transform T(mu)(chi) = sum_g mu(g) chi(g) turns convolution into
    multiplication, so exp(lam) has transform exp(T(lam)(chi)); inverting
    gives the coefficients.  Serves as the oracle for exp_skew.
    """
    parent = lam.parent
    if not parent.is_abelian:
        raise PreconditionError("character diagonalization needs an abelian group")
    chars = character_group(full_subgroup(parent))
    n = parent.order
    coeffs = lam.to_complex()
    table = np.array(
        [[chi.value(g).to_complex() for g in range(n)] for chi in chars]
    )
    transformed = table @ coeffs
    w = np.exp(transformed)
    out = table[:, parent.inv_np].T @ w / n
    return FloatMeasure(parent, out)
