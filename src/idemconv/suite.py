"""Named end-to-end verification scenarios.

Each fixture reproduces one worked construction at desk scale and reports
pass/fail with exact details.  The `paper-suite` subcommand and the
acceptance tests both run this registry; fixture ids are stable interface
tokens.  A fixture that raises is reported as a named failure rather than
aborting the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .cyclo import CycloScalar
from .errors import InvariantViolation
from .groups import (
    GroupTable,
    Subgroup,
    all_subgroups,
    closure,
    cyclic_group,
    dihedral_group,
    direct_product,
    full_subgroup,
    intersection,
    is_subgroup_product,
    left_cosets,
    quaternion_group,
    semidirect_product,
    symmetric_group,
    trivial_subgroup,
)
from .characters import Character, character_group
from .measures import (
    FloatMeasure,
    Measure,
    adjoint,
    char_idem,
    convolve,
    dirac,
)
from .commutation import classify_pair, classify_row, semidirect_counterexample
from .dynamics import (
    free_product_decay,
    idempotent_power_limit,
    stromberg_check,
)
from .measure_groups import (
    exp_char_diagonal,
    exp_skew,
    g_k_rho,
    is_local_unitary,
    nu_u,
    verify_prop_43,
)
from .so3 import example_33_report

__all__ = [
    "SuiteConfig",
    "FixtureResult",
    "SuiteSummary",
    "FIXTURES",
    "run_fixture",
    "run_suite",
]


@dataclass(frozen=True)
class SuiteConfig:
    grid: int = 64
    tol: float = 1e-9
    max_iter: int = 500


@dataclass(frozen=True)
class FixtureResult:
    fixture: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteSummary:
    results: tuple[FixtureResult, ...]
    passed: bool


FIXTURES: dict[str, Callable[[SuiteConfig], FixtureResult]] = {}


def _fixture(name: str):
    def deco(fn):
        FIXTURES[name] = fn
        return fn

    return deco


def _char_desc(chi: Optional[Character]) -> Optional[str]:
    if chi is None:
        return None
    if chi.is_trivial:
        return "trivial"
    parent = chi.domain.parent
    gens = chi.domain.generators or chi.domain.elements
    parts = [f"{parent.labels[g]}:{chi.rotation(g)}" for g in gens if chi.rotation(g)]
    if not parts:
        parts = [
            f"{parent.labels[g]}:{chi.rotation(g)}"
            for g in chi.domain.elements
            if chi.rotation(g)
        ]
    return ",".join(parts)


def _sweep_items(g: GroupTable) -> list[tuple[Subgroup, Character]]:
    return [(k, chi) for k in all_subgroups(g) for chi in character_group(k)]


def _sweep_groups() -> tuple[GroupTable, ...]:
    return (
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        quaternion_group(),
    )


# -- worked examples ------------------------------------------------------------


@_fixture("example-2.4i")
def _fx_example_24i(cfg: SuiteConfig) -> FixtureResult:
    """Character-weighted subgroup idempotent vs the acting factor's Haar.

    C8 : C2 with C2 inverting C8; the order-8 character moves under the
    action, so the two products differ, with every right-product
    coefficient matching its closed form exactly.
    """
    c8 = cyclic_group(8)
    c2 = cyclic_group(2)
    flip = tuple((-k) % 8 for k in range(8))
    rho = Character(full_subgroup(c8), tuple(range(8)))
    rep = semidirect_counterexample(c8, c2, [tuple(range(8)), flip], rho)
    ok = rep.coefficient_check and rep.left != rep.right
    return FixtureResult(
        "example-2.4i",
        ok,
        {
            "group": rep.group.name,
            "group_order": rep.group.order,
            "witness": rep.group.labels[rep.witness],
            "left_at_witness": str(rep.left.coeff(rep.witness)),
            "right_at_witness": str(rep.right.coeff(rep.witness)),
            "coefficient_check": rep.coefficient_check,
        },
    )


@_fixture("example-2.4ii")
def _fx_example_24ii(cfg: SuiteConfig) -> FixtureResult:
    """Point stabilizer against the 5-cycle subgroup of S5.

    Any nontrivial character on the cyclic factor breaks commutation in
    all 8 combinations; both trivial gives the full-group Haar idempotent.
    """
    s5 = symmetric_group(5)
    by = s5.label_index
    k1 = closure(s5, (by["(12)"], by["(1234)"]))
    k2 = closure(s5, (by["(12345)"],))
    chars1 = character_group(k1)
    chars2 = character_group(k2)
    ok = k1.order == 24 and k2.order == 5
    ok = ok and len(chars1) == 2 and len(chars2) == 5
    cases = []
    for rho1 in chars1:
        for rho2 in chars2[1:]:
            v = classify_pair(k1, rho1, k2, rho2, verify=True)
            cases.append([_char_desc(rho1), _char_desc(rho2), v.kind])
            ok = ok and v.kind == "non_commuting"
    v = classify_pair(k1, chars1[0], k2, chars2[0], verify=True)
    cases.append(["trivial", "trivial", v.kind])
    ok = (
        ok
        and v.kind == "commute"
        and v.product_subgroup.order == 120
        and v.product_character.is_trivial
    )
    return FixtureResult(
        "example-2.4ii",
        ok,
        {"stabilizer_order": k1.order, "cases": cases, "non_commuting": 8},
    )


@_fixture("commute-oracle-sweep")
def _fx_commute_sweep(cfg: SuiteConfig) -> FixtureResult:
    """classify_row vs brute-force convolution on every ordered pair.

    verify=True convolves every product of each K1's row of (K1, K2) blocks
    exactly and checks the verdicts, so a single mismatch raises
    InvariantViolation and fails the fixture.
    """
    per: dict[str, dict] = {}
    for g in _sweep_groups():
        blocks = [(k, character_group(k)) for k in all_subgroups(g)]
        counts = {"commute": 0, "zero_product": 0, "non_commuting": 0}
        for k1, chars1 in blocks:
            for block in classify_row(k1, chars1, blocks, verify=True):
                for row in block:
                    for v in row:
                        counts[v.kind] += 1
        items = sum(len(chars) for _, chars in blocks)
        per[g.name] = {
            "items": items,
            "ordered_pairs": items**2,
            **counts,
        }
    return FixtureResult("commute-oracle-sweep", True, {"groups": per})


@_fixture("limit-sweep")
def _fx_limit_sweep(cfg: SuiteConfig) -> FixtureResult:
    """Predicted power limits vs float iteration over exhaustive pairs.

    idempotent_power_limit checks the agreement internally and raises
    InvariantViolation, also under python -O; the S3 showcases pin the two
    outcomes (signed full-group idempotent, zero).
    """
    per: dict[str, dict] = {}
    for g in (symmetric_group(3), dihedral_group(4)):
        items = _sweep_items(g)
        kinds = {"limit": 0, "zero_limit": 0}
        worst_it = 0
        for k1, r1 in items:
            for k2, r2 in items:
                rep = idempotent_power_limit(
                    [(k1, r1), (k2, r2)], tol=cfg.tol, n_max=cfg.max_iter
                )
                kinds[rep.kind] += 1
                worst_it = max(worst_it, rep.iterations)
        per[g.name] = {
            "ordered_pairs": len(items) ** 2,
            **kinds,
            "max_iterations": worst_it,
        }

    s3 = symmetric_group(3)
    by = s3.label_index
    k_swap = closure(s3, (by["(12)"],))
    k_rot = closure(s3, (by["(123)"],))
    k_other = closure(s3, (by["(13)"],))
    sgn_swap = next(c for c in character_group(k_swap) if not c.is_trivial)
    triv_rot = character_group(k_rot)[0]
    triv_other = character_group(k_other)[0]

    rep1 = idempotent_power_limit(
        [(k_swap, sgn_swap), (k_rot, triv_rot)], tol=cfg.tol, n_max=cfg.max_iter
    )
    sgn_full = next(
        c for c in character_group(full_subgroup(s3)) if not c.is_trivial
    )
    show1 = rep1.kind == "limit" and rep1.predicted == char_idem(
        full_subgroup(s3), sgn_full
    )
    rep2 = idempotent_power_limit(
        [(k_swap, sgn_swap), (k_other, triv_other)], tol=cfg.tol, n_max=cfg.max_iter
    )
    show2 = rep2.kind == "zero_limit" and rep2.predicted.is_zero()
    per["showcase"] = {
        "signed_full_limit": show1,
        "zero_limit": show2,
        "iterations": [rep1.iterations, rep2.iterations],
    }
    return FixtureResult("limit-sweep", show1 and show2, per)


@_fixture("stromberg-cyclic")
def _fx_stromberg_cyclic(cfg: SuiteConfig) -> FixtureResult:
    """Coset-obstruction dichotomy on two-point symmetric cyclic walks.

    stromberg_check corroborates both branches by float iteration; the C4
    walk on {a, a^3} is additionally pinned by its exact period-2 orbit.
    """
    totals = {"converges": 0, "obstructed": 0}
    per_n = []
    for n in range(2, 13):
        g = cyclic_group(n)
        inv = g.inv
        pairs = sorted(
            {
                tuple(sorted((a, b)))
                for a in range(n)
                for b in range(n)
                if a != b and {inv[a], inv[b]} == {a, b}
            }
        )
        for a, b in pairs:
            mu = (dirac(g, a) + dirac(g, b)).scale(Fraction(1, 2))
            res = stromberg_check(mu, tol=cfg.tol, n_max=cfg.max_iter)
            totals[res.kind] += 1
        per_n.append([n, len(pairs)])

    c4 = cyclic_group(4)
    mu = (dirac(c4, 1) + dirac(c4, 3)).scale(Fraction(1, 2))
    sq = convolve(mu, mu)
    cube = convolve(sq, mu)
    osc = sq == (dirac(c4, 0) + dirac(c4, 2)).scale(Fraction(1, 2)) and cube == mu
    verdict = stromberg_check(mu)
    osc = osc and verdict.kind == "obstructed" and verdict.obstruction.elements == (0, 2)
    ok = osc and totals["converges"] + totals["obstructed"] == sum(
        r[1] for r in per_n
    )
    return FixtureResult(
        "stromberg-cyclic",
        ok,
        {"per_n": per_n, **totals, "c4_period_two": osc},
    )


@_fixture("free-product-c2c3")
def _fx_free_product(cfg: SuiteConfig) -> FixtureResult:
    """Strict sup-norm decay of Haar-product powers in C2 * C3."""
    rep = free_product_decay(2, 3, n_max=8, eps=0.1)
    ok = (
        rep.strictly_decreasing
        and rep.below_eps_at is not None
        and rep.below_eps_at <= 8
        and not rep.budget_exceeded
    )
    return FixtureResult(
        "free-product-c2c3",
        ok,
        {
            "exact_max_by_power": [str(x) for x in rep.exact_max_by_power],
            "max_by_power": [float(x) for x in rep.max_by_power],
            "support_by_power": list(rep.support_by_power),
            "strictly_decreasing": rep.strictly_decreasing,
            "below_eps_at": rep.below_eps_at,
        },
    )


@_fixture("example-3.3")
def _fx_example_33(cfg: SuiteConfig) -> FixtureResult:
    """Product-of-tori measure vs Haar on the rotation group.

    The squared (1,1) entry separates the two averages by 1/6.
    """
    rep = example_33_report(cfg.grid)
    (_, _, _, _), (_, p2, h2, _), (_, _, _, _) = rep.panel
    ok = (
        abs(p2 - 0.5) < 1e-6
        and abs(h2 - 1 / 3) < 1e-6
        and abs(rep.normalization_product - 1.0) < 1e-12
        and abs(rep.normalization_haar - 1.0) < 1e-12
        and rep.separated
        and abs(rep.max_delta - 1 / 6) < 1e-6
    )
    return FixtureResult(
        "example-3.3",
        ok,
        {
            "grid": rep.grid,
            "panel": [[name, p, h, d] for name, p, h, d in rep.panel],
            "normalization_product": rep.normalization_product,
            "normalization_haar": rep.normalization_haar,
            "max_delta": rep.max_delta,
            "separated": rep.separated,
        },
    )


@_fixture("example-4.4i")
def _fx_example_44i(cfg: SuiteConfig) -> FixtureResult:
    """D4: center with its sign character against the rotation subgroup.

    The product collapses onto the rotation subgroup; the pair-product
    span fills the whole commuting group (equality, no proper inclusion).
    """
    d4 = dihedral_group(4)
    by = d4.label_index
    k1 = closure(d4, (by["r^2"],))
    k2 = closure(d4, (by["r"],))
    rho1 = next(c for c in character_group(k1) if not c.is_trivial)
    rho2 = next(
        c for c in character_group(k2) if c.rotation(by["r"]) == Fraction(1, 4)
    )
    rep = verify_prop_43(k1, rho1, k2, rho2)
    ok = (
        rep.passed
        and not rep.proper_inclusion
        and rep.span.order == 4
        and rep.gamma_group.order == 4
        and rep.k12.order == 4
    )
    return FixtureResult(
        "example-4.4i",
        ok,
        {
            "k12_order": rep.k12.order,
            "h1_order": rep.h1.order,
            "h2_order": rep.h2.order,
            "span_order": rep.span.order,
            "gamma_order": rep.gamma_group.order,
            "proper_inclusion": rep.proper_inclusion,
            "forward": [rep.forward_realized, rep.forward_pairs],
            "reverse_realized": rep.reverse_realized,
        },
    )


@_fixture("example-4.4ii")
def _fx_example_44ii(cfg: SuiteConfig) -> FixtureResult:
    """S5 as stabilizer times 5-cycles, both carrying trivial characters.

    The commuting groups are the two normalizers; their span is all of
    S5, again matching the product's commuting group exactly.
    """
    s5 = symmetric_group(5)
    by = s5.label_index
    k1 = closure(s5, (by["(12)"], by["(1234)"]))
    k2 = closure(s5, (by["(12345)"],))
    rho1 = character_group(k1)[0]
    rho2 = character_group(k2)[0]
    rep = verify_prop_43(k1, rho1, k2, rho2)
    ok = (
        rep.passed
        and not rep.proper_inclusion
        and rep.k12.order == 120
        and rep.h1.order == 24
        and rep.h2.order == 20
        and rep.span.order == 120
        and rep.gamma_group.order == 120
    )
    return FixtureResult(
        "example-4.4ii",
        ok,
        {
            "k12_order": rep.k12.order,
            "h1_order": rep.h1.order,
            "h2_order": rep.h2.order,
            "span_order": rep.span.order,
            "gamma_order": rep.gamma_group.order,
            "proper_inclusion": rep.proper_inclusion,
            "forward": [rep.forward_realized, rep.forward_pairs],
            "reverse_realized": rep.reverse_realized,
        },
    )


def _g18() -> tuple[GroupTable, Subgroup, Subgroup, Character, Character]:
    t = direct_product(cyclic_group(3), cyclic_group(3))
    swap = tuple((x % 3) * 3 + x // 3 for x in range(9))
    g = semidirect_product(t, cyclic_group(2), [tuple(range(9)), swap])
    k1 = closure(g, (6,))  # first C3 factor, embedded
    k2 = closure(g, (2,))  # second C3 factor, embedded
    rho1 = next(c for c in character_group(k1) if c.rotation(6) == Fraction(1, 3))
    rho2 = next(c for c in character_group(k2) if c.rotation(2) == Fraction(1, 3))
    return g, k1, k2, rho1, rho2


@_fixture("example-4.4iii")
def _fx_example_44iii(cfg: SuiteConfig) -> FixtureResult:
    """(C3 x C3) : C2 with matching characters on the two C3 factors.

    Here the span of the two commuting groups is the torus, a proper
    subgroup of the full commuting group of the product idempotent.
    """
    g, k1, k2, rho1, rho2 = _g18()
    torus = closure(g, (2, 6))
    gk1 = g_k_rho(k1, rho1)
    gk2 = g_k_rho(k2, rho2)
    rep = verify_prop_43(k1, rho1, k2, rho2)
    ok = (
        gk1 == torus
        and gk2 == torus
        and rep.k12 == torus
        and rep.gamma_group.order == 18
        and rep.span == torus
        and rep.proper_inclusion
        and rep.passed
    )
    return FixtureResult(
        "example-4.4iii",
        ok,
        {
            "torus_order": torus.order,
            "gamma_k1_order": gk1.order,
            "gamma_k2_order": gk2.order,
            "span_order": rep.span.order,
            "gamma_order": rep.gamma_group.order,
            "proper_inclusion": rep.proper_inclusion,
            "forward": [rep.forward_realized, rep.forward_pairs],
            "reverse_realized": rep.reverse_realized,
        },
    )


@_fixture("measure-group-sweep")
def _fx_measure_group_sweep(cfg: SuiteConfig) -> FixtureResult:
    """Both commuting-group definitions on every (subgroup, character).

    g_k_rho computes the translate test and the quotient-centralizer
    preimage and checks that they coincide.
    """
    per: dict[str, dict] = {}
    for g in _sweep_groups():
        pairs = 0
        order_sum = 0
        for k in all_subgroups(g):
            for chi in character_group(k):
                gk = g_k_rho(k, chi)
                pairs += 1
                order_sum += gk.order
        per[g.name] = {"pairs": pairs, "gamma_order_sum": order_sum}
    return FixtureResult("measure-group-sweep", True, {"groups": per})


@_fixture("local-unitaries")
def _fx_local_unitaries(cfg: SuiteConfig) -> FixtureResult:
    """Prescribed-transform unitaries on small abelian groups.

    nu_u hits the prescribed root-of-unity transform exactly, multiplies
    pointwise, and is a local unitary at the point mass of the identity.
    """
    per: dict[str, dict] = {}
    ok = True
    for g in (cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(3))):
        chars = character_group(full_subgroup(g))
        n = len(chars)
        u1 = {
            chi: CycloScalar.root_of_unity(Fraction(i, n))
            for i, chi in enumerate(chars)
        }
        u2 = {
            chi: CycloScalar.root_of_unity(Fraction((i * i) % n, n))
            for i, chi in enumerate(chars)
        }
        nu1 = nu_u(g, u1)
        nu2 = nu_u(g, u2)
        law = convolve(nu1, nu2) == nu_u(g, {chi: u1[chi] * u2[chi] for chi in chars})
        triv = trivial_subgroup(g)
        triv_char = character_group(triv)[0]
        unitary = is_local_unitary(nu1, triv, triv_char) and is_local_unitary(
            nu2, triv, triv_char
        )
        ok = ok and law and unitary
        per[g.name] = {
            "characters": n,
            "pointwise_product_law": law,
            "unitary_at_identity": unitary,
        }
    return FixtureResult("local-unitaries", ok, {"groups": per})


def _random_skew(g: GroupTable, rng: random.Random) -> Measure:
    while True:
        coeffs = []
        for _ in range(g.order):
            if rng.random() < 0.5:
                coeffs.append(CycloScalar.zero())
                continue
            q = Fraction(rng.randint(-2, 2), rng.randint(2, 4))
            z = CycloScalar.root_of_unity(Fraction(rng.randint(0, 11), 12))
            coeffs.append(z * q)
        lam = Measure.from_coeffs(g, coeffs)
        lam = lam - adjoint(lam)
        if not lam.is_zero():
            return lam


@_fixture("skew-exponentials")
def _fx_skew_exponentials(cfg: SuiteConfig) -> FixtureResult:
    """Series exponentials of random skew-adjoint measures are unitary.

    exp_skew checks unitarity below 1e-9 itself; on the abelian group the
    character-diagonalization closed form must agree to the same bound.
    """
    rng = random.Random(20260819)
    per: dict[str, dict] = {}
    ok = True
    for g, with_oracle in ((cyclic_group(3), True), (symmetric_group(3), False)):
        worst_unit = 0.0
        worst_oracle = 0.0
        for _ in range(20):
            lam = _random_skew(g, rng)
            u = exp_skew(lam)
            ident = FloatMeasure.from_measure(dirac(g, g.identity))
            worst_unit = max(worst_unit, u.adjoint().convolve(u).distance(ident))
            if with_oracle:
                worst_oracle = max(worst_oracle, u.distance(exp_char_diagonal(lam)))
        ok = ok and worst_unit < 1e-9 and worst_oracle <= 1e-9
        per[g.name] = {
            "samples": 20,
            "worst_unitarity_residual": worst_unit,
            "worst_oracle_distance": worst_oracle if with_oracle else None,
        }
    return FixtureResult("skew-exponentials", ok, {"groups": per})


@_fixture("structural-invariants")
def _fx_structural_invariants(cfg: SuiteConfig) -> FixtureResult:
    """Exact bookkeeping identities across the sweep groups.

    Coset-partition averaging, the coset bijection K1/(K1 cap K2) ->
    K1K2/K2 whenever the product set is a group, self-adjointness of the
    character idempotents, and annihilation of distinct characters on a
    common subgroup.
    """
    rng = random.Random(90125)
    counts = {"averaging": 0, "coset_bijection": 0, "self_adjoint": 0, "orthogonal": 0}
    for g in _sweep_groups():
        u_vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(g.order)]
        subs = all_subgroups(g)
        mul = g.mul
        for h in subs:
            mean_h = sum((u_vec[x] for x in h.elements), Fraction(0)) / h.order
            for l in all_subgroups(h):
                cs = left_cosets(h, l)
                total = Fraction(0)
                for rep in cs.representatives:
                    total += sum((u_vec[mul[rep][x]] for x in l.elements), Fraction(0))
                if total / h.order != mean_h:
                    raise InvariantViolation("coset averaging identity failed")
                counts["averaging"] += 1

        for k1 in subs:
            for k2 in subs:
                v = is_subgroup_product(k1, k2)
                if not v.is_subgroup:
                    continue
                inter = intersection(k1, k2)
                images = []
                for coset in left_cosets(k1, inter).cosets:
                    targets = {
                        tuple(sorted(mul[x][y] for y in k2.elements)) for x in coset
                    }
                    if len(targets) != 1:
                        raise InvariantViolation("coset map is not well-defined")
                    images.append(next(iter(targets)))
                if len(set(images)) != len(images):
                    raise InvariantViolation("coset map is not injective")
                if len(images) != v.subgroup.order // k2.order:
                    raise InvariantViolation("coset map is not onto")
                counts["coset_bijection"] += 1

        for k in subs:
            chars = character_group(k)
            for i, chi in enumerate(chars):
                mu = char_idem(k, chi)
                if adjoint(mu) != mu:
                    raise InvariantViolation("character idempotent not self-adjoint")
                counts["self_adjoint"] += 1
                for chi2 in chars[i + 1 :]:
                    if not convolve(mu, char_idem(k, chi2)).is_zero():
                        raise InvariantViolation(
                            "distinct characters fail to annihilate"
                        )
                    counts["orthogonal"] += 1
    return FixtureResult("structural-invariants", True, {"checks": counts})


# -- runner ----------------------------------------------------------------------


def run_fixture(name: str, cfg: Optional[SuiteConfig] = None) -> FixtureResult:
    """Run one fixture; exceptions become a named failure result."""
    if name not in FIXTURES:
        raise KeyError(name)
    cfg = cfg or SuiteConfig()
    try:
        return FIXTURES[name](cfg)
    except Exception as exc:  # noqa: BLE001 - failures must be reported, not raised
        return FixtureResult(name, False, {"error": f"{type(exc).__name__}: {exc}"})


def run_suite(
    only: Optional[str] = None, cfg: Optional[SuiteConfig] = None
) -> SuiteSummary:
    """Run the registry in declaration order (or a single named fixture)."""
    if only is not None and only not in FIXTURES:
        raise KeyError(only)
    names = [only] if only is not None else list(FIXTURES)
    results = tuple(run_fixture(n, cfg) for n in names)
    return SuiteSummary(results, all(r.passed for r in results))
