"""Convolution power dynamics: limits, obstructions, decay."""

from fractions import Fraction

import pytest

from idemconv import (
    char_idem,
    character_group,
    closure,
    cyclic_group,
    dirac,
    free_product_decay,
    full_subgroup,
    haar,
    idempotent_power_limit,
    stromberg_check,
    verify_corollary_35,
)
from idemconv.dynamics import FreeWord, _word_convolve
from idemconv.errors import BudgetExceeded, PreconditionError


def test_stromberg_converges_c3():
    c3 = cyclic_group(3)
    mu = (dirac(c3, 1) + dirac(c3, 2)) * Fraction(1, 2)
    res = stromberg_check(mu)
    assert res.kind == "converges"
    assert res.generated == full_subgroup(c3)
    assert res.limit == haar(full_subgroup(c3))
    assert res.iterations <= 60
    assert res.residual <= 1e-9


def test_stromberg_obstructed_c4():
    c4 = cyclic_group(4)
    mu = (dirac(c4, 1) + dirac(c4, 3)) * Fraction(1, 2)
    res = stromberg_check(mu)
    assert res.kind == "obstructed"
    # support sits in the nontrivial coset of the even subgroup
    assert res.obstruction.elements == (0, 2)
    assert res.coset_rep == 1
    assert res.generated.order == 4
    assert res.limit is None


def test_stromberg_slow_case_c11():
    c11 = cyclic_group(11)
    mu = (dirac(c11, 1) + dirac(c11, 10)) * Fraction(1, 2)
    res = stromberg_check(mu)
    assert res.kind == "converges"
    assert res.iterations == 460


def test_stromberg_rejects_non_probability(s3):
    with pytest.raises(PreconditionError):
        stromberg_check(dirac(s3, 1) * Fraction(2))


def test_stromberg_point_mass_is_obstructed(s3):
    # supp(mu) = {g} lies in the coset g<e>, so powers cycle forever
    res = stromberg_check(dirac(s3, s3.idx("(123)")))
    assert res.kind == "obstructed"
    assert res.obstruction.order == 1


def test_power_limit_two_reflections_twisted(s3):
    # twisted reflection then rotation: alternating products converge to
    # the sign-twisted idempotent on the full group, in one step
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    tau = character_group(k1)[1]
    triv = character_group(k2)[0]
    rep = idempotent_power_limit([(k1, tau), (k2, triv)])
    assert rep.kind == "limit"
    sgn = character_group(full_subgroup(s3))[1]
    assert rep.predicted == char_idem(full_subgroup(s3), sgn)
    assert rep.iterations == 1
    assert rep.residual == 0.0
    assert rep.agreement


def test_power_limit_zero(s3):
    # incompatible twists on two reflections force the zero limit
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(13)")])
    tau = character_group(k1)[1]
    triv = character_group(k2)[0]
    rep = idempotent_power_limit([(k1, tau), (k2, triv)])
    assert rep.kind == "zero_limit"
    assert rep.extension is None
    assert rep.agreement


def test_power_limit_single_factor_is_fixed_point(d4):
    rot = closure(d4, [d4.idx("r")])
    chi = character_group(rot)[1]
    rep = idempotent_power_limit([(rot, chi)])
    assert rep.kind == "limit"
    assert rep.predicted == char_idem(rot, chi)
    assert rep.iterations <= 1


def test_corollary_35_chain(s3):
    k1 = closure(s3, [s3.idx("(12)")])
    k2 = closure(s3, [s3.idx("(123)")])
    rep = verify_corollary_35(
        [(k1, character_group(k1)[0]), (k2, character_group(k2)[0])]
    )
    assert rep.passed
    assert rep.is_idempotent
    assert not rep.is_zero


def test_free_product_decay_c2_c3():
    rep = free_product_decay(2, 3, n_max=8, eps=0.1)
    assert rep.orders == (2, 3)
    assert not rep.budget_exceeded
    assert rep.strictly_decreasing
    assert rep.below_eps_at == 3
    assert rep.exact_max_by_power[0] == Fraction(1, 6)
    assert rep.exact_max_by_power[1] == Fraction(1, 9)
    assert rep.exact_max_by_power[2] == Fraction(1, 12)
    assert rep.exact_max_by_power[3] == Fraction(43, 648)
    assert rep.support_by_power == (6, 18, 42, 90, 186, 378, 762, 1530)
    # float view tracks the exact values
    for x, q in zip(rep.max_by_power, rep.exact_max_by_power):
        assert x == pytest.approx(float(q), abs=1e-15)


def test_free_product_decay_budget_flag():
    rep = free_product_decay(2, 3, n_max=8, budget=100)
    assert rep.budget_exceeded
    assert len(rep.max_by_power) < 8


def test_free_product_budget_is_checked_before_building_words(monkeypatch):
    # the base measure has exactly m n words: past the budget no word is built
    def refuse(self):
        raise AssertionError("a FreeWord was built")

    assert free_product_decay(2, 3, n_max=1, budget=6).support_by_power == (6,)
    monkeypatch.setattr(FreeWord, "__post_init__", refuse)
    for m, n, budget in [(2, 3, 5), (200_000, 2, 1000)]:
        with pytest.raises(BudgetExceeded, match=f"exceeded budget {budget}$"):
            free_product_decay(m, n, budget=budget)


def test_word_budget_is_checked_before_each_new_word():
    # squaring the 900-word base of C30 * C30 reaches far past 1000 words
    # within its first row; the product stops at the first word past budget
    orders = (30, 30)
    haar = [
        {FreeWord.generator(slot, e, orders): Fraction(1, 30) for e in range(30)}
        for slot in (0, 1)
    ]
    base = _word_convolve(haar[0], haar[1], 900)
    assert len(base) == 900
    with pytest.raises(BudgetExceeded, match="exceeded budget 1000$") as info:
        _word_convolve(base, base, 1000)
    assert len(info.value.partial) <= 1001


def test_free_product_budget_env_var(monkeypatch):
    monkeypatch.setenv("IDEMCONV_WORD_BUDGET", "100")
    rep = free_product_decay(2, 3, n_max=8)
    assert rep.budget_exceeded


def test_free_product_rejects_bad_orders():
    with pytest.raises((PreconditionError, ValueError)):
        free_product_decay(1, 3)
