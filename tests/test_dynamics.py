"""Convolution power dynamics: limits, obstructions, decay."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _freeword import reference_decay
from idemconv import dynamics
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
    # the base measure has exactly m n words: past the budget no word array
    # is built, not even the m n base exponents
    assert free_product_decay(2, 3, n_max=1, budget=6).support_by_power == (6,)

    def refuse(*args):
        raise AssertionError("a word array was built")

    monkeypatch.setattr(dynamics, "_times_base", refuse)
    for m, n, budget in [(2, 3, 5), (200_000, 2, 1000)]:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"exceeded budget {budget}$"):
                free_product_decay(m, n, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # np.arange(200_000) alone takes 1.6 MB


def test_word_budget_is_checked_after_each_slice(monkeypatch):
    # squaring the 900-word base of C30 * C30 reaches far past 1000 words;
    # with one power word per slice the product raises at the first slice
    # that passes the budget, so it never holds more than 1000 + 900 words
    held = []
    sum_by_id = dynamics._sum_by_id

    def spy(ids, rows):
        held.append(len(ids))
        return sum_by_id(ids, rows)

    monkeypatch.setattr(dynamics, "_sum_by_id", spy)
    monkeypatch.setattr(dynamics, "_SLICE_CANDIDATES", 900)
    rep = free_product_decay(30, 30, n_max=2, budget=1000)
    assert rep.support_by_power == (900,)
    assert rep.budget_exceeded
    # power 1 is one slice; power 2 merged several before passing the budget
    assert held[0] == 900 and len(held) > 2
    assert max(held) <= 1000 + 900


# (m, n, n_max): C2 * C2 has radix 1 in both factors, so the length alone
# tells its words apart, and its long run passes 2**62 in the coefficients
WALKS = [(2, 2, 36), (2, 3, 8), (2, 5, 4), (3, 3, 4), (3, 4, 4)]
# on C2 * C2, rotations (1/6, 1/3) cancel the identity's coefficient
# 1 + zeta^(2/6) + zeta^(2/3) of power 2 to zero
ROTATIONS = [None, (Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 4), Fraction(2, 5))]


@pytest.mark.parametrize("rotations", ROTATIONS)
@pytest.mark.parametrize("m, n, n_max", WALKS)
def test_array_walk_matches_dict_walk(m, n, n_max, rotations):
    rep = free_product_decay(m, n, rotations=rotations, n_max=n_max, budget=10**6)
    maxes, supports, exact, exceeded = reference_decay(
        m, n, rotations=rotations, n_max=n_max, budget=10**6
    )
    assert not rep.budget_exceeded and not exceeded
    assert rep.support_by_power == supports
    assert rep.exact_max_by_power == exact
    if rotations is None:
        assert rep.max_by_power == maxes
    else:
        # evaluated at the run's conductor, not at each word's own
        assert len(rep.max_by_power) == len(maxes)
        assert all(math.isclose(a, b, rel_tol=1e-15) for a, b in zip(rep.max_by_power, maxes))


@pytest.mark.parametrize("budget", [100, 1000])
@pytest.mark.parametrize("rotations", ROTATIONS[:2])
@pytest.mark.parametrize("m, n, n_max", WALKS)
def test_array_walk_stops_where_dict_walk_does(monkeypatch, m, n, n_max, rotations, budget):
    # small slices, so powers are summed over many slices before the budget
    monkeypatch.setattr(dynamics, "_SLICE_CANDIDATES", 60)
    rep = free_product_decay(m, n, rotations=rotations, n_max=n_max, budget=budget)
    _, supports, _, exceeded = reference_decay(
        m, n, rotations=rotations, n_max=n_max, budget=budget
    )
    assert rep.budget_exceeded == exceeded
    assert rep.support_by_power == supports


def test_float_maxima_divide_with_one_rounding():
    # 2**53 + 1 = 3 * 3002399751580331 rounds to 2**53 as a float first
    rows = np.array([[2**53 + 1]])
    assert dynamics._largest_modulus(rows, 3, np.array([1 + 0j])) == 3002399751580331.0


def test_free_product_budget_env_var(monkeypatch):
    monkeypatch.setenv("IDEMCONV_WORD_BUDGET", "100")
    rep = free_product_decay(2, 3, n_max=8)
    assert rep.budget_exceeded


@pytest.mark.parametrize("raw", ["abc", "5e6", "0", "-5"])
def test_free_product_budget_env_var_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("IDEMCONV_WORD_BUDGET", raw)
    with pytest.raises(PreconditionError, match=f"IDEMCONV_WORD_BUDGET .*'{raw}'"):
        free_product_decay(2, 3, n_max=8)


def test_free_product_rejects_bad_orders():
    with pytest.raises((PreconditionError, ValueError)):
        free_product_decay(1, 3)
