"""The convolution kernel on int64 and on Python ints.

One numpy scatter runs on int64 rows whenever a magnitude bound shows no
intermediate can reach 2**62; otherwise, or under FORCE_PURE, it runs on
object rows.  These tests run both dtypes on identical packed arrays and
require results equal to the pure-Python reference in tests/_pykernel.py,
dtype included, and check at the kernel's one widening point
(idemconv.cyclo._exact) which dtype ran on either side of the bound.
"""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idemconv
from idemconv import _kernel
from idemconv._kernel import backend_name, convolve_exact
from idemconv.cyclo import field_tables, max_abs, pack
from idemconv.measures import Measure
from idemconv import char_idem, character_group, closure, cyclic_group, convolve, dirac, haar, full_subgroup, symmetric_group

from _pykernel import convolve_exact as reference

RED_D1 = pack([[1]])  # rational coefficients: no reduction needed
RED_PHI4 = pack([[1, 0], [0, 1], [-1, 0]])  # x^2 = -1 in Q(i)
# fits int64, but each product is 2**80: over the bound
OVER_BOUND_C4 = (
    [[2**40], [-(2**40)], [2**40], [-(2**40)]],
    [[2**40], [2**40], [-(2**40)], [2**40]],
)
# -2**63 fits int64 but np.abs wraps it to itself; the exact row 0 is 2**63
MIN_INT64_C4 = ([[-(2**63)], [1], [0], [0]], [[-1], [1], [0], [0]])
# each product 1.5e9**2 fits with room to spare; 8 of them summed do not
DENSE_C8 = ([[1_500_000_000]] * 8, [[1_500_000_000]] * 8)


def tables(g):
    mul_rows = [[g.op(a, b) for b in range(g.order)] for a in range(g.order)]
    return mul_rows, np.array(mul_rows, dtype=np.int64)


def assert_same(got, want):
    """got is the packed array of the integer rows want, dtype included."""
    want = pack(want)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def both_backends(mul_rows, mul_np, a, b, red, red_max=1):
    """The kernel under FORCE_PURE and without it, each equal to the reference."""
    want = reference(mul_rows, a, b, red.tolist())
    a, b = pack(a), pack(b)
    prev = _kernel.FORCE_PURE
    try:
        _kernel.FORCE_PURE = True
        pure = convolve_exact(mul_rows, mul_np, a, b, red, red_max)
        _kernel.FORCE_PURE = prev
        fast = convolve_exact(mul_rows, mul_np, a, b, red, red_max)
    finally:
        _kernel.FORCE_PURE = prev
    assert_same(pure, want)
    assert_same(fast, want)
    return pure, fast


def reduction(n):
    tab = field_tables(n)
    return tab.pow_rows[: 2 * tab.degree - 1], tab.red_max


def test_backend_name():
    assert backend_name() == "compiled"


def test_dirac_identity_rows():
    mul_rows, mul_np = tables(cyclic_group(5))
    e = [[1 if x == 0 else 0] for x in range(5)]
    b = [[x + 1] for x in range(5)]
    pure, fast = both_backends(mul_rows, mul_np, e, b, RED_D1)
    assert_same(pure, fast)
    assert_same(fast, [[x + 1] for x in range(5)])


def test_gaussian_integer_reduction():
    # (1 + i)^2 = 2i at the identity of the trivial-action convolution
    mul_rows, mul_np = tables(cyclic_group(1))
    a = [[1, 1]]
    pure, fast = both_backends(mul_rows, mul_np, a, a, RED_PHI4)
    assert_same(pure, fast)
    assert_same(fast, [[0, 2]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_backends_agree_random(data):
    g = data.draw(st.sampled_from([cyclic_group(6), symmetric_group(3)]))
    n = g.order
    mul_rows, mul_np = tables(g)
    red, red_max = data.draw(
        st.sampled_from([(RED_D1, 1), (RED_PHI4, 1), reduction(5), reduction(15)])
    )
    d = len(red[0])
    row = st.lists(st.integers(-50, 50), min_size=d, max_size=d)
    a = data.draw(st.lists(row, min_size=n, max_size=n))
    b = data.draw(st.lists(row, min_size=n, max_size=n))
    pure, fast = both_backends(mul_rows, mul_np, a, b, red, red_max)
    assert_same(pure, fast)


@pytest.mark.parametrize("block_terms", [_kernel._BLOCK_TERMS, 7])
@pytest.mark.parametrize("conductor", [1, 12, 105])
def test_within_bound_runs_int64(monkeypatch, block_terms, conductor, scatter_dtypes):
    # conductor 105: d = 48 and red_max = 2; block_terms = 7 splits the
    # scatter into one block per row of a
    g = symmetric_group(3)
    mul_rows, mul_np = tables(g)
    red, red_max = reduction(conductor)
    d = len(red[0])
    rng = np.random.default_rng(conductor)
    a = rng.integers(-1000, 1000, size=(g.order, d)).tolist()
    b = rng.integers(-1000, 1000, size=(g.order, d)).tolist()
    a[2] = [0] * d
    expect = reference(mul_rows, a, b, red.tolist())
    monkeypatch.setattr(_kernel, "_BLOCK_TERMS", block_terms)
    got = convolve_exact(mul_rows, mul_np, pack(a), pack(b), red, red_max)
    assert_same(got, expect)
    assert scatter_dtypes == [np.int64]


def test_within_bound_measure_runs_int64(scatter_dtypes):
    full = full_subgroup(symmetric_group(5))
    expect = haar(full)
    assert convolve(expect, expect) == expect
    assert scatter_dtypes == [np.int64]


@pytest.mark.parametrize(
    "a, b", [OVER_BOUND_C4, MIN_INT64_C4, DENSE_C8], ids=["2**40", "-2**63", "dense"]
)
def test_over_bound_falls_back_to_pure(a, b, scatter_dtypes):
    mul_rows, mul_np = tables(cyclic_group(len(a)))
    expect = reference(mul_rows, a, b, [[1]])
    # int64 inputs, so the bound (not the dtype) decides the fallback
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert_same(convolve_exact(mul_rows, mul_np, a, b, RED_D1, 1), expect)
    assert scatter_dtypes == [object]
    assert max(abs(v[0]) for v in expect) >= 2**63


def test_fallback_survives_optimize():
    # the bound is an if, not an assert: python -O must still fall back
    code = (
        "import numpy as np\n"
        "from idemconv._kernel import convolve_exact\n"
        "from _pykernel import convolve_exact as pure\n"
        "from idemconv.cyclo import pack\n"
        f"a, b = {OVER_BOUND_C4!r}\n"
        "mul = [[(x + y) % 4 for y in range(4)] for x in range(4)]\n"
        "got = convolve_exact(mul, np.array(mul), pack(a), pack(b), pack([[1]]), 1)\n"
        "want = pack(pure(mul, a, b, [[1]]))\n"
        "raise SystemExit(0 if got.dtype == want.dtype and np.array_equal(got, want) else 1)\n"
    )
    src = os.path.dirname(os.path.dirname(idemconv.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_big_integers_stay_exact():
    # coefficients far beyond int64: dispatch must route around the
    # int64 kernel and still return exact products
    mul_rows, mul_np = tables(cyclic_group(4))
    big = 10**30
    a = [[big], [-big], [big], [0]]
    b = [[big], [big], [0], [-big]]
    pure, fast = both_backends(mul_rows, mul_np, a, b, RED_D1)
    assert_same(pure, fast)
    assert any(abs(v[0]) >= 10**60 for v in pure)


def test_force_pure_switch(monkeypatch, scatter_dtypes):
    mul_rows, mul_np = tables(cyclic_group(2))
    monkeypatch.setattr(_kernel, "FORCE_PURE", True)
    assert backend_name() == "pure"
    e = pack([[1], [0]])
    assert_same(convolve_exact(mul_rows, mul_np, e, e, RED_D1, 1), [[1], [0]])
    assert scatter_dtypes == [object]
    monkeypatch.setattr(_kernel, "FORCE_PURE", False)
    assert backend_name() == "compiled"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_measure_convolution_backend_independent(data):
    """End-to-end: Measure convolution must not depend on the backend."""
    g = symmetric_group(3)
    full = full_subgroup(g)
    chi = character_group(closure(g, [g.idx("(123)")]))[1]
    pool = [
        haar(full),
        char_idem(chi.domain, chi),
        dirac(g, data.draw(st.integers(0, 5))),
        dirac(g, 1) * Fraction(data.draw(st.integers(-3, 3)), 2),
    ]
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    prev = _kernel.FORCE_PURE
    try:
        _kernel.FORCE_PURE = True
        slow = convolve(a, b)
        _kernel.FORCE_PURE = prev
        fast = convolve(a, b)
    finally:
        _kernel.FORCE_PURE = prev
    assert slow == fast


# -- stacks: m1 numerators times m2 in one call ---------------------------------


def _random_measures(g, n, rng, count, size):
    """count measures at conductor n, the second one zero, with entries below size."""
    d = field_tables(n).degree
    out = []
    for k in range(count):
        rows = rng.integers(-size, size, size=(g.order, d)) * (k != 1)
        out.append(Measure._build(g, n, pack(rows.tolist()), k + 2))
    return out


def _assert_stack_is_convolve(g, n, a, b, stacked):
    """Block (i, j) of the stack is the reference product of a[i] and b[j], and
    over den_i * den_j it is convolve(a[i], b[j]) bit for bit."""
    m2 = len(b)
    red = reduction(n)[0].tolist()
    for i, mu in enumerate(a):
        for j, nu in enumerate(b):
            block = stacked[(i * m2 + j) * g.order : (i * m2 + j + 1) * g.order]
            assert_same(pack(block), reference(g.mul, mu.rows.tolist(), nu.rows.tolist(), red))
            got, want = Measure._build(g, n, block, mu.den * nu.den), convolve(mu, nu)
            assert (got.conductor, got.den) == (want.conductor, want.den)
            assert_same(got.rows, want.rows)


def _stack(measures):
    return np.vstack([m.rows for m in measures])


@pytest.mark.parametrize("conductor", [1, 12, 105])
def test_stack_matches_per_pair_convolve_int64(monkeypatch, conductor, scatter_dtypes):
    g = symmetric_group(3)
    rng = np.random.default_rng(conductor)
    a = _random_measures(g, conductor, rng, 3, 1000)
    b = _random_measures(g, conductor, rng, 2, 1000)
    red, red_max = reduction(conductor)
    stacked = convolve_exact(g.mul, g.mul_np, _stack(a), _stack(b), red, red_max)
    assert stacked.shape == (3 * 2 * g.order, field_tables(conductor).degree)
    assert scatter_dtypes == [np.int64]
    monkeypatch.undo()
    _assert_stack_is_convolve(g, conductor, a, b, stacked)


def test_stack_matches_per_pair_convolve_force_pure(monkeypatch, scatter_dtypes):
    g = symmetric_group(3)
    rng = np.random.default_rng(5)
    a = _random_measures(g, 12, rng, 2, 50)
    b = _random_measures(g, 12, rng, 3, 50)
    red, red_max = reduction(12)
    monkeypatch.setattr(_kernel, "FORCE_PURE", True)
    stacked = convolve_exact(g.mul, g.mul_np, _stack(a), _stack(b), red, red_max)
    assert scatter_dtypes == [object]  # one scatter on Python ints for the whole stack
    monkeypatch.setattr(_kernel, "FORCE_PURE", False)
    _assert_stack_is_convolve(g, 12, a, b, stacked)


def test_stack_over_the_bound_falls_back_exactly(scatter_dtypes):
    # one measure per side has entries near 2**40: its products pass 2**62,
    # so the whole stack runs on Python ints and packs as object
    g = symmetric_group(3)
    rng = np.random.default_rng(8)
    a = _random_measures(g, 12, rng, 3, 50) + _random_measures(g, 12, rng, 1, 2**40)
    b = _random_measures(g, 12, rng, 1, 2**40) + _random_measures(g, 12, rng, 1, 50)
    red, red_max = reduction(12)
    stacked = convolve_exact(g.mul, g.mul_np, _stack(a), _stack(b), red, red_max)
    assert scatter_dtypes == [object] and stacked.dtype == object
    assert max_abs(stacked) >= 2**62
    _assert_stack_is_convolve(g, 12, a, b, stacked)


@pytest.mark.parametrize("conductor", [1, 12, 105])
def test_big_int_stack_matches_reference(conductor, scatter_dtypes):
    # every nonzero measure has entries near 10**20, past int64 on input
    g = symmetric_group(3)
    rng = np.random.default_rng(conductor)
    a, b = _random_measures(g, conductor, rng, 3, 50), _random_measures(g, conductor, rng, 2, 50)
    a, b = [m.scale(10**20) for m in a], [m.scale(10**20) for m in b]
    assert a[0].rows.dtype == b[0].rows.dtype == object
    red, red_max = reduction(conductor)
    stacked = convolve_exact(g.mul, g.mul_np, _stack(a), _stack(b), red, red_max)
    assert scatter_dtypes == [object] and stacked.dtype == object
    _assert_stack_is_convolve(g, conductor, a, b, stacked)
