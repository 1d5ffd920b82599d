"""Rotation-group quadrature: product measure vs Haar."""

import math
import tracemalloc

import numpy as np
import pytest

from idemconv import so3
from idemconv.so3 import (
    _product_grid,
    euler_k1,
    euler_k2,
    example_33_report,
    integrate_haar,
    integrate_product,
    is_rotation,
)


def g11(mats):
    return mats[..., 0, 0]


def g11_sq(mats):
    return mats[..., 0, 0] ** 2


def _dot3(x, y):
    # Python floats never fuse a multiply into an add
    return (x[0] * y[0] + x[1] * y[1]) + x[2] * y[2]


def _reference_grid(t1, t2, t3):
    """k1(t1) k2(t2) k1(t3) entry by entry, each sum taken as (p0 + p1) + p2."""
    a, b, c = euler_k1(t1).tolist(), euler_k2(t2).tolist(), euler_k1(t3).tolist()
    out = np.empty((len(t1), len(t2), len(t3), 3, 3))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            ab = [[_dot3(ai[u], [row[w] for row in bj]) for w in range(3)] for u in range(3)]
            for k, ck in enumerate(c):
                for u in range(3):
                    for w in range(3):
                        out[i, j, k, u, w] = _dot3(ab[u], [row[w] for row in ck])
    return out


def _random_angles(*counts):
    rng = np.random.default_rng(sum(counts))
    return [rng.uniform(-4.0, 4.0, n) for n in counts]


GRID_ANGLES = {
    "random-3x4x5": _random_angles(3, 4, 5),
    "random-7x2x6": _random_angles(7, 2, 6),
    # the quadrature's own angles: this grid holds exact zeros, whose signs count too
    "uniform-8": [2 * math.pi * np.arange(8) / 8] * 3,
}


@pytest.mark.parametrize("name", GRID_ANGLES)
def test_product_grid_sums_in_fixed_order(name):
    angles = GRID_ANGLES[name]
    got = _product_grid(*angles)
    want = _reference_grid(*angles)
    assert got.shape == tuple(len(t) for t in angles) + (3, 3)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # each matrix entry is one contiguous plane over the angle triples
    assert all(got[..., u, w].flags.c_contiguous for u in range(3) for w in range(3))


def test_euler_factories_are_rotations():
    ts = np.linspace(0.0, 2 * math.pi, 17)
    for t in ts:
        assert is_rotation(euler_k1(t))
        assert is_rotation(euler_k2(t))


def test_one_parameter_subgroup_law():
    a, b = 0.7, 1.9
    assert np.allclose(euler_k1(a) @ euler_k1(b), euler_k1(a + b), atol=1e-12)
    assert np.allclose(euler_k2(a) @ euler_k2(b), euler_k2(a + b), atol=1e-12)
    assert np.allclose(euler_k1(0.0), np.eye(3), atol=1e-15)


def test_k1_k2_do_not_commute():
    a = euler_k1(1.0) @ euler_k2(1.0)
    b = euler_k2(1.0) @ euler_k1(1.0)
    assert not np.allclose(a, b, atol=1e-3)


def test_product_integral_oracles():
    # g11 of k1(t1) k2(t2) k1(t3) is cos(t2), so the triple average picks
    # out moments of the cosine: mean 0, mean square 1/2, mean cube 0
    assert integrate_product(g11, grid=48) == pytest.approx(0.0, abs=1e-9)
    assert integrate_product(g11_sq, grid=48) == pytest.approx(0.5, abs=1e-9)
    assert integrate_product(lambda m: g11(m) ** 3, grid=48) == pytest.approx(
        0.0, abs=1e-9
    )


def test_haar_integral_oracles():
    # under Haar the matrix entry is a coordinate of a uniform frame:
    # odd moments vanish and the second moment is 1/3
    assert integrate_haar(g11, grid=48) == pytest.approx(0.0, abs=1e-9)
    assert integrate_haar(g11_sq, grid=48) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert integrate_haar(lambda m: g11(m) ** 3, grid=48) == pytest.approx(
        0.0, abs=1e-9
    )


def test_normalization():
    ones = lambda m: np.ones(m.shape[:-2])
    assert integrate_product(ones, grid=24) == pytest.approx(1.0, abs=1e-12)
    assert integrate_haar(ones, grid=24) == pytest.approx(1.0, abs=1e-12)


def test_grid_convergence():
    coarse = integrate_haar(g11_sq, grid=24)
    fine = integrate_haar(g11_sq, grid=96)
    assert abs(coarse - fine) < 1e-9


def test_non_vectorized_integrand_accepted():
    # at 65 the per-sample loop runs over several slabs
    for grid in (24, 65):
        val = integrate_product(lambda m: float(m[0, 0]) ** 2, grid=grid)
        assert val == pytest.approx(0.5, abs=1e-9)


def _whole_grid_means(u, grid):
    """integrate_product and integrate_haar, each from one whole-grid
    _product_grid call."""
    t = 2 * np.pi * np.arange(grid) / grid
    nodes, weights = np.polynomial.legendre.leggauss(grid)
    t2 = (nodes + 1.0) * (np.pi / 2)
    w2 = weights * (np.pi / 2) * np.sin(t2)
    # the means reduce the values in C order of (i, j, k), whatever order u returns
    product = float(np.ascontiguousarray(u(_product_grid(t, t, t))).mean())
    values = np.ascontiguousarray(u(_product_grid(t, t2, t)))
    haar = float((values.mean(axis=(0, 2)) * w2).sum() / 2.0)
    return product, haar


SLAB_INTEGRANDS = {
    "g11^2": g11_sq,
    # off-diagonal entries hold exact zeros on the uniform angles
    "mixed": lambda m: m[..., 1, 2] * m[..., 2, 0] + m[..., 0, 1],
    "fortran-order": lambda m: np.asfortranarray(m[..., 1, 0] * m[..., 2, 1]),
}


def _has_split_leaf(grid):
    """Whether a leaf of the product mean's tree lies across a slab edge."""
    edges = so3._slab_edges(grid, grid, grid)
    steps = so3._pairwise_steps(grid**3, [e * grid * grid for e in edges])
    return any(
        step is not None and step[1] > (hi - lo) * grid * grid
        for slab, lo, hi in zip(steps, edges, edges[1:])
        for step in slab
    )


# what each grid covers, as (slabs, a leaf across a slab edge, partial last slab)
SLAB_GRIDS = {
    1: (1, False, False),  # N = 1 < 8 values
    2: (1, False, False),  # N = 8, one leaf with 8 accumulators
    5: (1, False, False),  # N = 125, one leaf with a rest
    24: (1, False, False),  # a tree of leaves inside one slab
    64: (10, False, True),  # slab edges on leaf edges
    65: (11, True, True),  # leaves across slab edges
}


@pytest.mark.parametrize("name", SLAB_INTEGRANDS)
@pytest.mark.parametrize("grid", SLAB_GRIDS)
def test_slabbed_means_equal_whole_grid(grid, name):
    edges = so3._slab_edges(grid, grid, grid)
    sizes = {hi - lo for lo, hi in zip(edges, edges[1:])}
    assert (len(edges) - 1, _has_split_leaf(grid), len(sizes) > 1) == SLAB_GRIDS[grid]
    u = SLAB_INTEGRANDS[name]
    got = (integrate_product(u, grid), integrate_haar(u, grid))
    assert [x.hex() for x in got] == [x.hex() for x in _whole_grid_means(u, grid)]


def test_non_vectorized_means_equal_whole_grid():
    # the per-sample loop gives the same values as the vectorized twin
    scalar = lambda m: float(m[0, 1]) * float(m[2, 2])
    vectorized = lambda m: m[..., 0, 1] * m[..., 2, 2]
    got = (integrate_product(scalar, 7), integrate_haar(scalar, 7))
    assert [x.hex() for x in got] == [x.hex() for x in _whole_grid_means(vectorized, 7)]


def _random_values(n):
    # magnitudes over ten decades, so a change of summation order shows
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)


@pytest.mark.parametrize("n", [1, 7, 8, 129, 4096, 28673, 262144])
def test_pairwise_steps_follow_numpy_order(n):
    x = _random_values(n)
    cut_sets = [
        [],
        [n // 2],
        [n // 3, 2 * n // 3],
        [1, n // 7, n - 1],
        # every slab shorter than a leaf, so leaves cross several edges
        list(range(37, n, 37)),
    ]
    want = np.add.reduce(x).hex()
    for cuts in cut_sets:
        edges = [0] + sorted({c for c in cuts if 0 < c < n}) + [n]
        sums, kept = [], []
        for steps, lo, hi in zip(so3._pairwise_steps(n, edges), edges, edges[1:]):
            so3._run_steps(steps, x[lo:hi].copy(), sums, kept)
        assert len(sums) == 1 and not kept
        assert sums[0].hex() == want, cuts


@pytest.mark.parametrize("shape", [(5, 6, 7), (3, 2, 300), (64, 64, 64)])
def test_outer_axis_sums_follow_numpy_order(shape):
    # per slab of 1 or 3 planes, the row sums added in order of the plane
    v = _random_values(math.prod(shape)).reshape(shape)
    for step in (1, 3):
        acc = np.zeros(shape[1])
        for lo in range(0, shape[0], step):
            for row in np.add.reduce(v[lo : lo + step], axis=2):
                acc += row
        assert np.array_equal(acc, v.sum(axis=(0, 2))), step


def test_example_33_report_peak_memory():
    # the whole grid is 18 MB at 64 points and 151 MB at 128; built and
    # reduced one slab at a time, the report's peak is about one slab
    for grid in (64, 128):
        tracemalloc.start()
        try:
            example_33_report(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, grid


def test_example_33_report():
    rep = example_33_report(grid=48)
    assert rep.normalization_product == pytest.approx(1.0, abs=1e-12)
    assert rep.normalization_haar == pytest.approx(1.0, abs=1e-12)
    assert rep.max_delta == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert rep.separated
    # panel rows expose (product, haar) per test function
    assert len(rep.panel) == 3
