"""Quadrature on the 3-D rotation group.

Compares the average of a test function against the product measure
m_T1 * m_T2 * m_T1 (three independent uniform Euler angles) with its Haar
average (sin-weighted middle angle); a gap on T1-bi-invariant functions
shows the product of the three torus measures is not Haar.

The quadrature grid k1(t1) k2(t2) k1(t3) over every angle triple (i, j, k)
is built as nine contiguous (i, j, k) planes, one per matrix entry (u, w).
Each plane sums the three products of its entry as (p0 + p1) + p2, each
product rounded on its own and never fused into an add, so its bits do not
depend on which inner loop numpy picks (a broadcast matmul can move them by
an ulp). The grid is returned as a strided view with the entry axes
last: callers index m[..., u, w], and reading one entry reads one
contiguous plane. A copy back to (..., 3, 3) order would double the grid's
memory.

Neither the grid nor any test function's values ever exist whole. The
means build the grid one slab of first angles at a time, at most
_SLAB_BYTES of entries (one first angle if a plane is more), evaluate each
test function on the slab and reduce its values before the next slab is
built, so memory is one slab however large the grid. Each mean adds in
numpy's own order, so its bits are those of v.mean() and
v.mean(axis=(0, 2)) over the whole value array, whatever the slab size:
the product mean runs numpy's pairwise-summation tree over the flat
values, one np.add.reduce per node inside a slab; the Haar mean adds each
(i, j) row's pairwise sum in order of the first angle i. Test functions
must therefore be pointwise: a vectorized call sees one slab of matrices,
not the whole grid. tests/test_so3.py checks both orders against numpy's
own reductions, so a numpy that sums in another order fails there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "euler_k1",
    "euler_k2",
    "is_rotation",
    "integrate_product",
    "integrate_haar",
    "Example33Report",
    "example_33_report",
]


def euler_k1(t) -> np.ndarray:
    """Rotation by t about the first axis; vectorized, shape (..., 3, 3)."""
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = c
    out[..., 1, 2] = -s
    out[..., 2, 1] = s
    out[..., 2, 2] = c
    return out


def euler_k2(t) -> np.ndarray:
    """Rotation by t about the third axis; vectorized, shape (..., 3, 3)."""
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def is_rotation(mat: np.ndarray, tol: float = 1e-12) -> bool:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    if np.abs(mat @ mat.T - np.eye(3)).max() >= tol:
        return False
    return abs(np.linalg.det(mat) - 1.0) < tol


def _evaluate(u: Callable, mats: np.ndarray) -> np.ndarray:
    # vectorized call first; per-sample loop for scalar-only test functions,
    # indexing the strided slab in place (a reshape would copy all of it)
    try:
        vals = np.asarray(u(mats), dtype=float)
        if vals.shape == mats.shape[:-2]:
            return vals
    except Exception:
        pass
    shape = mats.shape[:-2]
    return np.array([float(u(mats[idx])) for idx in np.ndindex(shape)]).reshape(shape)


def _product_grid(angles1: np.ndarray, angles2: np.ndarray, angles3: np.ndarray) -> np.ndarray:
    a = euler_k1(angles1)
    b = euler_k2(angles2)
    c = euler_k1(angles3)
    ab = np.einsum("iuv,jvw->ijuw", a, b)
    ab_t = np.ascontiguousarray(ab.transpose(2, 3, 0, 1))  # (u, v, i, j)
    c_t = np.ascontiguousarray(c.transpose(1, 2, 0))  # (v, w, k)
    planes = np.empty((3, 3) + ab.shape[:2] + c.shape[:1])
    term = np.empty(planes.shape[2:])
    for u in range(3):
        for w in range(3):
            plane = planes[u, w]
            np.multiply(ab_t[u, 0][:, :, None], c_t[0, w], out=plane)
            for v in (1, 2):
                np.multiply(ab_t[u, v][:, :, None], c_t[v, w], out=term)
                plane += term
    return planes.transpose(2, 3, 4, 0, 1)


# float64 grid entries built at once, so one slab of the grid stays near 2 MB
_SLAB_BYTES = 2 << 20

# numpy's pairwise summation (np.add.reduce over contiguous float64): a
# range of more than _PAIRWISE_LEAF values splits at half its length,
# rounded down to a multiple of 8; a range of at most _PAIRWISE_LEAF values
# is one leaf, summed with 8 accumulators
_PAIRWISE_LEAF = 128


def _slab_edges(n1: int, n2: int, n3: int) -> list[int]:
    """First-angle indices where the slabs start, then n1: each slab holds at
    most _SLAB_BYTES of grid entries, or one first angle if a plane is more."""
    step = max(1, _SLAB_BYTES // (9 * 8 * n2 * n3))
    return list(range(0, n1, step)) + [n1]


def _reduce_slabs(
    fns: Sequence[Callable],
    angles1: np.ndarray,
    angles2: np.ndarray,
    angles3: np.ndarray,
    edges: Sequence[int],
    reduce: Callable[[int, int, np.ndarray], None],
) -> None:
    """Build the grid one slab of first angles at a time, edges[s]:edges[s+1],
    and call reduce(f, s, values) with test function f's values on slab s,
    a C-contiguous (hi - lo, n2, n3) array. No values outlive the call: a
    value array may be a view that keeps the whole slab alive."""
    for s, (lo, hi) in enumerate(zip(edges, edges[1:])):
        mats = _product_grid(angles1[lo:hi], angles2, angles3)
        for f, u in enumerate(fns):
            reduce(f, s, np.ascontiguousarray(_evaluate(u, mats)))
        del mats  # before the next slab is built, so two slabs never coexist


def _pairwise_steps(n: int, edges: Sequence[int]) -> list[list]:
    """numpy's pairwise-summation tree over n flat values, cut at the slab
    edges 0 = edges[0] < ... < edges[-1] = n into each slab's steps.

    A node inside one slab is one step (lo, hi): one np.add.reduce of the
    slab's values lo:hi repeats the tree below it. A leaf across slab edges
    has a step in every slab it touches, offsets relative to that slab; hi
    lies past the end of every slab but the last, which sums the pieces. A
    None step adds the last two sums, left + right, in the slab where the
    right node ends. Only nodes across an edge are split, so the steps
    number O(slabs x tree depth).
    """
    steps: list[list] = [[] for _ in edges[1:]]

    def walk(lo: int, hi: int) -> None:
        first = bisect_right(edges, lo) - 1
        last = bisect_left(edges, hi) - 1
        if first == last or hi - lo <= _PAIRWISE_LEAF:
            for s in range(first, last + 1):
                steps[s].append((max(lo, edges[s]) - edges[s], hi - edges[s]))
            return
        half = (hi - lo) // 2
        half -= half % 8
        walk(lo, lo + half)
        walk(lo + half, hi)
        steps[last].append(None)

    walk(0, n)
    return steps


def _run_steps(steps: list, flat: np.ndarray, sums: list[float], kept: list) -> None:
    """Run one slab's steps on its flat values: sums is the stack of node
    sums, kept the pieces of a leaf that started in an earlier slab."""
    for step in steps:
        if step is None:
            right = sums.pop()
            sums[-1] += right
            continue
        lo, hi = step
        if hi > len(flat):
            kept.append(flat[lo:].copy())  # a view would keep the slab alive
        elif kept:
            kept.append(flat[lo:hi])
            sums.append(float(np.add.reduce(np.concatenate(kept))))
            kept.clear()
        else:
            sums.append(float(np.add.reduce(flat[lo:hi])))


def _product_means(fns: Sequence[Callable], grid: int) -> list[float]:
    # v.mean() over the whole grid is numpy's pairwise sum of the flat
    # values over their count: run its tree slab by slab
    t = 2 * np.pi * np.arange(grid) / grid
    edges = _slab_edges(grid, grid, grid)
    n = grid**3
    steps = _pairwise_steps(n, [e * grid * grid for e in edges])
    sums: list[list[float]] = [[] for _ in fns]
    kept: list[list] = [[] for _ in fns]

    def reduce(f: int, s: int, vals: np.ndarray) -> None:
        _run_steps(steps[s], vals.reshape(-1), sums[f], kept[f])

    _reduce_slabs(fns, t, t, t, edges, reduce)
    return [root / n for (root,) in sums]


def _haar_means(fns: Sequence[Callable], grid: int) -> list[float]:
    # v.mean(axis=(0, 2)) adds the pairwise sum over k of each (i, j) row in
    # order of i: add each slab's row sums in that order, then weight the
    # middle integral over half the mass
    t = 2 * np.pi * np.arange(grid) / grid
    nodes, weights = np.polynomial.legendre.leggauss(grid)
    t2 = (nodes + 1.0) * (np.pi / 2)
    w2 = weights * (np.pi / 2) * np.sin(t2)
    sums = [np.zeros(grid) for _ in fns]

    def reduce(f: int, s: int, vals: np.ndarray) -> None:
        for row in np.add.reduce(vals, axis=2):
            sums[f] += row

    _reduce_slabs(fns, t, t2, t, _slab_edges(grid, grid, grid), reduce)
    return [float((acc / (grid * grid) * w2).sum() / 2.0) for acc in sums]


def integrate_product(u: Callable, grid: int = 64) -> float:
    """Mean of u against m_T1 * m_T2 * m_T1: three uniform angles.

    Periodic trapezoid on each axis, which is spectrally accurate for
    trigonometric-polynomial test functions.
    """
    return _product_means((u,), grid)[0]


def integrate_haar(u: Callable, grid: int = 64) -> float:
    """Haar mean of u: middle angle weighted by sin on [0, pi].

    Outer angles use the periodic trapezoid rule; the middle integral
    uses Gauss-Legendre nodes, exact for the polynomial integrands the
    report panel uses.
    """
    return _haar_means((u,), grid)[0]


@dataclass(frozen=True)
class Example33Report:
    grid: int
    panel: tuple[tuple[str, float, float, float], ...]
    normalization_product: float
    normalization_haar: float
    max_delta: float
    separated: bool


def example_33_report(grid: int = 64) -> Example33Report:
    """Discrepancy panel on T1-bi-invariant test functions.

    The entries g11, g11^2, g11^3 depend only on the middle Euler angle;
    the squared entry separates the product measure (mean 1/2) from Haar
    (mean 1/3), proving the two measures differ.
    """
    panel_fns = (
        ("g11", lambda m: m[..., 0, 0]),
        ("g11^2", lambda m: m[..., 0, 0] ** 2),
        ("g11^3", lambda m: m[..., 0, 0] ** 3),
    )
    one = lambda m: np.ones(m.shape[:-2])
    fns = [fn for _, fn in panel_fns] + [one]
    *ps, np_ = _product_means(fns, grid)
    *hs, nh = _haar_means(fns, grid)
    rows = [(name, p, h, p - h) for (name, _), p, h in zip(panel_fns, ps, hs)]
    max_delta = max(abs(r[3]) for r in rows)
    return Example33Report(
        grid, tuple(rows), np_, nh, max_delta, separated=max_delta > 0.1
    )
