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

The grid never exists whole: the means build it one slab of first angles
at a time, at most _SLAB_BYTES of entries, evaluate every test function on
the slab and write the values into one full (i, j, k) array per function.
Each mean then reduces a full, C-contiguous value array, so its bits do
not depend on the slab size. Test functions must therefore be pointwise:
a vectorized call sees one slab of matrices, not the whole grid.
"""

from __future__ import annotations

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


def _grid_values(
    fns: Sequence[Callable], angles1: np.ndarray, angles2: np.ndarray, angles3: np.ndarray
) -> np.ndarray:
    """Each test function's values over every angle triple: entry [f] of the
    (len(fns), n1, n2, n3) result is a full, C-contiguous value array, filled
    from the grid built slab by slab."""
    # one block for all functions: freed whole, glibc keeps a block this size
    # in its heap for the next call instead of unmapping it, so its pages are
    # not faulted in again on every call
    vals = np.empty((len(fns), len(angles1), len(angles2), len(angles3)))
    step = max(1, _SLAB_BYTES // (9 * 8 * len(angles2) * len(angles3)))
    for lo in range(0, len(angles1), step):
        mats = _product_grid(angles1[lo : lo + step], angles2, angles3)
        for v, u in zip(vals, fns):
            v[lo : lo + step] = _evaluate(u, mats)
        del mats  # before the next slab is built, so two slabs never coexist
    return vals


def _product_means(fns: Sequence[Callable], grid: int) -> list[float]:
    # each mean reduces a full value array, so its bits do not depend on the slab
    t = 2 * np.pi * np.arange(grid) / grid
    return [float(v.mean()) for v in _grid_values(fns, t, t, t)]


def _haar_means(fns: Sequence[Callable], grid: int) -> list[float]:
    # as _product_means: average the outer axes of each full value array,
    # then the weighted middle integral over half the mass
    t = 2 * np.pi * np.arange(grid) / grid
    nodes, weights = np.polynomial.legendre.leggauss(grid)
    t2 = (nodes + 1.0) * (np.pi / 2)
    w2 = weights * (np.pi / 2) * np.sin(t2)
    return [
        float((v.mean(axis=(0, 2)) * w2).sum() / 2.0) for v in _grid_values(fns, t, t2, t)
    ]


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
