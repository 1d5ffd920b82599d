"""Convolution kernel dispatch.

The int64 backend (numpy) runs unless FORCE_PURE is set or a conservative
magnitude bound cannot show that every intermediate stays below 2**62.
Otherwise the pure big-int backend runs; both produce identical integer rows.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np

from . import _pykernel

# The int64 path is present; it needs nothing beyond numpy.
HAS_COMPILED = True

# In-process switch to the pure backend, read on every call.
FORCE_PURE = False

# headroom below 2**63-1 so the bound stays safe even if off by a small factor
_I64_LIMIT = 2**62

# products formed per np.add.at call, so temporaries stay near 8 MB each
_BLOCK_TERMS = 1 << 20

__all__ = ["HAS_COMPILED", "FORCE_PURE", "backend_name", "convolve_exact"]


def backend_name() -> str:
    return "pure" if FORCE_PURE else "compiled"


def _max_abs(x: np.ndarray) -> int:
    # np.abs wraps -2**63 to itself; read as uint64 that is 2**63, its true size
    return int(np.abs(x).view(np.uint64).max())


def convolve_exact(
    mul_rows: Sequence[Sequence[int]],
    mul_np: "np.ndarray",
    a_rows: Sequence[Sequence[int]],
    b_rows: Sequence[Sequence[int]],
    red_rows: Sequence[Sequence[int]],
    red_max: int,
) -> list[list[int]]:
    """Exact group-algebra convolution of packed numerator matrices.

    Entry [g][j] of a_rows is the j-th power-basis coordinate of the
    numerator at group element g; red_rows[j] expresses x^j in the basis
    for j < 2d-1.  Returns n rows of d integers.
    """
    if FORCE_PURE:
        return _pykernel.convolve_exact(mul_rows, a_rows, b_rows, red_rows)
    n = len(mul_rows)
    d = len(red_rows[0])
    ga = list(compress(range(n), map(any, a_rows)))
    hb = list(compress(range(n), map(any, b_rows)))
    if not ga or not hb:
        return [[0] * d for _ in range(n)]
    try:
        a = np.array([a_rows[g] for g in ga], dtype=np.int64)
        b = np.array([b_rows[h] for h in hb], dtype=np.int64)
    except OverflowError:
        return _pykernel.convolve_exact(mul_rows, a_rows, b_rows, red_rows)
    # At most min(nnz) pairs (g, h) share a target t = gh and each adds d
    # terms to a column of acc; folding the d-1 columns >= d back in adds at
    # most (d-1)*red_max times that again.
    bound = min(len(ga), len(hb)) * d * _max_abs(a) * _max_abs(b)
    if bound * 2 * d * max(1, red_max) >= _I64_LIMIT:
        return _pykernel.convolve_exact(mul_rows, a_rows, b_rows, red_rows)

    width = 2 * d - 1
    # a_i * b_j at (g, h) lands in acc at flat index mul[g][h] * width + i + j
    targets = mul_np.take(ga, 0).take(hb, 1) * width
    cols = np.arange(d)[:, None] + np.arange(d)
    acc = np.zeros(n * width, dtype=np.int64)
    step = max(1, _BLOCK_TERMS // (len(hb) * d * d))
    for lo in range(0, len(ga), step):
        hi = lo + step
        terms = a[lo:hi, None, :, None] * b[None, :, None, :]
        np.add.at(acc, targets[lo:hi, :, None, None] + cols, terms)
    acc = acc.reshape(n, width)
    red = np.array(red_rows[d:width], dtype=np.int64).reshape(d - 1, d)
    return (acc[:, :d] + acc[:, d:] @ red).tolist()
