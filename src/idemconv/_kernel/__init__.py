"""Convolution kernel dispatch.

The int64 backend (numpy) runs unless FORCE_PURE is set or a conservative
magnitude bound cannot show that every intermediate stays below 2**62 (for a
nonzero product with an object input it never can).  Otherwise the pure
big-int backend runs; both give identical packed arrays (idemconv.cyclo.pack).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cyclo import INT64_LIMIT, max_abs, pack
from . import _pykernel

# The int64 path is present; it needs nothing beyond numpy.
HAS_COMPILED = True

# In-process switch to the pure backend, read on every call.
FORCE_PURE = False

# products formed per np.add.at call, so temporaries stay near 8 MB each
_BLOCK_TERMS = 1 << 20

__all__ = ["HAS_COMPILED", "FORCE_PURE", "backend_name", "convolve_exact"]


def backend_name() -> str:
    return "pure" if FORCE_PURE else "compiled"


def convolve_exact(
    mul_rows: Sequence[Sequence[int]],
    mul_np: "np.ndarray",
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    red_rows: np.ndarray,
    red_max: int,
) -> np.ndarray:
    """Exact group-algebra convolution of stacks of packed numerator matrices.

    Entry [g, j] of an (n, d) numerator is the j-th power-basis coordinate
    at group element g; red_rows[j] expresses x^j in the basis for j < 2d-1.
    a_rows stacks m1 numerators and b_rows m2, each n consecutive rows, so
    they are (m1*n, d) and (m2*n, d).  Returns every product a_i * b_j as
    one packed (m1*m2*n, d) stack, product (i, j) at block i*m2 + j; two
    single (n, d) numerators give their (n, d) product.
    """
    n = len(mul_rows)
    d = red_rows.shape[1]
    ga = a_rows.any(axis=1).nonzero()[0]
    hb = b_rows.any(axis=1).nonzero()[0]
    a, b = a_rows[ga], b_rows[hb]
    # Within one product at most min(nnz) pairs (g, h) share a target t = gh
    # and each adds d terms to a column of acc; folding the d-1 columns >= d
    # back in adds at most (d-1)*red_max times that again.  The nonzero rows
    # of the whole stack bound those of any one product.  Zero only if a
    # side is zero.
    bound = min(ga.size, hb.size) * d * max_abs(a) * max_abs(b)
    if FORCE_PURE or bound * 2 * d * max(1, red_max) >= INT64_LIMIT:
        a_list, b_list, red = a_rows.tolist(), b_rows.tolist(), red_rows.tolist()
        blocks = [
            _pykernel.convolve_exact(mul_rows, a_list[i : i + n], b_list[j : j + n], red)
            for i in range(0, len(a_list), n)
            for j in range(0, len(b_list), n)
        ]
        return pack([row for block in blocks for row in block])
    m2 = len(b_rows) // n
    m = len(a_rows) // n * m2
    if not bound:
        return np.zeros((m * n, d), dtype=np.int64)

    width = 2 * d - 1
    # a_k * b_l at rows (i, g) and (j, h) lands in acc at flat index
    # ((i*m2 + j)*n + mul[g][h]) * width + k + l
    targets = mul_np.take(ga % n, 0).take(hb % n, 1) * width
    if m > 1:
        targets += np.add.outer(ga // n * m2, hb // n) * (n * width)
    cols = np.arange(d)[:, None] + np.arange(d)
    acc = np.zeros(m * n * width, dtype=np.int64)
    step = max(1, _BLOCK_TERMS // (hb.size * d * d))
    for lo in range(0, ga.size, step):
        hi = lo + step
        terms = a[lo:hi, None, :, None] * b[None, :, None, :]
        np.add.at(acc, targets[lo:hi, :, None, None] + cols, terms)
    acc = acc.reshape(m * n, width)
    return acc[:, :d] + acc[:, d:] @ red_rows[d:width]
