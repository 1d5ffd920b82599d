"""Exact group-algebra convolution kernel.

One numpy scatter runs on int64 rows, or on object rows (Python ints) when
FORCE_PURE is set or a conservative bound on its results reaches 2**62.
idemconv.cyclo._exact makes that choice, as for every other row helper, so
int64 never wraps and both dtypes give identical packed arrays
(idemconv.cyclo.pack).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cyclo import INT64_LIMIT, _exact, max_abs

# The int64 path is present; it needs nothing beyond numpy.
HAS_COMPILED = True

# In-process switch: run the scatter on Python ints, read on every call.
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
    m2 = len(b_rows) // n
    m = len(a_rows) // n * m2
    ga = a_rows.any(axis=1).nonzero()[0]
    hb = b_rows.any(axis=1).nonzero()[0]
    a, b = a_rows[ga], b_rows[hb]
    # Within one product at most min(nnz) pairs (g, h) share a target t = gh
    # and each adds d terms to a column of acc; folding the d-1 columns >= d
    # back in adds at most (d-1)*red_max times that again.  The nonzero rows
    # of the whole stack bound those of any one product.  Zero only if a
    # side is zero.
    bound = min(ga.size, hb.size) * d * max_abs(a) * max_abs(b) * 2 * d * max(1, red_max)
    if not bound:
        return np.zeros((m * n, d), dtype=np.int64)

    width = 2 * d - 1
    # a_k * b_l at rows (i, g) and (j, h) lands in acc at flat index
    # ((i*m2 + j)*n + mul[g][h]) * width + k + l
    targets = mul_np.take(ga % n, 0).take(hb % n, 1) * width
    if m > 1:
        targets += np.add.outer(ga // n * m2, hb // n) * (n * width)
    cols = np.arange(d)[:, None] + np.arange(d)
    step = max(1, _BLOCK_TERMS // (hb.size * d * d))

    def scatter(a, b, fold):
        acc = np.zeros(m * n * width, dtype=a.dtype)
        for lo in range(0, ga.size, step):
            hi = lo + step
            terms = a[lo:hi, None, :, None] * b[None, :, None, :]
            np.add.at(acc, targets[lo:hi, :, None, None] + cols, terms)
        acc = acc.reshape(m * n, width)
        return acc[:, :d] + acc[:, d:] @ fold

    if FORCE_PURE:
        bound = max(bound, INT64_LIMIT)
    return _exact(bound, scatter, a, b, red_rows[d:width])
