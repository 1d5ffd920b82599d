"""Pure-Python exact convolution kernel, the reference for idemconv._kernel.

Works on integer numerator rows (one row of power-basis coordinates per
group element); Python integers never overflow, and it shares no code with
the numpy scatter, so the kernel tests compare both of its dtypes with it.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["convolve_exact"]


def convolve_exact(
    mul_rows: Sequence[Sequence[int]],
    a_rows: Sequence[Sequence[int]],
    b_rows: Sequence[Sequence[int]],
    red_rows: Sequence[Sequence[int]],
) -> list[list[int]]:
    n = len(mul_rows)
    d = len(red_rows[0])
    width = 2 * d - 1
    acc: list[list[int] | None] = [None] * n
    b_nz = [(h, row) for h, row in enumerate(b_rows) if any(row)]
    for g, arow in enumerate(a_rows):
        if not any(arow):
            continue
        nz_a = [(i, c) for i, c in enumerate(arow) if c]
        mg = mul_rows[g]
        for h, brow in b_nz:
            t = mg[h]
            row = acc[t]
            if row is None:
                row = acc[t] = [0] * width
            for i, ai in nz_a:
                for j, bj in enumerate(brow):
                    if bj:
                        row[i + j] += ai * bj
    out = []
    for t in range(n):
        row = acc[t]
        o = [0] * d
        if row is not None:
            for j in range(d):
                o[j] = row[j]
            for j in range(d, width):
                c = row[j]
                if c:
                    rr = red_rows[j]
                    for k in range(d):
                        if rr[k]:
                            o[k] += c * rr[k]
        out.append(o)
    return out
