"""Int64 (compiled) vs pure convolution kernel on representative workloads.

Runs the same exact convolutions through both backends (flipping the
dispatch flag in place), checks the integer outputs agree, and prints a
timing table.  Invoke as: python3 benchmarks/bench_convolve.py
"""

from __future__ import annotations

import time
from fractions import Fraction

import idemconv._kernel as kernel
from idemconv import (
    Character,
    character_group,
    char_idem,
    closure,
    convolve,
    cyclic_group,
    dihedral_group,
    full_subgroup,
    haar,
    symmetric_group,
)


def _workloads():
    s5 = symmetric_group(5)
    big = haar(full_subgroup(s5))
    yield "S5 haar * haar (n=120, d=1)", big, big, 20

    c12 = cyclic_group(12)
    chi = next(
        c
        for c in character_group(full_subgroup(c12))
        if c.rotation(1) == Fraction(1, 12)
    )
    mu = char_idem(full_subgroup(c12), chi)
    yield "C12 character idempotent square (n=12, d=4)", mu, mu, 200

    d4 = dihedral_group(4)
    r = closure(d4, (1,))
    rho = next(c for c in character_group(r) if c.rotation(1) == Fraction(1, 4))
    a = char_idem(r, rho)
    b = haar(full_subgroup(d4))
    yield "D4 character idempotent * haar (n=8, d=2)", a, b, 500


def _time(mu, nu, repeats: int) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            convolve(mu, nu)
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def main() -> None:
    rows = []
    for name, mu, nu, repeats in _workloads():
        saved = kernel.FORCE_PURE
        try:
            kernel.FORCE_PURE = True
            pure = _time(mu, nu, repeats)
            ref = convolve(mu, nu)
            kernel.FORCE_PURE = False
            fast = _time(mu, nu, repeats)
            if convolve(mu, nu) != ref:
                raise SystemExit(f"backends disagree on {name}")
        finally:
            kernel.FORCE_PURE = saved
        rows.append((name, pure, fast))

    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'pure':>10}  {'compiled':>10}  speedup")
    for name, pure, fast in rows:
        print(f"{name:<{width}}  {pure * 1e6:9.1f}u  {fast * 1e6:9.1f}u  {pure / fast:9.1f}x")


if __name__ == "__main__":
    main()
