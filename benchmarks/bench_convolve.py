"""The convolution kernel on Python ints (pure) and on int64, on three workloads.

Runs the same exact convolutions with the kernel's FORCE_PURE switch on
(the scatter on object rows) and off (int64 rows), fails unless the
results agree, and prints a timing table, best of three passes.  The row
is stamped with the machine, Python, numpy and the kernel backend.

Invoke as: python3 benchmarks/bench_convolve.py [--out BENCH.json --label NAME]
With --out, the row is appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import common
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
    args = common.parser(__doc__).parse_args()
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
    print(f"{'workload':<{width}}  {'pure':>10}  {'int64':>10}  speedup")
    for name, pure, fast in rows:
        print(f"{name:<{width}}  {pure * 1e6:9.1f}u  {fast * 1e6:9.1f}u  {pure / fast:9.1f}x")
    row = {
        **common.stamp(__file__, args.label),
        "cases": [
            {"workload": name, "pure_us": round(pure * 1e6, 1), "int64_us": round(fast * 1e6, 1)}
            for name, pure, fast in rows
        ],
    }
    print(json.dumps(row, indent=2))
    common.append(args.out, row)


if __name__ == "__main__":
    main()
