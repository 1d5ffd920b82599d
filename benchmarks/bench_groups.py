"""Group-table construction and the exact associativity check.

Times GroupTable(mul, labels) on an already built table (identity,
inverses, Light's associativity test, element orders) and the
associativity check alone, on S5, S6, C1024, D512 and C2xC2xD128.  Light's
test checks one n x n identity per greedily chosen generator, at most
log2(n) of them for a group, so every accepted table is proven
associative.  The run fails if C1024 with one associativity-breaking 2x2
swap (which keeps the Latin-square shape, the identity and the inverses)
is accepted.
Invoke as: python3 benchmarks/bench_groups.py
"""

from __future__ import annotations

import time

from idemconv import (
    GroupTable,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
)
from idemconv.groups import _check_associativity


def _workloads():
    c2 = cyclic_group(2)
    yield "S5", symmetric_group(5), 20
    yield "S6", symmetric_group(6), 3
    yield "C1024", cyclic_group(1024), 3
    yield "D512", dihedral_group(512), 3
    yield "C2xC2xD128", direct_product(direct_product(c2, c2), dihedral_group(128)), 3


def _broken_c1024() -> list[list[int]]:
    n = 1024
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r in (3, 515):
        mul[r][5], mul[r][517] = mul[r][517], mul[r][5]
    return mul


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def main() -> None:
    try:
        GroupTable(_broken_c1024())
    except ValueError as exc:
        if "not associative" not in str(exc):
            raise SystemExit(f"broken C1024 rejected for the wrong reason: {exc}")
    else:
        raise SystemExit("broken C1024 table was accepted as a group")

    rows = []
    for name, g, repeats in _workloads():
        build = _time(lambda: GroupTable(g.mul, g.labels), repeats)
        check = _time(lambda: _check_associativity(g.mul_np, g.identity), repeats)
        rows.append((name, g.order, build, check))

    width = max(len(r[0]) for r in rows)
    print(f"{'group':<{width}}  {'order':>5}  {'GroupTable':>11}  {'associativity':>13}")
    for name, order, build, check in rows:
        print(f"{name:<{width}}  {order:>5}  {build * 1e3:9.1f}ms  {check * 1e3:11.2f}ms")


if __name__ == "__main__":
    main()
