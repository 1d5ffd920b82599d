"""Group-table construction, the exact associativity check and the subgroup lattice.

Times each constructor call (symmetric_group, cyclic_group, dihedral_group,
direct_product, semidirect_product: the table formula plus GroupTable),
GroupTable(mul, labels) on an already built table handed over as Python
rows (identity, inverses, Light's associativity test, element orders), the
same followed by a first read of the nested-tuple view `.mul`, and the
associativity check alone, on S5, S6, C1024, D512, C2xC2xD128, C2xC512 and
C512:C2 (C2 inverting C512).  Light's test checks one
n x n identity per greedily chosen generator, at most log2(n) of them for
a group, so every accepted table is proven associative.  The run fails if
C1024 with one associativity-breaking 2x2 swap (which keeps the
Latin-square shape, the identity and the inverses) is accepted.

Small tables are timed too: the 156 abelianisation tables K/[K,K] of the
S5 lattice rebuilt with GroupTable (character_group builds these and
smaller quotients), and character_group over every subgroup of S5 with its
cache bypassed.

The subgroup lattice all_subgroups is timed on fresh copies of S4, S5 and
S6; the run fails unless they have 30, 156 and 1,455 subgroups.

Invoke as: python3 benchmarks/bench_groups.py [--out BENCH.json --label NAME]
           [--lattice S4 S5 S6]
With --out, the row is appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import time

import common
from idemconv import (
    GroupTable,
    all_subgroups,
    character_group,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    quotient_group,
    semidirect_product,
    symmetric_group,
)
from idemconv.groups import _check_associativity

LATTICE_COUNTS = {"S4": 30, "S5": 156, "S6": 1455}


def _workloads():
    """(name, constructor call, repeats) per timed group."""
    c2, c512 = cyclic_group(2), cyclic_group(512)
    inversion = [tuple(range(512)), tuple((-x) % 512 for x in range(512))]
    yield "S5", lambda: symmetric_group(5), 20
    yield "S6", lambda: symmetric_group(6), 3
    yield "C1024", lambda: cyclic_group(1024), 3
    yield "D512", lambda: dihedral_group(512), 3
    yield "C2xC2xD128", lambda: direct_product(direct_product(c2, c2), dihedral_group(128)), 3
    yield "C2xC512", lambda: direct_product(c2, c512), 3
    yield "C512:C2", lambda: semidirect_product(c512, c2, inversion), 3


def _broken_c1024() -> list[list[int]]:
    n = 1024
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r in (3, 515):
        mul[r][5], mul[r][517] = mul[r][517], mul[r][5]
    return mul


def _lattice_s(name: str) -> float:
    g = symmetric_group(int(name[1:]))  # a fresh parent, so the lattice cache is cold
    t0 = time.perf_counter()
    count = len(all_subgroups(g))
    elapsed = time.perf_counter() - t0
    if count != LATTICE_COUNTS[name]:
        raise SystemExit(f"{name} has {count} subgroups, expected {LATTICE_COUNTS[name]}")
    return elapsed


def main() -> None:
    ap = common.parser(__doc__)
    ap.add_argument(
        "--lattice", nargs="*", default=list(LATTICE_COUNTS), choices=list(LATTICE_COUNTS),
        help="groups whose subgroup lattice is timed (default: all)",
    )
    args = ap.parse_args()

    try:
        GroupTable(_broken_c1024())
    except ValueError as exc:
        if "not associative" not in str(exc):
            raise SystemExit(f"broken C1024 rejected for the wrong reason: {exc}")
    else:
        raise SystemExit("broken C1024 table was accepted as a group")

    tables = {}
    for name, build, repeats in _workloads():
        g = build()
        tables[name] = {
            "order": g.order,
            "construct_ms": common.best_time(build, repeats) * 1e3,
            "build_ms": common.best_time(lambda: GroupTable(g.mul, g.labels), repeats) * 1e3,
            "build_mul_ms": common.best_time(
                lambda: GroupTable(g.mul, g.labels).mul, repeats
            ) * 1e3,
            "assoc_ms": common.best_time(
                lambda: _check_associativity(g.mul_np, g.identity), repeats
            ) * 1e3,
        }

    s5 = symmetric_group(5)
    subs = all_subgroups(s5)
    abel = [quotient_group(k, commutator_subgroup(k)).group for k in subs]
    small = {
        "abelianisation_tables": len(abel),
        "abelianisation_build_ms": common.best_time(
            lambda: [GroupTable(q.mul, q.labels) for q in abel], 1, 30
        ) * 1e3,
        "character_group_ms": common.best_time(
            lambda: [character_group.__wrapped__(k) for k in subs], 1, 30
        ) * 1e3,
    }
    lattice = {name: _lattice_s(name) for name in args.lattice}

    width = max(len(name) for name in tables)
    print(
        f"{'group':<{width}}  {'order':>5}  {'constructor':>11}  {'GroupTable':>11}  "
        f"{'+ .mul':>9}  {'associativity':>13}"
    )
    for name, t in tables.items():
        print(
            f"{name:<{width}}  {t['order']:>5}  {t['construct_ms']:9.1f}ms  {t['build_ms']:9.1f}ms  "
            f"{t['build_mul_ms']:7.1f}ms  {t['assoc_ms']:11.2f}ms"
        )
    print(
        f"S5 abelianisation tables ({small['abelianisation_tables']}): "
        f"{small['abelianisation_build_ms']:.2f}ms; "
        f"character_group over the S5 lattice: {small['character_group_ms']:.1f}ms"
    )
    for name, s in lattice.items():
        print(f"all_subgroups({name}): {LATTICE_COUNTS[name]} subgroups in {s:.3f}s")

    if args.out is not None:
        row = {
            **common.stamp(__file__, args.label),
            "tables": {
                name: {k: round(v, 3) if isinstance(v, float) else v for k, v in t.items()}
                for name, t in tables.items()
            },
            "small_tables": {k: round(v, 3) for k, v in small.items()},
            "lattice_s": {name: round(s, 3) for name, s in lattice.items()},
        }
        common.append(args.out, row)


if __name__ == "__main__":
    main()
