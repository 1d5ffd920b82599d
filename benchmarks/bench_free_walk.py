"""Free-product powers at the default word budget: free_product_decay timed.

Each row times free_product_decay(m, n) for one (m, n) of C_m * C_n at the
default word budget (DEFAULT_WORD_BUDGET words) and the default eight
powers, best of --rounds runs.  It reports the support of every power, the
power where the walk stops (the last one computed, short of eight when the
next product would pass the budget), whether the budget stopped it, and a
sha256 digest of the whole report, so two runs can be compared without
storing the maxima.

Each row is stamped with the machine, Python, numpy and the kernel backend.

Invoke as: python3 benchmarks/bench_free_walk.py [--rounds K] [--out BENCH.json --label NAME]
With --out, the rows are appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import hashlib
import json

import common
from idemconv import free_product_decay
from idemconv.dynamics import DEFAULT_WORD_BUDGET

CASES = ((2, 5), (3, 4), (2, 7))


def _digest(rep) -> str:
    fields = (
        rep.orders,
        rep.max_by_power,
        rep.support_by_power,
        tuple(str(x) for x in rep.exact_max_by_power),
        rep.strictly_decreasing,
        rep.below_eps_at,
        rep.budget_exceeded,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _row(label: str, m: int, n: int, rounds: int) -> dict:
    reports = []
    best = common.best_time(
        lambda: reports.append(free_product_decay(m, n, budget=DEFAULT_WORD_BUDGET)),
        repeats=1,
        rounds=rounds,
    )
    digests = {_digest(rep) for rep in reports}
    if len(digests) != 1:
        raise RuntimeError(f"C{m} * C{n}: runs disagree")
    rep = reports[0]
    return {
        **common.stamp(__file__, label),
        "workload": f"free-walk C{m} * C{n}",
        "budget": DEFAULT_WORD_BUDGET,
        "rounds": rounds,
        "wall_s": round(best, 3),
        "support_by_power": list(rep.support_by_power),
        "stops_at_power": len(rep.support_by_power),
        "budget_exceeded": rep.budget_exceeded,
        "report_sha256": digests.pop(),
    }


def main() -> None:
    ap = common.parser(__doc__)
    ap.add_argument("--rounds", type=int, default=3, help="runs per case; the best is kept")
    args = ap.parse_args()
    for m, n in CASES:
        row = _row(args.label, m, n, args.rounds)
        print(json.dumps(row, indent=2))
        common.append(args.out, row)


if __name__ == "__main__":
    main()
