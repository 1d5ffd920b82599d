"""SO(3) quadrature: the product grid, the Example 3.3 report and its fixture.

Times so3._product_grid at GRID points per axis on the two angle sets the
quadrature uses (three uniform angles for m_T1 * m_T2 * m_T1; uniform outer
and Gauss-Legendre middle angles for Haar), example_33_report(GRID), and
the paper-suite fixture example-3.3, each the best of three rounds.  Every
grid must equal the two-einsum formula kept here as the reference, value
and sign bit; the script raises otherwise.  Untimed passes under
tracemalloc report the peak traced memory of example_33_report at GRID and
at PEAK_GRID points, and a SHA-256 over the reports at grids 8, 24, 48, 64
and 65 lets two rows be compared without storing them.  The row is stamped with the machine,
Python, numpy and the kernel backend.

Invoke as: python3 benchmarks/bench_so3.py [--out BENCH.json --label NAME]
With --out, the row is appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np

import common
from idemconv.so3 import _product_grid, euler_k1, euler_k2, example_33_report
from idemconv.suite import run_fixture

GRID = 64
PEAK_GRID = 128
REPORT_GRIDS = (8, 24, 48, 64, 65)


def _einsum_grid(angles1, angles2, angles3):
    """k1(t1) k2(t2) k1(t3) over every angle triple, as two einsums."""
    ab = np.einsum("iuv,jvw->ijuw", euler_k1(angles1), euler_k2(angles2))
    return np.einsum("ijuv,kvw->ijkuw", ab, euler_k1(angles3))


def _angle_sets(grid: int) -> dict:
    t = 2 * np.pi * np.arange(grid) / grid
    nodes, _ = np.polynomial.legendre.leggauss(grid)
    return {"product": (t, t, t), "haar": (t, (nodes + 1.0) * (np.pi / 2), t)}


def _check_bits(name: str, angles) -> None:
    got, want = _product_grid(*angles), _einsum_grid(*angles)
    if not (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    ):
        raise SystemExit(f"{name} grid differs from the two-einsum reference")


def _report_digest() -> str:
    h = hashlib.sha256()
    for grid in REPORT_GRIDS:
        h.update(repr(example_33_report(grid)).encode())
    return h.hexdigest()


def _peak_traced_mb(grid: int) -> float:
    tracemalloc.start()
    try:
        example_33_report(grid)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    args = common.parser(__doc__).parse_args()
    grids = {}
    for name, angles in _angle_sets(GRID).items():
        _check_bits(name, angles)
        grids[name] = round(common.best_time(lambda: _product_grid(*angles), 5) * 1e3, 1)
    fixture = run_fixture("example-3.3")
    if not fixture.passed:
        raise SystemExit(f"example-3.3 failed: {fixture.details}")
    row = {
        **common.stamp(__file__, args.label),
        "grid": GRID,
        "timing": "best of 3 rounds of 5 (grids) or 3 (report, fixture) calls",
        "bits_checked": True,
        "product_grid_ms": grids["product"],
        "haar_grid_ms": grids["haar"],
        "report_ms": round(common.best_time(lambda: example_33_report(GRID), 3) * 1e3, 1),
        "fixture_ms": round(common.best_time(lambda: run_fixture("example-3.3"), 3) * 1e3, 1),
        "report_peak_traced_mb": round(_peak_traced_mb(GRID), 2),
        "report_peak_traced_mb_128": round(_peak_traced_mb(PEAK_GRID), 2),
        "report_sha256": _report_digest(),
    }
    print(json.dumps(row, indent=2))
    common.append(args.out, row)


if __name__ == "__main__":
    main()
