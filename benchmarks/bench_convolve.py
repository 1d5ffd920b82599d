"""The convolution kernel on Python ints (pure) and on int64, on four workloads.

Runs the same exact convolutions with the kernel's FORCE_PURE switch on
(the scatter on object rows) and off (int64 rows), fails unless the
results agree, and prints a timing table.  Each case is sized to about
PASS_S seconds of calls per pass and timed as the median of PASSES passes
per backend, the two backends alternating which runs first.  The fourth
workload is run twice: as one call per translate, and as one call and a
row gather of its right translates, the way verify_prop_43 reads products
off translates of one idempotent.  The row is stamped with the machine,
Python, numpy and the kernel backend.

Invoke as: python3 benchmarks/bench_convolve.py [--out BENCH.json --label NAME]
With --out, the row is appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

import numpy as np

import common
import idemconv._kernel as kernel
from idemconv import (
    Measure,
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
from idemconv.measure_groups import _right_translates


PASS_S = 0.1
PASSES = 9


def _same(out):
    return out


def _translates_case():
    """m_A5 against each of its 120 translates in S5, as single calls and
    as one product gathered into its right translates, which must give the
    same products: A5 is normal in S5, so m_A5 * delta_g * m_A5 is
    (m_A5 * m_A5) * delta_g for every g."""
    s5 = symmetric_group(5)
    a5 = haar(closure(s5, [s5.idx("(123)"), s5.idx("(12345)")]))
    gs = range(s5.order)

    def single():
        return [convolve(a5, a5.translate_left(g)) for g in gs]

    def gathered():
        prod = convolve(a5, a5)
        return prod, _right_translates(prod, np.arange(s5.order))

    def as_measures(out):
        prod, rows = out
        return [Measure._build(s5, prod.conductor, r, prod.den) for r in rows]

    if as_measures(gathered()) != single():
        raise SystemExit("gathered translates disagree with single calls")
    name = "S5 m_A5 * its 120 translates (n=120, d=1)"
    yield f"{name}: 120 single calls", single, _same
    yield f"{name}: one call and a row gather", gathered, as_measures


def _workloads():
    """(name, call, normalize): call() runs the case, normalize(result) gives
    Measures to compare between the backends."""
    def pair(mu, nu):
        return lambda: convolve(mu, nu)

    s5 = symmetric_group(5)
    big = haar(full_subgroup(s5))
    yield "S5 haar * haar (n=120, d=1)", pair(big, big), _same

    c12 = cyclic_group(12)
    chi = next(
        c
        for c in character_group(full_subgroup(c12))
        if c.rotation(1) == Fraction(1, 12)
    )
    mu = char_idem(full_subgroup(c12), chi)
    yield "C12 character idempotent square (n=12, d=4)", pair(mu, mu), _same

    d4 = dihedral_group(4)
    r = closure(d4, (1,))
    rho = next(c for c in character_group(r) if c.rotation(1) == Fraction(1, 4))
    a = char_idem(r, rho)
    b = haar(full_subgroup(d4))
    yield "D4 character idempotent * haar (n=8, d=2)", pair(a, b), _same

    yield from _translates_case()


def _pass(call, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - t0) / calls


def _time_both(call) -> tuple[float, float, int]:
    """(pure, int64) seconds per call, each the median of PASSES passes of
    about PASS_S seconds, alternating which backend goes first; and the
    calls per pass."""
    kernel.FORCE_PURE = True
    call()
    calls = max(1, round(PASS_S / _pass(call, 1)))
    times = {True: [], False: []}
    for i in range(PASSES):
        for pure in ((True, False) if i % 2 == 0 else (False, True)):
            kernel.FORCE_PURE = pure
            times[pure].append(_pass(call, calls))
    return statistics.median(times[True]), statistics.median(times[False]), calls


def main() -> None:
    args = common.parser(__doc__).parse_args()
    rows = []
    for name, call, normalize in _workloads():
        saved = kernel.FORCE_PURE
        try:
            kernel.FORCE_PURE = True
            ref = normalize(call())
            kernel.FORCE_PURE = False
            if normalize(call()) != ref:
                raise SystemExit(f"backends disagree on {name}")
            pure, fast, calls = _time_both(call)
        finally:
            kernel.FORCE_PURE = saved
        rows.append((name, pure, fast, calls))

    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'pure':>10}  {'int64':>10}  speedup")
    for name, pure, fast, _ in rows:
        print(f"{name:<{width}}  {pure * 1e6:9.1f}u  {fast * 1e6:9.1f}u  {pure / fast:9.1f}x")
    row = {
        **common.stamp(__file__, args.label),
        "timing": f"median of {PASSES} alternating passes of about {PASS_S} s per backend",
        "cases": [
            {
                "workload": name,
                "pure_us": round(pure * 1e6, 1),
                "int64_us": round(fast * 1e6, 1),
                "calls_per_pass": calls,
            }
            for name, pure, fast, calls in rows
        ],
    }
    print(json.dumps(row, indent=2))
    common.append(args.out, row)


if __name__ == "__main__":
    main()
