"""Character construction and validation on S5 subgroups, and the paths that use it.

Times both entry points, Character(k, exps) on integer exponents and
Character.from_rotations(k, rot) on Fractions, each validating in one
numpy pass, against the element-by-element Fraction loop they replaced, on
S5 subgroups of order 1, 6, 24 and 120.  Both must accept every valid
character and reject one corrupted value with the reference's message, or
the run fails.  Then times character_group over the whole S5 lattice with
its cache cleared, and the in-process wall time of the limit-sweep and
commute-oracle-sweep fixtures (best of three, so caches are warm), which
must pass.

At the CLI's 1024 bound it times, once each, character_group of the whole
of a freshly built C1024 and C32xC32 (a fresh group misses the cache), and
the wall time of `idemconv group --json` on each, interpreter start
included, in a child process.

Invoke as: python3 benchmarks/bench_characters.py [--out BENCH.json --label NAME]
With --out, the row is appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import common
import idemconv
from idemconv import (
    Character,
    all_subgroups,
    character_group,
    cyclic_group,
    direct_product,
    full_subgroup,
    run_fixture,
    symmetric_group,
    trivial_subgroup,
)

FIXTURES = ("limit-sweep", "commute-oracle-sweep")
AT_BOUND = {
    "C1024": lambda: cyclic_group(1024),
    "C32xC32": lambda: direct_product(cyclic_group(32), cyclic_group(32)),
}


def scalar_validate(domain, rot) -> None:
    """The element-by-element Fraction check (the reference)."""
    elems = domain.elements
    if len(rot) != len(elems):
        raise ValueError("need one rotation per subgroup element")
    if any(r < 0 or r >= 1 for r in rot):
        raise ValueError("rotations must lie in [0, 1)")
    parent = domain.parent
    pos = {g: i for i, g in enumerate(elems)}
    if rot[pos[parent.identity]] != 0:
        raise ValueError("character must send the identity to 1")
    mul = parent.mul
    for i, g in enumerate(elems):
        if (rot[i] * parent.element_order(g)) % 1 != 0:
            raise ValueError(
                f"value at {parent.labels[g]} is not an order-dividing root of unity"
            )
        for j, h in enumerate(elems):
            if rot[pos[mul[g][h]]] != (rot[i] + rot[j]) % 1:
                raise ValueError(
                    f"not multiplicative at ({parent.labels[g]},{parent.labels[h]})"
                )


def _workloads(subgroups):
    s5 = subgroups[0].parent
    yield "trivial (order 1)", trivial_subgroup(s5), 2000
    for order, repeats in ((6, 1000), (24, 200), (120, 10)):
        k = next(k for k in subgroups if k.order == order and len(character_group(k)) > 1)
        yield f"order {order}", k, repeats


def _message(check, k, values):
    try:
        check(k, values)
    except ValueError as exc:
        return str(exc)
    return None


def _parity(name, check, k, cases) -> None:
    """check must agree with the reference on every (values, rotations) case."""
    for values, rot in cases:
        want = _message(scalar_validate, k, rot)
        got = _message(check, k, values)
        if got != want:
            raise SystemExit(f"validators disagree on {name}: {got!r} != {want!r}")


def _character_group_s(subgroups) -> float:
    best = float("inf")
    for _ in range(5):
        character_group.cache_clear()
        t0 = time.perf_counter()
        for k in subgroups:
            character_group(k)
        best = min(best, time.perf_counter() - t0)
    return best


def _at_bound_s(build) -> float:
    k = full_subgroup(build())
    t0 = time.perf_counter()
    chars = character_group(k)
    elapsed = time.perf_counter() - t0
    if len(chars) != k.order:
        raise SystemExit(f"{k.parent.name} has {len(chars)} characters, not {k.order}")
    return elapsed


def _group_cli_s(name: str) -> float:
    """Wall time of `idemconv group --json` on the named group, in a child."""
    src = str(Path(idemconv.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps({"schema_version": 1, "group": name}))
        argv = [sys.executable, "-m", "idemconv.cli", "group", "--scenario", str(path), "--json"]
        t0 = time.perf_counter()
        done = subprocess.run(
            argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
        )
        elapsed = time.perf_counter() - t0
    if done.returncode != 0 or json.loads(done.stdout)["character_count"] != 1024:
        raise SystemExit(f"idemconv group on {name} failed: {done.stderr}")
    return elapsed


def _fixture_s(name: str) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        result = run_fixture(name)
        best = min(best, time.perf_counter() - t0)
        if not result.passed:
            raise SystemExit(f"fixture {name} failed: {result.details}")
    return best


def main() -> None:
    args = common.parser(__doc__).parse_args()

    subgroups = all_subgroups(symmetric_group(5))
    rows = {}
    for name, k, repeats in _workloads(subgroups):
        chi = character_group(k)[-1]
        rot = chi.rot
        rotated = rot[:-1] + (Fraction(1, 7),)
        _parity(name, Character.from_rotations, k, [(r, r) for r in (rot, rotated)])
        e = k.parent.exponent
        exps = chi.exps
        moved = exps[:-1] + ((exps[-1] + 1) % e,)
        cases = [(t, tuple(Fraction(x, e) for x in t)) for t in (exps, moved)]
        _parity(name, Character, k, cases)
        rows[name] = {
            "order": k.order,
            "scalar_us": common.best_time(lambda: scalar_validate(k, rot), repeats) * 1e6,
            "from_rotations_us": common.best_time(
                lambda: Character.from_rotations(k, rot), repeats
            ) * 1e6,
            "exps_us": common.best_time(lambda: Character(k, exps), repeats) * 1e6,
        }
    lattice_s = _character_group_s(subgroups)
    fixtures = {name: _fixture_s(name) for name in FIXTURES}
    at_bound = {name: _at_bound_s(build) for name, build in AT_BOUND.items()}
    group_cli = {name: _group_cli_s(name) for name in AT_BOUND}

    width = max(len(name) for name in rows)
    print(f"{'subgroup of S5':<{width}}  {'scalar':>10}  {'rotations':>10}  {'exps':>10}")
    for name, r in rows.items():
        print(
            f"{name:<{width}}  {r['scalar_us']:9.1f}u  {r['from_rotations_us']:9.1f}u"
            f"  {r['exps_us']:9.1f}u"
        )
    print(
        f"character_group over the {len(subgroups)} S5 subgroups, cache cleared: "
        f"{lattice_s * 1e3:.1f}ms"
    )
    for name, s in fixtures.items():
        print(f"fixture {name}: {s:.3f}s")
    for name in AT_BOUND:
        print(
            f"{name}: character_group {at_bound[name]:.3f}s, "
            f"idemconv group {group_cli[name]:.2f}s"
        )

    if args.out is not None:
        row = {
            **common.stamp(__file__, args.label),
            "construct_us": {
                name: {k: v if not isinstance(v, float) else round(v, 1) for k, v in r.items()}
                for name, r in rows.items()
            },
            "character_group_s5_lattice_ms": round(lattice_s * 1e3, 2),
            "fixture_s": {name: round(s, 3) for name, s in fixtures.items()},
            "character_group_at_bound_s": {n: round(s, 3) for n, s in at_bound.items()},
            "group_cli_s": {n: round(s, 2) for n, s in group_cli.items()},
        }
        common.append(args.out, row)


if __name__ == "__main__":
    main()
