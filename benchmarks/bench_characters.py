"""Vectorised vs scalar character validation on S5 subgroups.

Times Character(k, chi.rot), which validates in one numpy pass over integer
exponents, against the element-by-element Fraction loop it replaced, on S5
subgroups of order 1, 6, 24 and 120.  Both must accept every valid
character and reject one corrupted rotation with the same message.
Invoke as: python3 benchmarks/bench_characters.py
"""

from __future__ import annotations

import time
from fractions import Fraction

from idemconv import (
    Character,
    all_subgroups,
    character_group,
    symmetric_group,
    trivial_subgroup,
)


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


def _workloads():
    s5 = symmetric_group(5)
    subgroups = all_subgroups(s5)
    yield "trivial (order 1)", trivial_subgroup(s5), 2000
    for order, repeats in ((6, 1000), (24, 200), (120, 10)):
        k = next(k for k in subgroups if k.order == order and len(character_group(k)) > 1)
        yield f"order {order}", k, repeats


def _time(check, k, rot, repeats: int) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            check(k, rot)
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def _message(check, k, rot):
    try:
        check(k, rot)
    except ValueError as exc:
        return str(exc)
    return None


def main() -> None:
    rows = []
    for name, k, repeats in _workloads():
        chi = character_group(k)[-1]
        bad = chi.rot[:-1] + (Fraction(1, 7),)
        for rot in (chi.rot, bad):
            want = _message(scalar_validate, k, rot)
            got = _message(Character, k, rot)
            if got != want:
                raise SystemExit(f"validators disagree on {name}: {got!r} != {want!r}")
        scalar = _time(scalar_validate, k, chi.rot, repeats)
        vector = _time(Character, k, chi.rot, repeats)
        rows.append((name, scalar, vector))

    width = max(len(r[0]) for r in rows)
    print(f"{'subgroup of S5':<{width}}  {'scalar':>10}  {'numpy':>10}  speedup")
    for name, scalar, vector in rows:
        print(f"{name:<{width}}  {scalar * 1e6:9.1f}u  {vector * 1e6:9.1f}u  {scalar / vector:9.1f}x")


if __name__ == "__main__":
    main()
