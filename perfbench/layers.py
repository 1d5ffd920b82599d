"""Per-layer metrics of a traced run, and the kernel cases timed per backend.

Times are self times (a span's duration minus the time its child spans
cover) unless the metric says otherwise; README.md has the table of which
end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from math import lcm
from time import perf_counter

import oracle
from spans import KERNEL_BUCKETS, LAYERS
from workloads import PAPER_SUITE_FIXTURES

GROUP_CONSTRUCTORS = frozenset(
    "groups." + f
    for f in (
        "GroupTable.__init__", "symmetric_group", "cyclic_group", "dihedral_group",
        "quaternion_group", "direct_product", "semidirect_product",
        "from_permutations", "from_table",
    )
)
KERNEL_CASES = ("s5_haar2", "c12_d4", "d4")
# layers whose self time already has a metric of its own
LAYER_SELF_NAMED = {"kernel": "kernel.s", "so3": "so3.quadrature_s"}

_LOWER, _HIGHER = "lower", "higher"
PER_LAYER = (
    [
        ("characters.construct_s", "s", _LOWER),
        ("characters.construct_count", "count", _LOWER),
        ("characters.restrict_s", "s", _LOWER),
        ("characters.restrict_calls", "count", _LOWER),
        ("characters.extension_s", "s", _LOWER),
        ("characters.group_s", "s", _LOWER),
        ("groups.table_s", "s", _LOWER),
        ("groups.lattice_s", "s", _LOWER),
        ("groups.product_s", "s", _LOWER),
        ("groups.closure_calls", "count", _LOWER),
        ("commutation.classify_s", "s", _LOWER),
        ("commutation.commute", "count", _LOWER),
        ("commutation.zero_product", "count", _LOWER),
        ("commutation.non_commuting", "count", _LOWER),
        ("kernel.s", "s", _LOWER),
        ("kernel.calls", "count", _LOWER),
        ("kernel.term_ops", "count", _LOWER),
        ("kernel.mterm_per_s", "Mterm/s", _HIGHER),
    ]
    + [(f"kernel.calls_{b}", "count", _LOWER) for b in KERNEL_BUCKETS]
    + [(f"kernel.s_{b}", "s", _LOWER) for b in KERNEL_BUCKETS]
    + [(f"kernel.pure.{c}_us", "us", _LOWER) for c in KERNEL_CASES]
    + [
        ("measures.convolve_s", "s", _LOWER),
        ("measures.char_idem_s", "s", _LOWER),
        ("measures.translate_s", "s", _LOWER),
        ("measures.eq_s", "s", _LOWER),
        ("measures.float_convolve_calls", "count", _LOWER),
        ("measures.float_convolve_s", "s", _LOWER),
        ("cyclo.scalar_ops", "count", _LOWER),
        ("cyclo.scalar_s", "s", _LOWER),
        ("dynamics.power_limit_s", "s", _LOWER),
        ("dynamics.stromberg_s", "s", _LOWER),
        ("dynamics.float_iterations", "count", _LOWER),
        ("so3.quadrature_s", "s", _LOWER),
        ("measure_groups.prop43_s", "s", _LOWER),
    ]
    + [(f"suite.{f}_s", "s", _LOWER) for f in PAPER_SUITE_FIXTURES]
    + [("cli.overhead_s", "s", _LOWER)]
    + [(f"{layer}.self_s", "s", _LOWER) for layer in LAYERS if layer not in LAYER_SELF_NAMED]
    + [(f"{layer}.share", "frac", _LOWER) for layer in LAYERS]
    + [
        ("cache.character_group", "count", _LOWER),
        ("cache.all_subgroups", "count", _LOWER),
        ("cache.field_tables", "count", _LOWER),
        ("trace.overhead_frac", "frac", _LOWER),
        ("trace.unattributed_frac", "frac", _LOWER),
        ("fail_ratio", "frac", _LOWER),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def cache_sizes(ic) -> dict[str, int]:
    characters = importlib.import_module("idemconv.characters")
    groups = importlib.import_module("idemconv.groups")
    cyclo = importlib.import_module("idemconv.cyclo")
    return {
        "cache.character_group": characters.character_group.cache_info().currsize,
        "cache.all_subgroups": groups._all_subgroups_cached.cache_info().currsize,
        "cache.field_tables": cyclo.field_tables.cache_info().currsize,
    }


def _kernel_inputs(ic):
    """The three cases of benchmarks/bench_convolve.py, as character pairs."""
    s5 = ic.full_subgroup(ic.symmetric_group(5))
    triv = ic.character_group(s5)[0]
    yield "s5_haar2", (s5, triv, s5, triv), 20
    c12 = ic.full_subgroup(ic.cyclic_group(12))
    chi = next(c for c in ic.character_group(c12) if c.rotation(1) == Fraction(1, 12))
    yield "c12_d4", (c12, chi, c12, chi), 200
    d4 = ic.dihedral_group(4)
    rot = ic.closure(d4, (1,))
    rho = next(c for c in ic.character_group(rot) if c.rotation(1) == Fraction(1, 4))
    full = ic.full_subgroup(d4)
    yield "d4", (rot, rho, full, ic.character_group(full)[0]), 500


def _best_of_three(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (perf_counter() - t0) / repeats)
    return best


def kernel_cases(ic) -> dict:
    """Time each case on every available backend.  A case fails unless its
    results are bit-identical across backends and equal to the oracle."""
    kernel = importlib.import_module("idemconv._kernel")
    metrics, detail, failed = {}, {}, []
    for name, (k1, r1, k2, r2), repeats in _kernel_inputs(ic):
        a, b = ic.char_idem(k1, r1), ic.char_idem(k2, r2)
        backends = ["pure"] + (["compiled"] if kernel.HAS_COMPILED else [])
        results = {}
        saved = kernel.FORCE_PURE
        try:
            for backend in backends:
                kernel.FORCE_PURE = backend == "pure"
                us = _best_of_three(lambda: ic.convolve(a, b), repeats) * 1e6
                results[backend] = ic.convolve(a, b)
                detail[f"{backend}.{name}_us"] = us
                if backend == "pure":
                    metrics[f"kernel.pure.{name}_us"] = us
        finally:
            kernel.FORCE_PURE = saved
        ref = results["pure"]
        n = lcm(r1.conductor, r2.conductor)
        expect = oracle.product(k1.parent, k1, r1, k2, r2, n)
        scale = k1.order * k2.order
        if (
            any(results[b].num != ref.num or results[b].den != ref.den for b in backends)
            or ref.conductor != n
            or (expect * ref.den != [[c * scale for c in row] for row in ref.num]).any()
        ):
            failed.append(name)
    if not kernel.HAS_COMPILED:
        detail["compiled"] = "unmeasured: the compiled kernel is not built on this machine"
    detail["failed"] = failed
    return {"metrics": metrics, "detail": detail, "failed": len(failed)}


def per_layer(setup, work, counts, *, wall_traced, overhead_frac, caches, kernel_rows, fail_ratio):
    """Every PER_LAYER metric from the set-up spans, the traced work's spans
    and the counts recorded at the same boundaries.

    wall_traced is the traced pass's raw wall time without the speed probes,
    the base of the layer shares; overhead_frac compares the two passes at
    the reference speed.
    """

    def named(*names):
        return lambda n: n in names

    def under(prefix):
        return lambda n: n.startswith(prefix)

    def both_outermost(pred):
        return setup.outermost_s(pred) + work.outermost_s(pred)

    v = {
        "characters.construct_s": work.self_s(named("characters.Character.__post_init__")),
        "characters.construct_count": work.calls(named("characters.Character.__post_init__")),
        "characters.restrict_s": work.self_s(named("characters.restrict")),
        "characters.restrict_calls": work.calls(named("characters.restrict")),
        "characters.extension_s": work.self_s(named("characters.find_extension")),
        "characters.group_s": both_outermost(named("characters.character_group")),
        "groups.table_s": both_outermost(lambda n: n in GROUP_CONSTRUCTORS),
        "groups.lattice_s": both_outermost(named("groups.all_subgroups")),
        "groups.product_s": work.self_s(named("groups.is_subgroup_product", "groups.product_set")),
        "groups.closure_calls": work.calls(named("groups.closure")),
        "commutation.classify_s": work.self_s(named("commutation.classify_pair")),
        "commutation.commute": counts["commutation.commute"],
        "commutation.zero_product": counts["commutation.zero_product"],
        "commutation.non_commuting": counts["commutation.non_commuting"],
        "kernel.calls": counts["kernel.calls"],
        "kernel.term_ops": counts["kernel.term_ops"],
        "measures.convolve_s": work.self_s(named("measures.convolve")),
        "measures.char_idem_s": work.self_s(named("measures.char_idem")),
        "measures.translate_s": work.self_s(
            named("measures.Measure.translate_left", "measures.Measure.translate_right")
        ),
        "measures.eq_s": work.self_s(named("measures.Measure.__eq__")),
        "measures.float_convolve_calls": work.calls(named("measures.FloatMeasure.convolve")),
        "measures.float_convolve_s": work.self_s(named("measures.FloatMeasure.convolve")),
        "cyclo.scalar_ops": work.calls(under("cyclo.CycloScalar.")),
        "cyclo.scalar_s": work.self_s(under("cyclo.CycloScalar.")),
        "dynamics.power_limit_s": work.self_s(named("dynamics.idempotent_power_limit")),
        "dynamics.stromberg_s": work.self_s(named("dynamics.stromberg_check")),
        "dynamics.float_iterations": counts["dynamics.float_iterations"],
        "measure_groups.prop43_s": work.self_s(named("measure_groups.verify_prop_43")),
        "cli.overhead_s": work.outermost_s(named("cli.main"))
        - work.outermost_s(named("suite.run_suite")),
    }
    for bucket in KERNEL_BUCKETS:
        v[f"kernel.calls_{bucket}"] = counts[f"kernel.calls_{bucket}"]
        v[f"kernel.s_{bucket}"] = work.self_s(named(f"kernel.convolve_exact.{bucket}"))
    v.update(kernel_rows)

    per_fixture = work.outermost_by_item(named("suite.run_fixture"))
    for i, fixture in enumerate(PAPER_SUITE_FIXTURES):
        v[f"suite.{fixture}_s"] = float(per_fixture.get(i, 0.0))

    layer_self = work.layer_self()
    for layer, seconds in layer_self.items():
        v[LAYER_SELF_NAMED.get(layer, f"{layer}.self_s")] = seconds
        v[f"{layer}.share"] = seconds / wall_traced
    kernel_s = v["kernel.s"]
    v["kernel.mterm_per_s"] = v["kernel.term_ops"] / kernel_s / 1e6 if kernel_s else 0.0
    v.update(caches)
    v["trace.overhead_frac"] = overhead_frac
    v["trace.unattributed_frac"] = 1.0 - sum(layer_self.values()) / wall_traced
    v["fail_ratio"] = fail_ratio

    if set(v) != set(UNITS):
        raise AssertionError(f"per-layer metrics out of step: {sorted(set(v) ^ set(UNITS))}")
    return {name: {"value": v[name], "unit": UNITS[name]} for name, _, _ in PER_LAYER}
