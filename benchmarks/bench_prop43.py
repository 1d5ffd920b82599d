"""verify_prop_43 on a seeded sample of commuting S5 pairs, and on all of them.

The first row draws ordered pairs of S5 (subgroup, character) items at
random, keeps the commuting ones until each stratum is full (dense:
|K1K2| >= 60, where every product is an n = 120 convolution with a large
support; sparse: the rest), then times verify_prop_43 on each kept pair.  It
reports the time per stratum, the slowest pair and a SHA-256 over every
report's orders and counts in sample order, so two runs can be compared
without storing the reports.  An untimed pass over the same pairs under
tracemalloc reports the largest per-pair peak of traced memory, each pair
starting from empty caches.  It also times one layer on its own:
g_k_rho over all 515 S5 (subgroup, character) items.

The second row times verify_prop_43 on every commuting ordered pair of S5,
15,117 of the 265,225, in sweep order (K1 items outer, K2 items inner, as
bench_commutation.py sweeps them), and reports the wall time, the slowest
pair, the process's peak RSS and the digest of every report.  The pairs are
picked with classify_row before the clock starts.  It also counts the
distinct (K, rho) items among the 3 x 15,117 G_{K,rho} the pairs need, so
the share of repeats that a cache of g_k_rho can serve is on record, and the
squares omega * omega and forward tables the sweep built beside the
distinct product items (K1K2, rho12): verify_prop_43 builds both once per
product item, the square for its idempotence compare.  It also counts the
distinct (G_{K1,rho1}, G_{K2,rho2}, G_{K1K2,rho}) triples, 1,714, and the
H1, H2 and <H1 H2> the sweep built, which verify_prop_43 builds once per
triple, and the pairs where verify_prop_43's one pass over the product's
terms failed and it called classify_pair to name why.  The script raises
unless the sweep covers 15,117 pairs, builds one square and one forward
table per distinct product item and one span per distinct triple, and
calls classify_pair on none of its pairs.  The objects alive when the clock starts
(the groups, the items and the pair list) are moved out of the garbage
collector's reach with gc.freeze(), so a full collection during the sweep
scans only what the sweep allocates and the slowest pair is a pair, not a
collection pause.

The third and fourth rows time one pair on a large abelian group: the full
C256, then the full C1024, with a character of the largest conductor, and
the trivial item.  The product item is the full group, so G_{K1K2,rho} is
the whole group and the square omega * omega is a dense product at degree
128, then 512.  Each row runs in a fresh interpreter of its own, so the
process's peak RSS describes that row alone and not the heap the other
rows left.  Each reports the wall time, that peak once the group and
characters are built and just before the pair starts (setup_rss_mb), and
after the pair (peak_rss_mb); most of the C1024 peak is setup (the 1,024
characters).

Every timed section, and every pair of the tracemalloc pass, starts from an
empty g_k_rho cache and empty verify_prop_43 item and span caches.  Each row is
stamped with the machine, Python, numpy and the kernel backend.

Invoke as: python3 benchmarks/bench_prop43.py [--out BENCH.json --label NAME]
With --out, the four rows are appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import random
import resource
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import common
import idemconv.measure_groups as mg
from idemconv import (
    all_subgroups,
    character_group,
    classify_pair,
    classify_row,
    cyclic_group,
    full_subgroup,
    g_k_rho,
    symmetric_group,
    trivial_subgroup,
    verify_prop_43,
)

SAMPLE_SEED = 0
DENSE_ORDER = 60
QUOTA = {"dense": 8, "sparse": 40}
COMMUTING_PAIRS = 15117  # the commute count of bench_commutation.py's S5 sweep
ABELIAN_ORDERS = (256, 1024)


def _draw(items):
    """Rejection-sample commuting pairs until every stratum is full."""
    rng = random.Random(SAMPLE_SEED)
    left = dict(QUOTA)
    sample = []
    while any(left.values()):
        p, q = items[rng.randrange(len(items))], items[rng.randrange(len(items))]
        v = classify_pair(*p, *q)
        if v.kind != "commute":
            continue
        stratum = "dense" if v.product_subgroup.order >= DENSE_ORDER else "sparse"
        if left[stratum]:
            left[stratum] -= 1
            sample.append((stratum, p + q))
    return sample


def _clear_caches() -> None:
    g_k_rho.cache_clear()
    mg._item.cache_clear()
    mg._span.cache_clear()


class _Counted:
    """fn, counting its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _peak_rss_mb() -> float:
    """The process's peak RSS so far, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _key(rep) -> str:
    return (
        f"{rep.k12.order},{rep.h1.order},{rep.h2.order},{rep.span.order},"
        f"{rep.gamma_group.order},{rep.proper_inclusion},{rep.forward_pairs},"
        f"{rep.forward_realized},{rep.reverse_realized},{rep.passed};"
    )


def _commuting_pairs(s5):
    """Every commuting ordered pair of S5 items in sweep order, with the
    (K1K2, rho) item of each."""
    blocks = [(k, character_group(k)) for k in all_subgroups(s5)]
    pairs = []
    for k1, chars1 in blocks:
        row = classify_row(k1, chars1, blocks)
        for i, rho1 in enumerate(chars1):
            for (k2, chars2), block in zip(blocks, row):
                for rho2, v in zip(chars2, block[i]):
                    if v.kind == "commute":
                        product = (v.product_subgroup, v.product_character)
                        pairs.append(((k1, rho1, k2, rho2), product))
    return pairs


def _sweep_row(label: str, s5) -> dict:
    t0 = time.perf_counter()
    pairs = _commuting_pairs(s5)
    select_s = time.perf_counter() - t0
    if len(pairs) != COMMUTING_PAIRS:
        raise RuntimeError(f"the sweep found {len(pairs)} commuting pairs, not {COMMUTING_PAIRS}")
    distinct = {item for pair, product in pairs for item in (pair[:2], pair[2:], product)}
    products = {product for _, product in pairs}

    # the idempotence compare is a cached_property: count the squares by
    # wrapping the function it calls once per item
    idempotent = mg._Item.__dict__["idempotent"]
    squares = _Counted(idempotent.func)
    tables = _Counted(mg._forward_table)
    fallbacks = _Counted(mg.classify_pair)
    idempotent.func, mg._forward_table = squares, tables
    mg.classify_pair = fallbacks
    gc.freeze()
    try:
        _clear_caches()
        digest = hashlib.sha256()
        slowest = 0.0
        t0 = time.perf_counter()
        for pair, _ in pairs:
            t1 = time.perf_counter()
            rep = verify_prop_43(*pair)
            slowest = max(slowest, time.perf_counter() - t1)
            digest.update(_key(rep).encode())
        sweep_s = time.perf_counter() - t0
    finally:
        gc.unfreeze()
        idempotent.func, mg._forward_table = squares.fn, tables.fn
        mg.classify_pair = fallbacks.fn
    peak_rss_mb = _peak_rss_mb()
    spans = mg._span.cache_info().misses
    # the triples are counted after the peak is read, from g_k_rho cache hits
    gamma = {item: g_k_rho(*item) for item in distinct}
    triples = {
        (gamma[pair[:2]], gamma[pair[2:]], gamma[product]) for pair, product in pairs
    }
    for name, built in (("squares", squares.calls), ("forward tables", tables.calls)):
        if built != len(products):
            raise RuntimeError(
                f"the sweep built {built} {name} for {len(products)} product items"
            )
    if spans != len(triples):
        raise RuntimeError(f"the sweep built {spans} spans for {len(triples)} triples")
    if fallbacks.calls:
        raise RuntimeError(
            f"the sweep called classify_pair on {fallbacks.calls} of {len(pairs)} pairs"
        )
    return {
        **common.stamp(__file__, label),
        "workload": "s5-prop43-full-sweep",
        "pairs": len(pairs),
        "select_s": round(select_s, 3),
        "sweep_s": round(sweep_s, 3),
        "pairs_per_s": round(len(pairs) / sweep_s, 1),
        "slowest_pair_ms": round(1000 * slowest, 1),
        "g_k_rho_calls": 3 * len(pairs),
        "g_k_rho_distinct_items": len(distinct),
        "squares": squares.calls,
        "forward_tables": tables.calls,
        "product_distinct_items": len(products),
        "spans": spans,
        "gamma_distinct_triples": len(triples),
        "classify_pair_fallbacks": fallbacks.calls,
        "peak_rss_mb": peak_rss_mb,
        "report_sha256": digest.hexdigest(),
    }


def _abelian_row(label: str, order: int) -> dict:
    g = cyclic_group(order)
    full = full_subgroup(g)
    chi = max(character_group(full), key=lambda c: c.conductor)
    t = trivial_subgroup(g)
    rho = character_group(t)[0]
    _clear_caches()
    setup_rss_mb = _peak_rss_mb()
    t0 = time.perf_counter()
    rep = verify_prop_43(full, chi, t, rho)
    pair_s = time.perf_counter() - t0
    return {
        **common.stamp(__file__, label),
        "workload": f"c{order}-prop43-pair",
        "conductor": chi.conductor,
        "pair_s": round(pair_s, 3),
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
        "report": _key(rep),
    }


def _in_fresh_process(fn, *args):
    """fn(*args) in a new process, whose peak RSS is fn's alone.

    The process is forked from a fork server: a child that a process
    spawns directly starts with that process's peak RSS as its own, since
    Linux keeps the peak across fork and exec.
    """
    server = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(1, mp_context=server) as pool:
        return pool.submit(fn, *args).result()


def main() -> None:
    args = common.parser(__doc__).parse_args()

    t0 = time.perf_counter()
    s5 = symmetric_group(5)
    items = [(k, chi) for k in all_subgroups(s5) for chi in character_group(k)]
    sample = _draw(items)
    setup_s = time.perf_counter() - t0

    _clear_caches()
    t0 = time.perf_counter()
    for item in items:
        g_k_rho(*item)
    g_k_rho_s = time.perf_counter() - t0

    _clear_caches()
    digest = hashlib.sha256()
    stratum_s = dict.fromkeys(QUOTA, 0.0)
    slowest = 0.0
    for stratum, pair in sample:
        t0 = time.perf_counter()
        rep = verify_prop_43(*pair)
        dt = time.perf_counter() - t0
        stratum_s[stratum] += dt
        slowest = max(slowest, dt)
        digest.update(_key(rep).encode())
    total_s = sum(stratum_s.values())

    tracemalloc.start()
    peak = 0
    for _, pair in sample:
        _clear_caches()
        tracemalloc.reset_peak()
        verify_prop_43(*pair)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()

    sample_row = {
        **common.stamp(__file__, args.label),
        "pairs": dict(QUOTA),
        "setup_s": round(setup_s, 3),
        "g_k_rho_s": round(g_k_rho_s, 3),
        "dense_s": round(stratum_s["dense"], 3),
        "sparse_s": round(stratum_s["sparse"], 3),
        "total_s": round(total_s, 3),
        "pairs_per_s": round(len(sample) / total_s, 2),
        "slowest_pair_ms": round(1000 * slowest, 1),
        "peak_pair_traced_kb": round(peak / 1024, 1),
        "report_sha256": digest.hexdigest(),
    }
    rows = [sample_row, _sweep_row(args.label, s5)]
    rows += [_in_fresh_process(_abelian_row, args.label, order) for order in ABELIAN_ORDERS]
    for row in rows:
        print(json.dumps(row, indent=2))
        common.append(args.out, row)


if __name__ == "__main__":
    main()
