"""The full S5 commutation sweep, and the verified oracle sweep of paper-suite.

The first row times classify_pair(verify=False) over every ordered pair of
the 515 (subgroup, character) items of S5, 265,225 pairs, best of three
passes, and reports the verdict counts and a digest of every (kind,
witness) in sweep order, so two runs can be compared without storing the
verdicts; the script raises unless every pass gives the same ones.  A
seeded 500-pair sample is then classified again with verify=True, which
convolves and checks each verdict; the two runs must agree on kind,
witness, product subgroup and product character, or the script raises.

The second row times classify_pair(verify=False) again over only the
15,117 commuting pairs of that sweep, the pairs whose product character is
proven, best of three passes; the script raises unless every verdict is
commute.

The third row times the same sweep through classify_row(verify=False),
one call per K1 against every (K2, characters) block of S5, reading the
verdicts in the same sweep order, best of three passes; the script raises
unless the counts and digest of every pass equal the first row's.

The fourth row times the commute-oracle-sweep fixture's work: every one of
the 8,290 ordered pairs of S3, S4, D4 and Q8, checked against brute-force
convolution with classify_row(verify=True), one call per K1.  It reports
the best of three passes and the verdict counts per group.

The fifth row times the two decision paths on the same 4,000 seeded S5
pairs, best of three passes each: _decide, which classify_pair runs, and a
1x1 block of _decide_block, which classify_row runs, with the stacked
exponents of the one character built per pair.  The script raises unless
the two paths agree on every pair.

Each row is stamped with the machine, Python, numpy and the kernel backend.

Invoke as: python3 benchmarks/bench_commutation.py [--out BENCH.json --label NAME]
With --out, the five rows are appended to the "rows" list of that JSON file.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter

import common
from idemconv import (
    all_subgroups,
    character_group,
    classify_pair,
    classify_row,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from idemconv.commutation import _decide, _decide_block, _exponents

SAMPLE_SEED = 0
SAMPLE_PAIRS = 500
SWEEP_PASSES = 3
COMMUTE_PASSES = 3
ORACLE_PASSES = 3
PATH_PAIRS = 4000
PATH_PASSES = 3


def _key(v):
    k12 = v.product_subgroup
    return (
        v.kind,
        v.witness,
        None if k12 is None else (k12.elements, k12.generators),
        None if v.product_character is None else v.product_character.rot,
    )


def _s5_row(label: str) -> dict:
    t0 = time.perf_counter()
    s5 = symmetric_group(5)
    items = [(k, chi) for k in all_subgroups(s5) for chi in character_group(k)]
    setup_s = time.perf_counter() - t0

    def sweep():
        counts: Counter[str] = Counter()
        digest = hashlib.sha256()
        commuting = []
        for p in items:
            for q in items:
                v = classify_pair(*p, *q)
                counts[v.kind] += 1
                digest.update(f"{v.kind}:{v.witness};".encode())
                if v.kind == "commute":
                    commuting.append(p + q)
        passes.append((dict(sorted(counts.items())), digest.hexdigest(), commuting))

    passes = []
    sweep_s = common.best_time(sweep, repeats=1, rounds=SWEEP_PASSES)
    verdicts, digest, commuting = passes[0]
    if any(p[:2] != (verdicts, digest) for p in passes):
        raise RuntimeError("classify_pair sweep passes disagree")
    pairs = len(items) ** 2

    rng = random.Random(SAMPLE_SEED)
    t0 = time.perf_counter()
    for _ in range(SAMPLE_PAIRS):
        p, q = items[rng.randrange(len(items))], items[rng.randrange(len(items))]
        fast, checked = classify_pair(*p, *q), classify_pair(*p, *q, verify=True)
        if _key(fast) != _key(checked):
            raise RuntimeError(f"verify=True disagrees: {_key(fast)} != {_key(checked)}")
    verify_s = time.perf_counter() - t0

    row = {
        **common.stamp(__file__, label),
        "items": len(items),
        "pairs": pairs,
        "setup_s": round(setup_s, 3),
        "passes": SWEEP_PASSES,
        "sweep_s": round(sweep_s, 3),
        "pairs_per_s": round(pairs / sweep_s),
        "verdicts": verdicts,
        "witness_sha256": digest,
        "verify_sample_pairs": SAMPLE_PAIRS,
        "verify_sample_s": round(verify_s, 3),
    }
    return row, commuting


def _s5_commute_row(label: str, commuting: list) -> dict:
    best = float("inf")
    for _ in range(COMMUTE_PASSES):
        t0 = time.perf_counter()
        kinds = Counter(classify_pair(*pair).kind for pair in commuting)
        best = min(best, time.perf_counter() - t0)
    if kinds != Counter(commute=len(commuting)):
        raise RuntimeError(f"commuting pairs decided again as {dict(kinds)}")
    return {
        **common.stamp(__file__, label),
        "workload": "s5-sweep-commuting-classify_pair",
        "pairs": len(commuting),
        "passes": COMMUTE_PASSES,
        "sweep_s": round(best, 3),
        "pairs_per_s": round(len(commuting) / best),
        "us_per_pair": round(best / len(commuting) * 1e6, 1),
    }


def _s5_rows_row(label: str, reference: dict) -> dict:
    s5 = symmetric_group(5)
    blocks = [(k, character_group(k)) for k in all_subgroups(s5)]

    def sweep():
        counts: Counter[str] = Counter()
        digest = hashlib.sha256()
        for k1, chars1 in blocks:
            row = classify_row(k1, chars1, blocks)
            for i in range(len(chars1)):
                for block in row:
                    for v in block[i]:
                        counts[v.kind] += 1
                        digest.update(f"{v.kind}:{v.witness};".encode())
        passes.append((dict(sorted(counts.items())), digest.hexdigest()))

    passes = []
    sweep_s = common.best_time(sweep, repeats=1, rounds=SWEEP_PASSES)
    expected = (reference["verdicts"], reference["witness_sha256"])
    for verdicts, digest in passes:
        if (verdicts, digest) != expected:
            raise RuntimeError(f"classify_row sweep disagrees: {verdicts}, {digest}")
    pairs = sum(verdicts.values())
    return {
        **common.stamp(__file__, label),
        "workload": "s5-sweep-classify_row",
        "pairs": pairs,
        "passes": SWEEP_PASSES,
        "sweep_s": round(sweep_s, 3),
        "pairs_per_s": round(pairs / sweep_s),
        "verdicts": verdicts,
        "witness_sha256": digest,
    }


def _oracle_row(label: str) -> dict:
    groups = [symmetric_group(3), symmetric_group(4), dihedral_group(4), quaternion_group()]
    blocks = {g.name: [(k, character_group(k)) for k in all_subgroups(g)] for g in groups}
    best, per = float("inf"), {}
    for _ in range(ORACLE_PASSES):
        t0 = time.perf_counter()
        for name, group_blocks in blocks.items():
            counts: Counter[str] = Counter()
            for k1, chars1 in group_blocks:
                for block in classify_row(k1, chars1, group_blocks, verify=True):
                    counts.update(v.kind for row in block for v in row)
            per[name] = dict(sorted(counts.items()))
        best = min(best, time.perf_counter() - t0)
    pairs = sum(sum(c.values()) for c in per.values())
    return {
        **common.stamp(__file__, label),
        "workload": "commute-oracle-sweep",
        "pairs": pairs,
        "subgroup_pairs": sum(len(b) ** 2 for b in blocks.values()),
        "passes": ORACLE_PASSES,
        "sweep_s": round(best, 3),
        "pairs_per_s": round(pairs / best),
        "verdicts": per,
    }


def _paths_row(label: str) -> dict:
    s5 = symmetric_group(5)
    items = [(k, chi) for k in all_subgroups(s5) for chi in character_group(k)]
    rng = random.Random(SAMPLE_SEED)
    pairs = [
        items[rng.randrange(len(items))] + items[rng.randrange(len(items))]
        for _ in range(PATH_PAIRS)
    ]
    out = {}

    def pair_path():
        out["pair"] = [_decide(k1, rho1, k2, rho2, False) for k1, rho1, k2, rho2 in pairs]

    def block_path():
        out["block"] = [
            _decide_block(k1, (rho1,), _exponents((rho1,)), k2, (rho2,), False)[0][0]
            for k1, rho1, k2, rho2 in pairs
        ]

    pair_s = common.best_time(pair_path, repeats=1, rounds=PATH_PASSES)
    block_s = common.best_time(block_path, repeats=1, rounds=PATH_PASSES)
    if [_key(v) for v in out["pair"]] != [_key(v) for v in out["block"]]:
        raise RuntimeError("_decide and the 1x1 _decide_block disagree")
    return {
        **common.stamp(__file__, label),
        "workload": "s5-decision-paths",
        "pairs": PATH_PAIRS,
        "passes": PATH_PASSES,
        "decide_us_per_pair": round(pair_s / PATH_PAIRS * 1e6, 1),
        "block_1x1_us_per_pair": round(block_s / PATH_PAIRS * 1e6, 1),
        "verdicts": dict(sorted(Counter(v.kind for v in out["pair"]).items())),
    }


def main() -> None:
    args = common.parser(__doc__).parse_args()
    s5, commuting = _s5_row(args.label)
    rows = (s5, _s5_commute_row(args.label, commuting), _s5_rows_row(args.label, s5))
    for row in rows + (_oracle_row(args.label), _paths_row(args.label)):
        print(json.dumps(row, indent=2))
        common.append(args.out, row)


if __name__ == "__main__":
    main()
