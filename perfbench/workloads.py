"""The benchmark's three workloads: set-up, units of work, correctness gates.

Each workload hands the timed loop blocks of items.  An item is one call
into the library; the library only ever receives the generated inputs.
The S5 workloads run one untimed block first: the first pass over the 515
items fills per-item lazy state (cached properties, memo tables) and is
about 10% slower than later passes, a cost a full sweep pays once.

The S5 workloads use a fixed composition and a seeded relabelling.  A
composition seed (constant, below) draws a design sample of S5 pairs once;
the run's --seed then picks, for every pair of every block, a random element
g of S5 and sends the pair conjugated by g, in a seeded order.  Conjugation
keeps the verdict and the shape of the work (subgroup orders, characters,
product subgroup) and changes the concrete inputs: other subgroups, other
element indices, other first witnesses.  Per-pair cost is heavy-tailed (on
the full S5 sweep the slowest 1% of pairs take half the time), so a plain
uniform draw per seed makes the throughput depend on how many heavy pairs
the seed happened to draw; the fixed composition removes that, and the
relabelling still varies the inputs.  README.md has the measurements.
"""

from __future__ import annotations

import importlib
import io
import json
import random
from array import array
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import oracle

COMPOSITION_SEED = 7
SWEEP_BLOCK = 4096  # design pairs of s5-sweep, one block per pass
# s5-prop43 design: commuting pairs per stratum of the product subgroup's
# order.  In the full S5 sweep 16% of the commuting pairs have |K1K2| >= 60
# ("dense": n = 120 convolutions with large supports); the rest are sparse.
# An odd total keeps the run's median latency on one design pair: with an
# even total it falls between two pairs of different cost and jumps.
PROP43_QUOTA = {"dense": 2, "sparse": 11}
PROP43_DENSE_ORDER = 60

PAPER_SUITE_FIXTURES = (
    "example-2.4i", "example-2.4ii", "commute-oracle-sweep", "limit-sweep",
    "stromberg-cyclic", "free-product-c2c3", "example-3.3", "example-4.4i",
    "example-4.4ii", "example-4.4iii", "measure-group-sweep", "local-unitaries",
    "skew-exponentials", "structural-invariants",
)


class S5Items:
    """S5, its subgroup lattice and the 515 (subgroup, character) items."""

    def __init__(self, ic):
        self.group = ic.symmetric_group(5)
        subgroups = ic.all_subgroups(self.group)
        self.items = [(k, chi) for k in subgroups for chi in ic.character_group(k)]
        e = self.group.exponent
        self._key = [
            (k.elements, tuple(r.numerator * (e // r.denominator) for r in chi.rot))
            for k, chi in self.items
        ]
        self._index = {key: i for i, key in enumerate(self._key)}
        self._images: dict[tuple[int, int], int] = {}

    def conjugate(self, g: int, i: int) -> int:
        """Index of the item (g K g^-1, chi(g^-1 . g))."""
        hit = self._images.get((g, i))
        if hit is None:
            mul, gi = self.group.mul, self.group.inv[g]
            row = mul[g]
            elements, exps = self._key[i]
            image = {mul[row[x]][gi]: t for x, t in zip(elements, exps)}
            els = tuple(sorted(image))
            hit = self._images[(g, i)] = self._index[(els, tuple(image[x] for x in els))]
        return hit

    def relabelled_block(self, design, rng: random.Random) -> list[tuple[int, int]]:
        block = []
        for i, j in design:
            g = rng.randrange(self.group.order)
            block.append((self.conjugate(g, i), self.conjugate(g, j)))
        rng.shuffle(block)
        return block


class S5Workload:
    """One block is the design, relabelled; the first block is drawn in set-up."""

    weight = 1
    warmup = True

    def __init__(self, ic, seed: int):
        self.ic = ic
        self.s5 = S5Items(ic)
        self.design = self._draw_design()
        self.rng = random.Random(seed)
        self.first = self.s5.relabelled_block(self.design, self.rng)

    def next_block(self):
        block, self.first = self.first, None
        return block if block is not None else self.s5.relabelled_block(self.design, self.rng)

    def pair(self, pair):
        return self.s5.items[pair[0]] + self.s5.items[pair[1]]


class SweepWorkload(S5Workload):
    """classify_pair(verify=False) on relabelled pairs of the S5 sweep."""

    name = "s5-sweep"

    def _draw_design(self) -> list[tuple[int, int]]:
        n = len(self.s5.items)
        rng = random.Random(COMPOSITION_SEED)
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(SWEEP_BLOCK)]

    def run_item(self, pair):
        v = self.ic.classify_pair(*self.pair(pair))
        return v.kind, v.witness, v.product_subgroup, v.product_character

    def failures(self, pair, out) -> int:
        if isinstance(out, BaseException):
            return 1
        return 0 if oracle.check_verdict(self.s5.group, *self.pair(pair), *out) else 1

    @staticmethod
    def verdict(out):
        return out if isinstance(out, BaseException) else out[:2]


class Prop43Workload(S5Workload):
    """verify_prop_43 on relabelled commuting S5 pairs."""

    name = "s5-prop43"

    def _draw_design(self) -> list[tuple[int, int]]:
        """Rejection-sample commuting pairs until every stratum is full."""
        n = len(self.s5.items)
        rng = random.Random(COMPOSITION_SEED)
        left = dict(PROP43_QUOTA)
        design = []
        while any(left.values()):
            pair = (rng.randrange(n), rng.randrange(n))
            v = self.ic.classify_pair(*self.pair(pair))
            if v.kind != "commute":
                continue
            stratum = "dense" if v.product_subgroup.order >= PROP43_DENSE_ORDER else "sparse"
            if left[stratum]:
                left[stratum] -= 1
                design.append(pair)
        return design

    def run_item(self, pair):
        rep = self.ic.verify_prop_43(*self.pair(pair))
        return rep.passed, rep.forward_realized, rep.reverse_realized

    def failures(self, pair, out) -> int:
        return 0 if not isinstance(out, BaseException) and out[0] is True else 1

    @staticmethod
    def verdict(out):
        return out


class PaperSuiteWorkload:
    """`idemconv paper-suite --json`, in-process, stdout captured."""

    name = "paper-suite"
    weight = len(PAPER_SUITE_FIXTURES)
    warmup = False  # users pay the cold run on every CLI invocation

    def __init__(self, ic, seed: int):
        self.cli = importlib.import_module("idemconv.cli")

    def next_block(self):
        return [None]

    def run_item(self, _item):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(["paper-suite", "--json"])
        return code, buf.getvalue()

    def failures(self, _item, out) -> int:
        if isinstance(out, BaseException):
            return self.weight
        code, text = out
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError, TypeError):
            return self.weight
        passed = {r["fixture"] for r in results if r.get("passed") is True}
        names = tuple(r["fixture"] for r in results)
        failed = sum(1 for f in PAPER_SUITE_FIXTURES if f not in passed)
        if code != 0 or names != PAPER_SUITE_FIXTURES:
            failed = max(failed, 1)
        return failed

    @staticmethod
    def verdict(out):
        return out if isinstance(out, BaseException) else out[0]


WORKLOADS = {w.name: w for w in (SweepWorkload, Prop43Workload, PaperSuiteWorkload)}


def run_blocks(workload, blocks, tracer=None):
    """Run the given blocks in a closed loop.

    Returns the (item, output) pairs and the start and end time of every
    item.  A tracer, when given, stamps its spans with the item's position.
    """
    outputs, starts, ends = [], array("d"), array("d")
    for block in blocks:
        for item in block:
            if tracer is not None:
                tracer.item = len(outputs)
            t0 = perf_counter()
            try:
                out = workload.run_item(item)
            except Exception as exc:  # noqa: BLE001 - counted by the correctness gate
                out = exc
            starts.append(t0)
            ends.append(perf_counter())
            outputs.append((item, out))
    return outputs, np.array(starts), np.array(ends)
