"""Span tracing of the idemconv layers, done from outside the library.

The tracer wraps the public functions of each idemconv module, plus the
methods listed in METHODS, and patches every reference to them: each module
of the package that imported a function by name gets the wrapper too.  A
span records (name, start, end, parent span, item id).  Spans live in
flat arrays in memory and are written out once, at the end of the run.
Nothing under src/ changes; uninstall() puts every original back.

Counts are recorded at the same boundaries (kernel term operations, verdict
kinds, float iterations).  The kernel's count needs a scan of its inputs;
that scan is recorded as a span of the "trace" layer so that it is not
charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# layer name -> module; layer names are the module names without the
# leading underscore so that metric names start with a letter
LAYERS = {
    "groups": "idemconv.groups",
    "characters": "idemconv.characters",
    "cyclo": "idemconv.cyclo",
    "measures": "idemconv.measures",
    "kernel": "idemconv._kernel",
    "commutation": "idemconv.commutation",
    "dynamics": "idemconv.dynamics",
    "measure_groups": "idemconv.measure_groups",
    "so3": "idemconv.so3",
    "suite": "idemconv.suite",
    "cli": "idemconv.cli",
}

# Methods traced besides the module-level functions: the ones that carry a
# layer's work.  Small accessors (Character.rotation, GroupTable.power, ...)
# run in the inner loops of their callers and stay untraced; their time is
# the caller's self time.
METHODS = {
    "groups": {"GroupTable": ("__init__",)},
    "characters": {"Character": ("__post_init__", "conjugate", "__mul__")},
    "measures": {
        "Measure": (
            "from_coeffs", "scale", "translate_left", "translate_right",
            "adjoint", "__add__", "__eq__",
        ),
        "FloatMeasure": ("convolve",),
    },
    "cyclo": {
        "CycloScalar": (
            "root_of_unity", "promote", "__add__", "__sub__", "__rsub__",
            "__neg__", "__mul__", "conjugate", "is_unit_modulus", "__eq__",
        ),
    },
}

# kernel spans are split by group order so that small-n dispatch shows
KERNEL_BUCKETS = ("n_le8", "n9to32", "n_ge33")


def kernel_bucket(n: int) -> str:
    return "n_le8" if n <= 8 else "n9to32" if n <= 32 else "n_ge33"


def _nonzero_rows(rows) -> int:
    return sum(1 for row in rows if any(row))


class Tracer:
    """Install with install(spans=...), run the work, then uninstall().

    With spans=False only the counting hooks are installed (kernel term
    operations and verdict kinds), which is cheap enough for the untraced
    pass that the traced pass is compared with.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.item = -1
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()
        self._bookkeeping = self._intern("trace.count")

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_of.append(self.item)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _span_wrapper(self, fn, nid: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())

        return traced

    def add_intervals(self, name: str, starts, ends) -> None:
        """Record, after the fact, spans for intervals that ran synchronously
        inside the traced code (a signal handler's work), each under the
        innermost span that contains it.

        Spans open in start order, and such an interval cannot straddle a
        span's start or end, so one sweep over both finds every parent.
        """
        nid = self._intern(name)
        span_start, span_end = np.array(self.start), np.array(self.end)
        stack: list[int] = []
        j, n = 0, len(span_start)
        for p0, p1 in zip(starts, ends):
            while j < n and span_start[j] <= p0:
                while stack and span_end[stack[-1]] <= span_start[j]:
                    stack.pop()
                stack.append(j)
                j += 1
            while stack and span_end[stack[-1]] <= p0:
                stack.pop()
            parent = stack[-1] if stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.item_of.append(self.item_of[parent] if parent >= 0 else -1)
            self.start.append(p0)
            self.end.append(p1)

    # -- special boundaries ------------------------------------------------

    def _kernel_wrapper(self, fn, spans: bool):
        tracer = self
        counts = self.counts
        nids = {b: self._intern(f"kernel.convolve_exact.{b}") for b in KERNEL_BUCKETS}

        @functools.wraps(fn)
        def traced(mul_rows, mul_np, a_rows, b_rows, red_rows, red_max):
            if spans:
                idx = tracer._open(tracer._bookkeeping)
                t0 = perf_counter()
            d = len(red_rows[0])
            ops = _nonzero_rows(a_rows) * _nonzero_rows(b_rows) * d * d
            bucket = kernel_bucket(len(mul_rows))
            counts["kernel.calls"] += 1
            counts["kernel.term_ops"] += ops
            counts[f"kernel.calls_{bucket}"] += 1
            if not spans:
                return fn(mul_rows, mul_np, a_rows, b_rows, red_rows, red_max)
            tracer._close(idx, t0, perf_counter())
            idx = tracer._open(nids[bucket])
            t0 = perf_counter()
            try:
                return fn(mul_rows, mul_np, a_rows, b_rows, red_rows, red_max)
            finally:
                tracer._close(idx, t0, perf_counter())

        return traced

    def _counting_wrapper(self, fn, on_return):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(result)
            return result

        return counted

    def _count_verdict(self, verdict) -> None:
        self.counts[f"commutation.{verdict.kind}"] += 1

    def _count_iterations(self, report) -> None:
        self.counts["dynamics.float_iterations"] += report.iterations

    def _fixture_wrapper(self, fn, fixture_index: dict[str, int]):
        tracer = self

        @functools.wraps(fn)
        def traced(name, cfg=None):
            saved = tracer.item
            tracer.item = fixture_index.get(name, -1)
            try:
                return fn(name, cfg)
            finally:
                tracer.item = saved

        return traced

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every module-level reference to original at replacement."""
        self._wrappers.add(id(replacement))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "idemconv" or modname.startswith("idemconv.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_in_class(self, cls, original, replacement) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, replacement)

    def install(self, *, spans: bool, fixture_index: dict[str, int] | None = None) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(name) for layer, name in LAYERS.items()}
        kernel_fn = modules["kernel"].convolve_exact
        self._replace_everywhere(kernel_fn, self._kernel_wrapper(kernel_fn, spans))

        counted = {
            ("commutation", "classify_pair"): self._count_verdict,
            ("dynamics", "idempotent_power_limit"): self._count_iterations,
            ("dynamics", "stromberg_check"): self._count_iterations,
        }
        if not spans:
            fn = modules["commutation"].classify_pair
            self._replace_everywhere(fn, self._counting_wrapper(fn, self._count_verdict))
            return

        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or id(fn) in self._wrappers:
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                inner = fn
                if (layer, attr) in counted:
                    inner = self._counting_wrapper(fn, counted[(layer, attr)])
                wrapped = self._span_wrapper(inner, self._intern(f"{layer}.{attr}"))
                if (layer, attr) == ("suite", "run_fixture") and fixture_index:
                    # outside the span, so the fixture's own span carries its id
                    wrapped = self._fixture_wrapper(wrapped, fixture_index)
                self._replace_everywhere(fn, wrapped)

            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = vars(cls)[meth]
                    nid = self._intern(f"{layer}.{cls_name}.{meth}")
                    if isinstance(raw, classmethod):
                        new = classmethod(self._span_wrapper(raw.__func__, nid))
                    else:
                        new = self._span_wrapper(raw, nid)
                    self._replace_in_class(cls, raw, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item_of, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Self and inclusive times aggregated from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.item = a["item"]
        self.duration = a["end"] - a["start"]
        covered = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered
        k = len(self.names)
        self.self_by_name = np.bincount(self.name_id, weights=self.self_time, minlength=k)
        self.calls_by_name = np.bincount(self.name_id, minlength=k)

    def _ids(self, predicate) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int64)

    def self_s(self, predicate) -> float:
        return float(self.self_by_name[self._ids(predicate)].sum())

    def calls(self, predicate) -> int:
        return int(self.calls_by_name[self._ids(predicate)].sum())

    def outermost_by_item(self, predicate) -> Counter:
        """Inclusive time, per item id, of the spans matching predicate whose
        ancestors do not match it too, so nested calls are counted once."""
        ids = set(self._ids(predicate).tolist())
        per_item: Counter = Counter()
        parent, name_id = self.parent, self.name_id
        for idx in np.flatnonzero(np.isin(name_id, list(ids))):
            p = parent[idx]
            while p >= 0 and name_id[p] not in ids:
                p = parent[p]
            if p < 0:
                per_item[int(self.item[idx])] += float(self.duration[idx])
        return per_item

    def outermost_s(self, predicate) -> float:
        return sum(self.outermost_by_item(predicate).values())

    def layer_self(self) -> dict[str, float]:
        return {
            layer: self.self_s(lambda n, p=layer + ".": n.startswith(p)) for layer in LAYERS
        }
