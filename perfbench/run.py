"""idemconv benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload s5-sweep --seed 0 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: a closed loop,
single-threaded, that runs blocks of items until --seconds have been spent
in them.  --trace 1 measures a fixed amount of work twice, first with only
the counting hooks and then with every layer traced, and reports per-layer
metrics.  Every output is checked for correctness outside the timed region.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it stamps the environment.
Full results (and the spans of a traced run) go to perfbench/out/.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# single-threaded numerics; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import compileall
import gc
import importlib
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


def _import_idemconv():
    sys.path.insert(0, str(SRC))
    ic = importlib.import_module("idemconv")
    if Path(ic.__file__).resolve().parent != SRC / "idemconv":
        raise ImportError(f"idemconv imported from {ic.__file__}, not from {SRC}")
    return ic


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("s5-sweep", "s5-prop43", "paper-suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe_setup(args) -> tuple[float, float]:
    """(scaled, raw) seconds from the start of a fresh process to its inputs
    being ready; the child samples its own speed and reports it."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe",
    ]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    word, probe_s, factor = (line.split() + ["", "", ""])[:3]
    if code != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    raw = t1 - t0 - float(probe_s)
    return raw * float(factor), raw


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _stamp(args) -> dict:
    kernel = importlib.import_module("idemconv._kernel")
    cython = importlib.util.find_spec("Cython") is not None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernel.backend_name(),
        "has_compiled": kernel.HAS_COMPILED,
        "idemconv_pure": os.environ.get("IDEMCONV_PURE", ""),
        "compiled_kernel": "measured" if kernel.HAS_COMPILED else
        "unmeasured: the compiled extension is not built (Cython present: %s)" % cython,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cython": cython,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _check(workload, outputs) -> int:
    return sum(workload.failures(item, out) for item, out in outputs)


def end_to_end(ic, args) -> tuple[dict, dict]:
    setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[args.workload](ic, args.seed)
    warm = []
    if workload.warmup:
        warm, _, _ = workloads.run_blocks(workload, [workload.next_block()])
    gc.collect()

    outputs, starts, ends, sizes = [], [], [], []
    rss = None
    measured = 0.0
    with speed.SpeedSampler() as sampler:
        while measured < args.seconds:
            out, t0, t1 = workloads.run_blocks(workload, [workload.next_block()])
            measured += sampler.scaled(t0, t1)[0].sum()
            outputs += out
            starts.append(t0)
            ends.append(t1)
            sizes.append(len(out))
            if rss is None:
                rss = _peak_rss_mb()
    raw, scaled = sampler.scaled(np.concatenate(starts), np.concatenate(ends))
    bounds = np.cumsum([0] + sizes)
    walls = [float(scaled[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]

    failed = _check(workload, warm + outputs)
    attempted = len(warm + outputs) * workload.weight
    metrics = {
        "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "items_per_s": _metric(len(outputs) / float(scaled.sum()), "1/s"),
        "item_p50_ms": _metric(float(np.percentile(scaled, 50)) * 1e3, "ms"),
        "item_p90_ms": _metric(float(np.percentile(scaled, 90)) * 1e3, "ms"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    extra = {
        "setup_s_scaled_raw": setups,
        "items": len(outputs),
        "block_walls_scaled_s": walls,
        "raw": {
            "items_per_s": len(outputs) / float(raw.sum()),
            "item_p50_ms": float(np.percentile(raw, 50)) * 1e3,
            "item_p90_ms": float(np.percentile(raw, 90)) * 1e3,
            "setup_s": statistics.median(r for _, r in setups),
        },
        "speed": {
            "samples": len(sampler.start),
            "mean_factor": sampler.mean_factor(),
            "probe_s": sampler.probe_time(),
        },
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, extra


def traced(ic, args) -> tuple[dict, dict]:
    fixture_index = {f: i for i, f in enumerate(workloads.PAPER_SUITE_FIXTURES)}
    setup_tracer = spans.Tracer()
    setup_tracer.install(spans=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ic, args.seed)
    finally:
        setup_tracer.uninstall()
    # one block: a fixed amount of work, so counts repeat exactly run to run
    blocks = [workload.next_block()]
    warm = []
    if workload.warmup:
        warm, _, _ = workloads.run_blocks(workload, blocks)
    gc.collect()

    counter = spans.Tracer()
    counter.install(spans=False)
    try:
        with speed.SpeedSampler() as sampler:
            out_a, t0, t1 = workloads.run_blocks(workload, blocks)
    finally:
        counter.uninstall()
    _, scaled_a = sampler.scaled(t0, t1)
    caches = layers.cache_sizes(ic)
    gc.collect()

    tracer = spans.Tracer()
    tracer.install(spans=True, fixture_index=fixture_index)
    try:
        with speed.SpeedSampler() as sampler:
            out_b, t0, t1 = workloads.run_blocks(workload, blocks, tracer)
    finally:
        tracer.uninstall()
    raw_b, scaled_b = sampler.scaled(t0, t1)
    tracer.add_intervals("trace.probe", *sampler.probes())

    kernel_rows = layers.kernel_cases(ic)
    failed = _check(workload, warm + out_a + out_b) + kernel_rows["failed"]
    attempted = len(warm + out_a + out_b) * workload.weight + len(layers.KERNEL_CASES)
    same_verdicts = [workload.verdict(o) for _, o in out_a] == [workload.verdict(o) for _, o in out_b]
    deterministic = same_verdicts and all(
        counter.counts[k] == tracer.counts[k]
        for k in ("kernel.term_ops", "kernel.calls", "commutation.commute",
                  "commutation.zero_product", "commutation.non_commuting")
    )

    metrics = layers.per_layer(
        spans.SpanTable(setup_tracer),
        spans.SpanTable(tracer),
        tracer.counts,
        wall_traced=float(raw_b.sum()),
        overhead_frac=float(scaled_b.sum() / scaled_a.sum()) - 1.0,
        caches=caches,
        kernel_rows=kernel_rows["metrics"],
        fail_ratio=failed / attempted,
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.npz")
    extra = {
        "deterministic": deterministic,
        "counts_untraced": dict(counter.counts),
        "counts_traced": dict(tracer.counts),
        "wall_untraced_scaled_s": float(scaled_a.sum()),
        "wall_traced_scaled_s": float(scaled_b.sum()),
        "wall_traced_raw_s": float(raw_b.sum()),
        "spans": len(tracer.name_id),
        "kernel_cases": kernel_rows["detail"],
    }
    if not deterministic:
        print("determinism check failed: untraced and traced passes differ", file=sys.stderr)
    correct = failed == 0 and deterministic
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, extra


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "idemconv" / "__init__.py").is_file():
        print(f"no idemconv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        with speed.SpeedSampler() as sampler:
            workloads.WORKLOADS[args.workload](_import_idemconv(), args.seed)
        print("ready", sampler.probe_time(), sampler.mean_factor(), flush=True)
        return 0

    # byte-compile first, so no set-up sample pays for it
    compileall.compile_dir(str(SRC / "idemconv"), quiet=1)
    ic = _import_idemconv()
    line, extra = traced(ic, args) if args.trace else end_to_end(ic, args)
    stamp = _stamp(args)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"stamp": stamp, "result": line, "detail": extra}, indent=1))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
