"""Row plumbing shared by the bench_*.py scripts.

Each script takes --out and --label, stamps its row with the machine,
Python, numpy and the kernel backend, and with --out appends the row to
the "rows" list of a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from idemconv._kernel import backend_name


def parser(doc: str) -> argparse.ArgumentParser:
    """An argument parser with --out and --label, described by doc's first line."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--out", type=Path, help="append the row to this JSON file")
    ap.add_argument("--label", default="", help="name of the row, e.g. before/after")
    return ap


def stamp(script: str, label: str) -> dict:
    """The leading keys of a row: script name, label, machine, versions, backend."""
    return {
        "script": Path(script).name,
        "label": label,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend_name(),
    }


def best_time(fn, repeats: int, rounds: int = 3) -> float:
    """Seconds per call of fn: the best of rounds runs of repeats calls each."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def append(out: Path | None, row: dict) -> None:
    """Append row to the "rows" list of out, creating the file; no-op without out."""
    if out is None:
        return
    doc = json.loads(out.read_text()) if out.exists() else {"rows": []}
    doc["rows"].append(row)
    out.write_text(json.dumps(doc, indent=2) + "\n")
