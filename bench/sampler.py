"""Interleaved per-call timings of the discrete-Gaussian samplers of two
source trees, written to BENCH_sampler.json at the repository root.

    python3 bench/sampler.py --base OTHER_CHECKOUT/src --new src

Each tree's stateful_agg/ring.py is loaded on its own (it needs numpy
only).  For every sigma and shape the two trees take turns, the first
alternating: one turn times CALLS back-to-back calls on a Philox
generator and records their mean.  Tables are built before timing starts.
The JSON holds, per function, sigma and shape, the median and quartiles
over ROUNDS turns of each tree, in microseconds per call, and new/base.
gaussian_ints draws the shape itself; sample_gaussian draws a (K, N)
block for K unit weights in a ring of degree N (a 1-D shape is K = 1).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

SIGMAS = (3.2, 44.8, 64.3, 250.0, 640.0)
SHAPES = ((64,), (2048,), (24, 2048))
LOGQ = 54  # two limbs at N = 64 and N = 2048
ROUNDS, CALLS = 21, 20
OUT = Path(__file__).resolve().parent.parent / "BENCH_sampler.json"


def load_ring(src: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, src / "stateful_agg" / "ring.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def call(ring, fn: str, sigma: float, shape: tuple[int, ...]):
    """A zero-argument closure making one call of fn on its own generator."""
    rng = np.random.Generator(np.random.Philox(12345))
    if fn == "gaussian_ints":
        return lambda: ring.gaussian_ints(rng, sigma, shape)
    k, n = (1, shape[0]) if len(shape) == 1 else shape
    params = ring.RingParams.from_bits(n, LOGQ, 2**16)
    weights = (1,) * k
    return lambda: ring.sample_gaussian(rng, sigma, params, weights)


def per_call_us(f, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        f()
    return (time.perf_counter() - t0) / calls * 1e6


def summary(xs: list[float]) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="src/ of the tree to compare against")
    ap.add_argument("--new", type=Path, required=True, help="src/ of the changed tree")
    ap.add_argument("--base-name", default="base", help="label stored for --base")
    ap.add_argument("--new-name", default="new", help="label stored for --new")
    args = ap.parse_args()
    rings = {"base": load_ring(args.base, "ring_base"), "new": load_ring(args.new, "ring_new")}
    cells = []
    for fn in ("gaussian_ints", "sample_gaussian"):
        for sigma in SIGMAS:
            for shape in SHAPES:
                fs = {side: call(ring, fn, sigma, shape) for side, ring in rings.items()}
                for f in fs.values():
                    per_call_us(f, 3)
                times = {side: [] for side in fs}
                for r in range(ROUNDS):
                    for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                        times[side].append(per_call_us(fs[side], CALLS))
                base, new = summary(times["base"]), summary(times["new"])
                ratio = round(new["median"] / base["median"], 3)
                cells.append({"function": fn, "sigma": sigma, "shape": list(shape),
                              "base_us": base, "new_us": new, "new_over_base": ratio})
                print(f"{fn:16} sigma={sigma:<6} shape={str(shape):12} "
                      f"base {base['median']:8.1f} us  new {new['median']:8.1f} us  x{ratio}",
                      file=sys.stderr)
    doc = {
        "what": "per-call microseconds, interleaved turns of base and new, median and quartiles",
        "base": args.base_name,
        "new": args.new_name,
        "rounds": ROUNDS,
        "calls_per_turn": CALLS,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu": platform.machine(), "cores": os.cpu_count()},
        "cells": cells,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
