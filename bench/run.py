"""Interleaved per-call timings of one layer of two source trees, written to
BENCH_<layer>.json at the repository root.

    python3 bench/run.py --layer sharing --base OTHER_CHECKOUT/src --new src

Each tree's stateful_agg package is loaded as a package of its own, so
the two never share a module.  For every cell of the layer the two trees
take turns, the first alternating: one turn times CALLS back-to-back calls
and records their mean.  Each tree's calls run on their own inputs and
generators, built before timing starts, and a few warm-up calls fill the
caches.  The JSON holds, per cell, the median and quartiles over ROUNDS
turns of each tree, in microseconds per call, and new/base.

Layers:

* sampler: `ring.gaussian_ints` and `ring.sample_gaussian`, per sigma and
  shape; gaussian_ints draws the shape itself, sample_gaussian a (K, N)
  block for K unit weights in a ring of degree N (a 1-D shape is K = 1).
* sharing: `sharing.tshare_many` of K elements at the `dropout` workload's
  shape (h = 6, t = 4, N = 2048, logq = 34 in two limbs), `sharing.tshare`
  of a degree-1 mask secret over the same limbs, and `sharing.trec` of t
  summed shares of an element.
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

ROUNDS, CALLS = 21, 20
ROOT = Path(__file__).resolve().parent.parent

SIGMAS = (3.2, 44.8, 64.3, 250.0, 640.0)
SHAPES = ((64,), (2048,), (24, 2048))
SAMPLER_LOGQ = 54  # two limbs at N = 64 and N = 2048

# The dropout workload's committees and ring.
SHARING_H, SHARING_T, SHARING_N, SHARING_LOGQ = 6, 4, 2048, 34


def load_package(src: Path, name: str):
    """src/stateful_agg imported as the package `name`."""
    init = src / "stateful_agg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg  # relative imports inside resolve to this package
    spec.loader.exec_module(pkg)
    return pkg


def _rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(12345))


def sampler_cells():
    """(cell fields, factory) pairs; a factory takes a package and returns a
    zero-argument closure making one call."""
    for fn in ("gaussian_ints", "sample_gaussian"):
        for sigma in SIGMAS:
            for shape in SHAPES:
                def make(pkg, fn=fn, sigma=sigma, shape=shape):
                    ring, rng = pkg.ring, _rng()
                    if fn == "gaussian_ints":
                        return lambda: ring.gaussian_ints(rng, sigma, shape)
                    k, n = (1, shape[0]) if len(shape) == 1 else shape
                    params = ring.RingParams.from_bits(n, SAMPLER_LOGQ, 2**16)
                    weights = (1,) * k
                    return lambda: ring.sample_gaussian(rng, sigma, params, weights)

                yield {"function": fn, "sigma": sigma, "shape": list(shape)}, make


def sharing_cells():
    h, t = SHARING_H, SHARING_T
    shape = {"h": h, "t": t, "N": SHARING_N, "logq": SHARING_LOGQ}

    def params(pkg):
        return pkg.ring.RingParams.from_bits(SHARING_N, SHARING_LOGQ, 2**16)

    for K in (6, 7):
        def many(pkg, K=K):
            pr, rng = params(pkg), _rng()
            secrets = [pkg.ring.sample_uniform(rng, pr) for _ in range(K)]
            return lambda: pkg.sharing.tshare_many(secrets, h, t, rng)

        yield {"function": "tshare_many", "shape": {**shape, "K": K}}, many

    def mask(pkg):
        pr, rng = params(pkg), _rng()
        scalar = pkg.ring.RingParams(1, pr.T, limbs=pr.limbs)
        secret = pkg.ring.sample_uniform(rng, scalar)
        return lambda: pkg.sharing.tshare(secret, h, t, rng)

    yield {"function": "tshare", "shape": {**shape, "N": 1}}, mask

    def rec(pkg):
        pr, rng = params(pkg), _rng()
        secrets = [pkg.ring.sample_uniform(rng, pr) for _ in range(6)]
        shared = pkg.sharing.tshare_many(secrets, h, t, rng)
        summed = [
            (x, pkg.sharing.piece_sum([ts.shares[x - 1][1] for ts in shared], pr))
            for x in (1, 3, 4, 6)
        ]
        return lambda: pkg.sharing.trec(summed, t)

    yield {"function": "trec", "shape": shape}, rec


LAYERS = {"sampler": sampler_cells, "sharing": sharing_cells}


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
    ap.add_argument("--layer", choices=sorted(LAYERS), required=True, help="cells to time")
    ap.add_argument("--base", type=Path, required=True, help="src/ of the tree to compare against")
    ap.add_argument("--new", type=Path, required=True, help="src/ of the changed tree")
    ap.add_argument("--base-name", default="base", help="label stored for --base")
    ap.add_argument("--new-name", default="new", help="label stored for --new")
    args = ap.parse_args()
    pkgs = {
        "base": load_package(args.base, "stateful_agg_base"),
        "new": load_package(args.new, "stateful_agg_new"),
    }
    cells = []
    for fields, make in LAYERS[args.layer]():
        fs = {side: make(pkg) for side, pkg in pkgs.items()}
        for f in fs.values():
            per_call_us(f, 3)
        times = {side: [] for side in fs}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                times[side].append(per_call_us(fs[side], CALLS))
        base, new = summary(times["base"]), summary(times["new"])
        ratio = round(new["median"] / base["median"], 3)
        cells.append({**fields, "base_us": base, "new_us": new, "new_over_base": ratio})
        print(f"{json.dumps(fields):60} base {base['median']:8.1f} us  "
              f"new {new['median']:8.1f} us  x{ratio}", file=sys.stderr)
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
    (ROOT / f"BENCH_{args.layer}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
