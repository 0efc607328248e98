"""Interleaved per-call timings of one layer of two source trees, written to
BENCH_<layer>.json at the repository root.

    python3 bench/run.py --layer sharing --base OTHER_CHECKOUT/src --new src

Each tree's stateful_agg package is loaded as a package of its own, so
the two never share a module, and perfbench/workloads.py is executed once
against each, so each tree builds its own copy of the benchmark's
workloads.  Every cell shaped by a workload takes its parameters, program
or states from there, built from seed SEED; the step cells take their
states from one captured run of the workload per tree.  For every cell of
the layer the two trees take turns, the first alternating: one turn times
CALLS[layer] back-to-back calls and records their mean.  Each tree's calls
run on their own inputs and generators, built before timing starts, and a
few warm-up calls fill the caches.  The JSON holds, per cell, the median
and quartiles over ROUNDS turns of each tree, in microseconds per call,
and new/base.

Layers:

* sampler: `ring.gaussian_ints` and `ring.sample_gaussian`, per sigma and
  shape; gaussian_ints draws the shape itself, sample_gaussian a (K, N)
  block for K unit weights in a ring of degree N (a 1-D shape is K = 1).
* sharing: `sharing.tshare_many` of K elements with the `dropout`
  workload's committees (h, t) and ring, `sharing.tshare` of a degree-1
  secret over the same limbs, and `sharing.trec` of t summed shares of an
  element.
* ring: the forward and inverse transforms `ring._ntt` and `ring._intt`,
  `ring.mul` of a fresh element by one whose transform is cached (one
  forward and one inverse transform, as an upload's b*s), and a cold
  build of the transform tables (`ring._NttTables`), at the `cohort`
  workload's ring, two 22-bit limbs at N = 2048 (acceptance criterion 8),
  the `high-dim` workload's ring and seven 31-bit limbs at N = 16384.
* program: `program.compose_all(p)` and `program.reveal_stats(p)` of the
  four workloads' programs, of `dp.tree_program(10)` (r = 2048) and of the
  `long-horizon` running sum at 256 rounds of one element.
* step: both halves of a round, on what one run of a workload handed the
  round engine's steps and the recovery layer, caught as the run made it:
  `protocol.server_step` of every round of the `cohort` and `high-dim`
  runs into a fresh `ServerState`, and `ServerState.open_round` of every
  reveal from the run's server; `protocol.client_step` with the arguments
  of client 0 in round 2 of the `cohort` run (seed pieces) and of the
  `dropout` run (element pieces kept for the backups, and a self-mask);
  `dropout.backup_shares` of round 2's survivors of the `dropout` run into
  a fresh `Recovery`, so a call is one round's backups; and
  `dropout.recover_round` of round 2, from the state its repair found in
  the `dropout` run.  Each `recover_round` call first puts back what the
  previous call popped or rewrote (the round's backups and mask shares,
  and the server's aggregates, deficits and drift), a few dictionary
  assignments that are timed with it.
* run: `Workload.run(case, pset)` of each workload, one whole run per
  turn.  The runs are warm: perfbench clears the package's caches before
  each repetition, this layer does not.

Next to each time the JSON holds the minor page faults per call (median
over the turns, from getrusage around each turn): both trees share one
process, so a kernel whose temporaries the allocator hands back to the
system pays for fresh pages on every call.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROUNDS = 21
ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the workloads' inputs
STEP_ROUND = 2  # the round of the client-side step cells

SIGMAS = (3.2, 44.8, 64.3, 250.0, 640.0)
SHAPES = ((64,), (2048,), (24, 2048))
SAMPLER_LOGQ = 54  # two limbs at N = 64 and N = 2048


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


@functools.cache
def workloads(pkg) -> dict:
    """perfbench's WORKLOADS, built on pkg: workloads.py executed with
    `stateful_agg` bound to pkg."""
    name = f"{pkg.__name__}_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks the module up
    saved = sys.modules.get("stateful_agg")
    sys.modules["stateful_agg"] = pkg
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["stateful_agg"]
        else:
            sys.modules["stateful_agg"] = saved
    return module.WORKLOADS


@functools.cache
def built(pkg, name: str):
    """(workload, case, parameter set) of the workload `name` on pkg."""
    w = workloads(pkg)[name]
    case = w.build(SEED)
    return w, case, w.setup(case)


@functools.cache
def captured(pkg, name: str) -> dict:
    """What one run of the workload `name` on pkg handed the round engine's
    steps and its recovery layer: every round's `server_step` arguments
    after the server, the server, client 0's `client_step` arguments in
    STEP_ROUND, that round's backed-up survivors, and what its repair
    found.  Extra arguments pass through as the tree's engine hands them
    over, so a cell calls either tree's signature."""
    protocol, dropout = pkg.protocol, pkg.dropout
    server_step, client_step = protocol.server_step, protocol.client_step
    backup, repair = dropout.Recovery.backup, dropout.Recovery.repair
    found = {"rounds": [], "survivors": []}

    def absorb(server, *args):
        found["server"] = server
        found["rounds"].append(args)
        return server_step(server, *args)

    def step(ctx, j, *args, **kwargs):
        if (ctx.index, j) == (STEP_ROUND, 0):
            found["client"] = (ctx, j, *args), kwargs
        return client_step(ctx, j, *args, **kwargs)

    def back(self, ctx, res):
        if ctx.index == STEP_ROUND:  # the engine clears `pieces` once backed up
            found["survivors"].append((ctx, copy.copy(res)))
        return backup(self, ctx, res)

    def rep(self, server, rnd, *rest):
        if rnd == STEP_ROUND:
            found.update(
                recovery=self, rest=rest,
                popped=(self.backups[rnd], self.mask_shares[rnd]),
                rewritten=(dict(server.stored), dict(server.deficit), server.drift),
            )
        return repair(self, server, rnd, *rest)

    w, case, pset = built(pkg, name)
    protocol.server_step, protocol.client_step = absorb, step
    dropout.Recovery.backup, dropout.Recovery.repair = back, rep
    try:
        w.run(case, pset)
    finally:
        protocol.server_step, protocol.client_step = server_step, client_step
        dropout.Recovery.backup, dropout.Recovery.repair = backup, repair
    return found


def _rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(12345))


def sampler_cells(new):
    """(cell fields, factory) pairs, the fields read from the tree `new`; a
    factory takes a package and returns a zero-argument closure making one
    call."""
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


def sharing_cells(new):
    def dropout_pset(pkg):
        return built(pkg, "dropout")[2]

    pset = dropout_pset(new)
    shape = {"h": pset.h, "t": pset.t, "N": pset.N, "logq": pset.logq}

    for K in (6, 7):
        def many(pkg, K=K):
            pset, rng = dropout_pset(pkg), _rng()
            secrets = [pkg.ring.sample_uniform(rng, pset.ring()) for _ in range(K)]
            return lambda: pkg.sharing.tshare_many(secrets, pset.h, pset.t, rng)

        yield {"function": "tshare_many", "shape": {**shape, "K": K}}, many

    def scalar(pkg):
        pset, rng = dropout_pset(pkg), _rng()
        pr = pset.ring()
        secret = pkg.ring.sample_uniform(rng, pkg.ring.RingParams(1, pr.T, limbs=pr.limbs))
        return lambda: pkg.sharing.tshare(secret, pset.h, pset.t, rng)

    yield {"function": "tshare", "shape": {**shape, "N": 1}}, scalar

    def rec(pkg):
        pset, rng = dropout_pset(pkg), _rng()
        pr = pset.ring()
        secrets = [pkg.ring.sample_uniform(rng, pr) for _ in range(6)]
        shared = pkg.sharing.tshare_many(secrets, pset.h, pset.t, rng)
        summed = [
            (x, pkg.sharing.piece_sum([ts.shares[x - 1][1] for ts in shared], pr))
            for x in (1, 3, 4, 6)
        ]
        return lambda: pkg.sharing.trec(summed, pset.t)

    yield {"function": "trec", "shape": shape}, rec


def _widest_limbs(ring, N: int, count: int) -> tuple[int, ...]:
    """The `count` largest primes 1 mod 2N below 2^31."""
    limbs, k = [], (2**31 - 2) // (2 * N)
    while len(limbs) < count:
        if ring._is_prime(k * 2 * N + 1):
            limbs.append(k * 2 * N + 1)
        k -= 1
    return tuple(sorted(limbs))


def ring_cells(new):
    rings = {
        "cohort": lambda pkg: built(pkg, "cohort")[2].ring(),
        "criterion-8": lambda pkg: pkg.ring.RingParams.from_bits(2048, 44, 2**16),
        "high-dim": lambda pkg: built(pkg, "high-dim")[2].ring(),
        "wide": lambda pkg: pkg.ring.RingParams(
            16384, 2**16, limbs=_widest_limbs(pkg.ring, 16384, 7)),
    }
    for name, params in rings.items():
        shape = {"name": name, "N": params(new).N}
        for fn in ("_ntt", "_intt"):
            def transform(pkg, fn=fn, params=params):
                pr = params(pkg)
                f, tbl = getattr(pkg.ring, fn), pkg.ring._tables(pr.limbs, pr.N)
                x = pkg.ring.sample_uniform(_rng(), pr).res
                return lambda: f(x, tbl)

            yield {"function": fn, "shape": shape}, transform

        def mul(pkg, params=params):
            ring, pr, rng = pkg.ring, params(pkg), _rng()
            a, x = ring.sample_uniform(rng, pr), ring.sample_uniform(rng, pr).res
            return lambda: ring.mul(a, ring.RingElement(x, pr))

        yield {"function": "mul", "shape": shape}, mul

        def build(pkg, params=params):
            pr = params(pkg)
            return lambda: pkg.ring._NttTables(pr.limbs, pr.N)

        yield {"function": "_NttTables", "shape": shape}, build


def program_cells(new):
    programs = {name: lambda pkg, name=name: built(pkg, name)[1].program for name in workloads(new)}
    programs["tree-10"] = lambda pkg: pkg.dp.tree_program(10, 1.0)
    programs["running-sum-256"] = lambda pkg: dataclasses.replace(
        workloads(pkg)["long-horizon"], rounds=256, ell=1).program(None)[0]
    for name, build in programs.items():
        def compose(pkg, build=build):
            p = build(pkg)
            return lambda: pkg.program.compose_all(p)

        def stats(pkg, build=build):
            p = build(pkg)
            return lambda: pkg.program.reveal_stats(p)

        shape = {"name": name}
        yield {"function": "compose_all", "shape": shape}, compose
        yield {"function": "reveal_stats", "shape": shape}, stats


def step_cells(new):
    for name in ("cohort", "high-dim"):
        def absorb(pkg, name=name):
            found = captured(pkg, name)
            p, pset = found["server"].program, found["server"].pset

            def call():
                server = pkg.protocol.ServerState(p, pset)
                for args in found["rounds"]:
                    pkg.protocol.server_step(server, *args)

            return call

        def reveal(pkg, name=name):
            server = captured(pkg, name)["server"]
            p = server.program
            reveals = [i for i in range(1, p.r + 1) if p.instruction(i).mode == pkg.program.REVEAL]
            return lambda: [server.open_round(i) for i in reveals]

        shape = {"name": name}
        yield {"function": "server_step", "shape": shape}, absorb
        yield {"function": "open_round", "shape": shape}, reveal

    for name in ("cohort", "dropout"):
        def step(pkg, name=name):
            args, kwargs = captured(pkg, name)["client"]
            return lambda: pkg.protocol.client_step(*args, **kwargs)

        yield {"function": "client_step", "shape": {"name": name}}, step

    def backup(pkg):
        survivors = captured(pkg, "dropout")["survivors"]

        def call():
            recovery = pkg.dropout.Recovery({})
            for ctx, res in survivors:
                pkg.dropout.backup_shares(recovery, ctx, res)

        return call

    yield {"function": "backup_shares", "shape": {"name": "dropout", "per": "round"}}, backup

    def repair(pkg):
        found = captured(pkg, "dropout")
        recovery, server = found["recovery"], found["server"]
        record, masks = found["popped"]
        stored, deficit, drift = found["rewritten"]

        def call():
            recovery.backups[STEP_ROUND], recovery.mask_shares[STEP_ROUND] = record, masks
            server.stored, server.deficit, server.drift = dict(stored), dict(deficit), drift
            return pkg.dropout.recover_round(server, recovery, STEP_ROUND, *found["rest"])

        return call

    yield {"function": "recover_round", "shape": {"name": "dropout"}}, repair


def run_cells(new):
    for name in workloads(new):
        def run(pkg, name=name):
            w, case, pset = built(pkg, name)
            return lambda: w.run(case, pset)

        yield {"function": "run", "shape": {"name": name}}, run


LAYERS = {
    "sampler": sampler_cells, "sharing": sharing_cells, "ring": ring_cells,
    "program": program_cells, "step": step_cells, "run": run_cells,
}
# Calls per turn; a whole run takes 0.2-0.6 s.
CALLS = dict.fromkeys(LAYERS, 20) | {"run": 1}


def per_call(f, calls: int) -> tuple[float, float]:
    """(microseconds, minor page faults) per call, over `calls` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(calls):
        f()
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / calls * 1e6, faults / calls


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
    calls = CALLS[args.layer]
    cells = []
    for fields, make in LAYERS[args.layer](pkgs["new"]):
        fs = {side: make(pkg) for side, pkg in pkgs.items()}
        for f in fs.values():
            per_call(f, 3)
        times = {side: [] for side in fs}
        faults = {side: [] for side in fs}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                us, flt = per_call(fs[side], calls)
                times[side].append(us)
                faults[side].append(flt)
        base, new = summary(times["base"]), summary(times["new"])
        ratio = round(new["median"] / base["median"], 3)
        cells.append({
            **fields, "base_us": base, "new_us": new, "new_over_base": ratio,
            "base_faults_per_call": float(np.median(faults["base"])),
            "new_faults_per_call": float(np.median(faults["new"])),
        })
        print(f"{json.dumps(fields):60} base {base['median']:8.1f} us  "
              f"new {new['median']:8.1f} us  x{ratio}", file=sys.stderr)
    doc = {
        "what": "per-call microseconds, interleaved turns of base and new, median and quartiles",
        "base": args.base_name,
        "new": args.new_name,
        "rounds": ROUNDS,
        "calls_per_turn": calls,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu": platform.machine(), "cores": os.cpu_count()},
        "cells": cells,
    }
    (ROOT / f"BENCH_{args.layer}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
