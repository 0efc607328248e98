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
* ring: the forward and inverse transforms `ring._ntt` and `ring._intt`,
  `ring.mul` of a fresh element by one whose transform is cached (one
  forward and one inverse transform, as an upload's b*s), and a cold
  build of the transform tables (`ring._NttTables`), at the `cohort`
  ring (N = 2048, 17/18-bit limbs), two 22-bit limbs at N = 2048
  (acceptance criterion 8), the `high-dim` ring (N = 4096, 26/27-bit
  limbs) and seven 31-bit limbs at N = 16384.
* program: `program.compose_all(p)` and `program.reveal_stats(p)` of the
  four perfbench workloads' programs, of `dp.tree_program(10)` (r = 2048)
  and of a 256-round running sum; each tree builds the programs with its
  own `dp` and `program` modules.
* step: the server's half of a run at the `cohort` and `high-dim`
  workloads' shapes: `protocol.server_step` of every round into a fresh
  `ServerState`, and `ServerState.open_round` of every reveal from a state
  that has absorbed every round.  Each tree runs the client steps of its
  own run (seed 0, 8-bit inputs) before timing starts.  The client's half:
  `protocol.client_step` of client 0 in round 2, at the `cohort` shape
  (seed pieces) and at the `dropout` shape (element pieces kept for the
  backups, and a self-mask); `dropout.backup_shares` of every survivor of
  round 2 into a fresh `Recovery`, so a call is one round's backups; and
  `dropout.recover_round` of round 2, from the state its repair in a run
  of the `dropout` workload's schedule found.  Each `recover_round` call
  first puts back what the previous call popped or rewrote (the round's
  backups and mask shares, and the server's aggregates, deficits and
  drift), a few dictionary assignments that are timed with it.

Next to each time the JSON holds the minor page faults per call (median
over the turns, from getrusage around each turn): both trees share one
process, so a kernel whose temporaries the allocator hands back to the
system pays for fresh pages on every call.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
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


def _widest_limbs(ring, N: int, count: int) -> tuple[int, ...]:
    """The `count` largest primes 1 mod 2N below 2^31."""
    limbs, k = [], (2**31 - 2) // (2 * N)
    while len(limbs) < count:
        if ring._is_prime(k * 2 * N + 1):
            limbs.append(k * 2 * N + 1)
        k -= 1
    return tuple(sorted(limbs))


# (name, N, logq or None, limb count for the widest 31-bit limbs)
RING_SHAPES = (
    ("cohort", 2048, 35, None),
    ("criterion-8", 2048, 44, None),
    ("high-dim", 4096, 106, None),
    ("wide", 16384, None, 7),
)


def ring_cells():
    for name, n, logq, count in RING_SHAPES:
        def params(pkg, n=n, logq=logq, count=count):
            ring = pkg.ring
            limbs = ring.choose_limbs(n, logq) if logq else _widest_limbs(ring, n, count)
            return ring.RingParams(n, 2**16, limbs=limbs)

        shape = {"name": name, "N": n}
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


def _running_sum(pkg, r: int, ell: int):
    prog = pkg.program
    return prog.Program(ell=ell, rounds=[
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {i - 1: 1} if i > 1 else {})
        for i in range(1, r + 1)
    ])


# (name, program builder): the perfbench workloads' programs, then two long
# programs.
PROGRAM_SHAPES = (
    ("cohort", lambda pkg: pkg.dp.tree_program(2, 2.0, ell=64)),
    ("dropout", lambda pkg: pkg.dp.tree_program(2, 2.0, ell=64)),
    ("long-horizon", lambda pkg: _running_sum(pkg, 48, 8)),
    ("high-dim", lambda pkg: pkg.dp.mf_program(
        pkg.dp.random_banded(4, 3, 16, _rng()), 0.0, ell=65536)),
    ("tree-10", lambda pkg: pkg.dp.tree_program(10, 1.0)),
    ("running-sum-256", lambda pkg: _running_sum(pkg, 256, 1)),
)


def program_cells():
    for name, build in PROGRAM_SHAPES:
        def compose(pkg, build=build):
            p = build(pkg)
            return lambda: pkg.program.compose_all(p)

        def stats(pkg, build=build):
            p = build(pkg)
            return lambda: pkg.program.reveal_stats(p)

        shape = {"name": name}
        yield {"function": "compose_all", "shape": shape}, compose
        yield {"function": "reveal_stats", "shape": shape}, stats


# name -> (n, N, make_paramset options) of the perfbench workload.
STEP_SHAPES = {
    "cohort": (32, 2048, {"dp_sigma": 2.0}),
    "dropout": (16, 2048, {
        "dp_sigma": 2.0, "h": 6, "t": 4, "d": 8, "beta": 1 / 16, "seed_resharing": False,
    }),
    "high-dim": (4, 4096, {"logq": 106, "pf": 2}),
}
STEP_ROUND = 2  # the round of the client-side cells


def _workload(pkg, name: str):
    """A workload's program, parameter set, 8-bit data and the inputs they
    make."""
    n, N, options = STEP_SHAPES[name]
    p = dict(PROGRAM_SHAPES)[name](pkg)
    pset = pkg.params.make_paramset(
        n=n, r=p.r, ell=p.ell, input_bits=8, N=N, stats=pkg.program.reveal_stats(p), **options
    )
    data = _rng().integers(0, 2**8, size=(p.r, n, p.ell))
    noise_seed = pkg.protocol.run_noise_seed(0)
    return p, pset, data, pkg.ideal.materialize_inputs(p, data, n, noise_seed, pset.gamma)


def _absorbed(pkg, name: str, keep_pieces=False):
    """A workload's program and parameter set, each round's context,
    incoming inbox and client results, and a server that has absorbed every
    round."""
    protocol = pkg.protocol
    p, pset, _, inputs = _workload(pkg, name)
    n = pset.n
    server = protocol.ServerState(p, pset)
    shape = (n, len(server.ring_params.limbs), pset.N)
    inbox, rounds = np.zeros(shape, dtype=np.uint64), []
    for i in range(1, p.r + 1):
        ctx = protocol.build_context(server, "bench-step", i, 0)
        routed = np.zeros(shape, dtype=np.uint64)
        results = [
            protocol.client_step(ctx, j, inbox[j], inputs[i - 1][j], None, routed, keep_pieces)
            for j in range(n)
        ]
        protocol.server_step(server, ctx, results)
        rounds.append((ctx, inbox, results))
        inbox = routed
    return p, pset, inputs, rounds, server


def _repair_state(pkg, rnd: int):
    """The recovery layer and server that round rnd's repair finds in a run
    of the `dropout` workload's schedule, what that repair pops or
    rewrites, and its arguments after the round."""
    p, pset, data, _ = _workload(pkg, "dropout")
    found = {}

    # `rest` is what the tree's engine passes after the round: the next
    # round's dropped clients, then the run seed where `recover_round`
    # takes it, so the cell calls either tree's signature.
    class Snapshot(pkg.dropout.Recovery):
        def repair(self, server, i, *rest):
            if i == rnd:
                found.update(
                    recovery=self, server=server, rest=rest,
                    popped=(self.backups[i], self.mask_shares[i]),
                    rewritten=(dict(server.stored), dict(server.deficit), server.drift),
                )
            return super().repair(server, i, *rest)

    schedule = pkg.dropout.random_schedule(pset, p.r, 0)
    pkg.protocol.run_protocol(p, pset, data, 0, recovery=Snapshot(schedule))
    return found


def step_cells():
    for name in ("cohort", "high-dim"):
        def absorb(pkg, name=name):
            p, pset, _, rounds, _ = _absorbed(pkg, name)

            def call():
                server = pkg.protocol.ServerState(p, pset)
                for ctx, _, results in rounds:
                    pkg.protocol.server_step(server, ctx, results)

            return call

        def reveal(pkg, name=name):
            p, _, _, _, server = _absorbed(pkg, name)
            reveals = [i for i in range(1, p.r + 1) if p.instruction(i).mode == pkg.program.REVEAL]
            return lambda: [server.open_round(i) for i in reveals]

        shape = {"name": name}
        yield {"function": "server_step", "shape": shape}, absorb
        yield {"function": "open_round", "shape": shape}, reveal

    for name in ("cohort", "dropout"):
        def step(pkg, name=name):
            kept = name == "dropout"
            _, pset, inputs, rounds, _ = _absorbed(pkg, name)
            ctx, inbox, _ = rounds[STEP_ROUND - 1]
            mask = pkg.dropout.prg_mask(1, pset.m, pset.ring()) if kept else None
            routed = np.zeros_like(inbox)
            x = inputs[STEP_ROUND - 1][0]
            return lambda: pkg.protocol.client_step(ctx, 0, inbox[0], x, mask, routed, kept)

        yield {"function": "client_step", "shape": {"name": name}}, step

    def backup(pkg):
        p, pset, _, rounds, _ = _absorbed(pkg, "dropout", keep_pieces=True)
        ctx, _, results = rounds[STEP_ROUND - 1]
        dropped = pkg.dropout.random_schedule(pset, p.r, 0).get(STEP_ROUND, ())
        survivors = [res for res in results if res.index not in dropped]

        def call():
            recovery = pkg.dropout.Recovery({})
            for res in survivors:
                pkg.dropout.backup_shares(recovery, ctx, res)

        return call

    yield {"function": "backup_shares", "shape": {"name": "dropout", "per": "round"}}, backup

    def repair(pkg):
        found = _repair_state(pkg, STEP_ROUND)
        recovery, server = found["recovery"], found["server"]
        record, masks = found["popped"]
        stored, deficit, drift = found["rewritten"]

        def call():
            recovery.backups[STEP_ROUND], recovery.mask_shares[STEP_ROUND] = record, masks
            server.stored, server.deficit, server.drift = dict(stored), dict(deficit), drift
            return pkg.dropout.recover_round(server, recovery, STEP_ROUND, *found["rest"])

        return call

    yield {"function": "recover_round", "shape": {"name": "dropout"}}, repair


LAYERS = {
    "sampler": sampler_cells, "sharing": sharing_cells, "ring": ring_cells,
    "program": program_cells, "step": step_cells,
}


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
    cells = []
    for fields, make in LAYERS[args.layer]():
        fs = {side: make(pkg) for side, pkg in pkgs.items()}
        for f in fs.values():
            per_call(f, 3)
        times = {side: [] for side in fs}
        faults = {side: [] for side in fs}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                us, flt = per_call(fs[side], CALLS)
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
        "calls_per_turn": CALLS,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu": platform.machine(), "cores": os.cpu_count()},
        "cells": cells,
    }
    (ROOT / f"BENCH_{args.layer}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
