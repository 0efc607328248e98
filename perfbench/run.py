"""Benchmark of the stateful-agg simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 30 --trace 0

Repeats one workload (see workloads.py) for about --seconds seconds.  Each
repetition sets up its parameters cold, runs the whole program through the
package's public entry point, and checks every reveal against the
references; the checks lie outside every timed window.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the repetitions alternate between untraced and traced, and
the metrics are the per-layer ones listed in BENCHMARK.json, measured on
the traced repetitions.  Traced runs also write their spans and layer
table under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_REPEATS = 3
SETUPS_PER_REPEAT = 20


def load_package():
    """Import the package from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "stateful_agg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    import stateful_agg

    if Path(stateful_agg.__file__).resolve().parent != (src / "stateful_agg").resolve():
        sys.exit(f"perfbench: imported stateful_agg from {stateful_agg.__file__}, not {src}")
    return stateful_agg


@dataclass
class Repeat:
    setup_s: list[float]
    run_s: float
    rows: list | None  # transcript rows, None when the run raised
    failed: int
    correct: bool
    tracer: object = None


class Bench:
    """Repetitions of one workload on the inputs of one seed."""

    def __init__(self, package, workload, seed: int):
        from workloads import count_failed

        self.count_failed = count_failed
        self.package = package
        self.workload = workload
        self.case = workload.build(seed)
        self.references = None
        self.reveals = 0
        self.peak_rss_mb = None
        # Caches the package keeps between calls; cleared before every
        # set-up so each repetition pays what a fresh process pays.
        self._caches = [
            obj.cache_clear
            for name in LAYERS
            for obj in vars(getattr(package, name)).values()
            if callable(getattr(obj, "cache_clear", None))
        ]

    def repeat(self, traced: bool) -> Repeat:
        """Set up cold, run once, check every reveal outside the timing."""
        tracer = Tracer(self.package, LAYERS) if traced else None
        span = tracer.span if tracer else lambda name: nullcontext()
        setups = []
        result = None
        gc.collect()
        if tracer:
            tracer.install()
        try:
            for _ in range(1 if traced else SETUPS_PER_REPEAT):
                for clear in self._caches:
                    clear()
                t0 = time.perf_counter()
                with span("bench.setup"):
                    pset = self.workload.setup(self.case)
                setups.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            try:
                with span("bench.run"):
                    result = self.workload.run(self.case, pset)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            run_s = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        if self.peak_rss_mb is None:
            # Read before the references are first built.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.references is None:
            self.references = self.workload.references(self.case, pset)
            self.reveals = len(set().union(*self.references))
        if result is None:
            return Repeat(setups, run_s, None, self.reveals, True, tracer)
        failed, correct = self.count_failed(result.reveals, self.references)
        return Repeat(setups, run_s, result.transcript.rows, failed, correct, tracer)


def end_to_end(reps: list[Repeat], peak_rss_mb: float, n: int) -> dict:
    rows = next((r.rows for r in reps if r.rows is not None), [])
    client_rounds = max(1, len(rows) * n)
    return {
        "setup_s": (statistics.median(s for r in reps for s in r.setup_s), "s"),
        "run_s": (statistics.median(r.run_s for r in reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "upload_bytes": (sum(r.c2s_bytes for r in rows) / client_rounds, "B/client-round"),
        "peer_bytes": (sum(r.c2c_bytes for r in rows) / client_rounds, "B/client-round"),
    }


def per_layer(traced: list[Repeat], names: list[str], out_path: Path, header: dict):
    """The listed per-layer metrics, and the whole layer table."""
    summaries = [r.tracer.summary() for r in traced]
    calls = {k: v for k, v in summaries[0].items() if k.endswith(".calls")}
    for other in summaries[1:]:
        if {k: v for k, v in other.items() if k.endswith(".calls")} != calls:
            print("perfbench: call counts differ between traced repetitions", file=sys.stderr)
    keys = sorted(set().union(*summaries))
    table = {
        k: summaries[0].get(k, 0) if k.endswith(".calls") else statistics.median(s.get(k, 0.0) for s in summaries)
        for k in keys
    }
    traced_names = traced[0].tracer.traced_names() | {"bench.setup", "bench.run"}
    absent = []
    metrics = {}
    for name in names:
        target, _, kind = name.rpartition(".")
        exists = target in LAYERS if kind == "self_s" else target in traced_names
        if not exists:
            absent.append(name)
        unit = "count" if kind == "calls" else "s"
        metrics[name] = (table.get(name, 0), unit)
    if absent:
        print("perfbench: absent from the package, reported as 0: " + ", ".join(absent), file=sys.stderr)
    traced[-1].tracer.dump(out_path.with_suffix(".spans.json"), header)
    out_path.write_text(json.dumps(dict(header, absent=absent, layers=table), indent=1))
    return metrics, table


def print_breakdown(table: dict, total: float) -> None:
    print(f"traced repetition: {total:.3f} s")
    for layer in LAYERS:
        self_s = table.get(f"{layer}.self_s", 0.0)
        print(f"  {layer:9s} self {self_s:9.4f} s  {100 * self_s / total:5.1f}%")
    top = sorted(
        ((v, k[:-2]) for k, v in table.items() if k.endswith(".s") and not k.startswith("bench.")),
        reverse=True,
    )[:15]
    for secs, name in top:
        calls = int(table.get(f"{name}.calls", 0))
        print(f"  {name:40s} {secs:9.4f} s  {100 * secs / total:5.1f}%  {calls} calls")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    package = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    bench = Bench(package, workload, args.seed)

    plain: list[Repeat] = []
    traced: list[Repeat] = []
    start = time.perf_counter()
    round_s = 0.0
    # Start another round only if it should end within --seconds.
    while len(plain) < MIN_REPEATS or time.perf_counter() - start + round_s <= args.seconds:
        t0 = time.perf_counter()
        for is_traced in (False, True) if args.trace else (False,):
            (traced if is_traced else plain).append(bench.repeat(is_traced))
        round_s = time.perf_counter() - t0
    reps = plain + traced
    attempted = bench.reveals * len(reps)
    failed = sum(r.failed for r in reps)
    correct = all(r.correct for r in reps)

    print("run_s of each repetition: " + " ".join(f"{r.run_s:.4f}" for r in plain), file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {attempted} reveals, {failed} failed")
    e2e = end_to_end(plain, bench.peak_rss_mb, workload.n)
    for name, (value, unit) in e2e.items():
        print(f"{name:14s} {value:14.6f} {unit}")
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        header = {"workload": workload.name, "seed": args.seed, "repetitions": len(traced)}
        names = [m["name"] for m in spec["per_layer"]]
        out_path = OUT / f"layers-{workload.name}-seed{args.seed}.json"
        metrics, table = per_layer(traced, names, out_path, header)
        traced_run = statistics.median(r.run_s for r in traced)
        overhead = traced_run / e2e["run_s"][0] - 1.0
        print(f"tracing overhead: traced run_s {traced_run:.4f} s against untraced "
              f"{e2e['run_s'][0]:.4f} s ({100 * overhead:+.1f}%)")
        print_breakdown(table, table["bench.setup.s"] + table["bench.run.s"])
    else:
        metrics = e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
