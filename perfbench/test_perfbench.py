"""Checks of the benchmark itself, on toy-sized copies of its workloads."""

from __future__ import annotations

import dataclasses

import pytest

import stateful_agg
from stateful_agg import prng, protocol
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, count_failed

TOY = {
    "cohort": dict(n=3, ell=4, N=32, height=1),
    "dropout": dict(n=6, ell=4, N=32, height=1, h=3, t=2, d=2),
    "long-horizon": dict(n=2, ell=4, N=32, rounds=5),
    "high-dim": dict(n=2, ell=64, N=32, rows=3),
}


def toy_run(name: str, seed: int = 3):
    workload = dataclasses.replace(WORKLOADS[name], **TOY[name])
    case = workload.build(seed)
    pset = workload.setup(case)
    return workload, case, pset, workload.run(case, pset)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_workload_passes_every_reference(name):
    workload, case, pset, result = toy_run(name)
    refs = workload.references(case, pset)
    assert len(refs) == (2 if name in ("long-horizon", "high-dim") else 1)
    assert count_failed(result.reveals, refs) == (0, True)


def test_changed_coefficient_is_a_failed_incorrect_reveal():
    workload, case, pset, result = toy_run("high-dim")
    refs = workload.references(case, pset)
    reveals = [(i, list(v)) for i, v in result.reveals]
    reveals[1][1][5] = (int(reveals[1][1][5]) + 1) % pset.T
    assert count_failed(reveals, refs) == (1, False)


def test_missing_reveal_is_a_failed_reveal():
    workload, case, pset, result = toy_run("long-horizon")
    refs = workload.references(case, pset)
    assert count_failed(result.reveals[:-1], refs) == (1, True)


def test_unexpected_reveal_makes_the_run_incorrect():
    workload, case, pset, result = toy_run("long-horizon")
    refs = workload.references(case, pset)
    assert count_failed(result.reveals + result.reveals[-1:], refs)[1] is False


def test_traced_counts_repeat_and_cover_imported_names():
    counts = []
    for _ in range(2):
        tracer = Tracer(stateful_agg, LAYERS)
        tracer.install()
        try:
            assert protocol.ctx_rng is prng.ctx_rng and hasattr(prng.ctx_rng, "__wrapped__")
            toy_run("cohort")
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        counts.append({k: v for k, v in summary.items() if k.endswith(".calls")})
        assert summary["prng.ctx_rng.calls"] > 0
        assert summary["protocol.client_step.calls"] == 3 * 4
        assert all(v >= 0 for k, v in summary.items() if k.endswith("self_s"))
    assert counts[0] == counts[1]
    assert protocol.ctx_rng is prng.ctx_rng
    assert not hasattr(prng.ctx_rng, "__wrapped__")
