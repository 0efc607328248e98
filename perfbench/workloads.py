"""The benchmark's workloads.

Each workload builds its inputs from a seed, sets up parameters cold,
runs one whole program through a public entry point and yields the
reveals the run must deliver.  The reference reveals come from the
package's trusted-party oracle (`ideal`) and, where the program has a
closed form, also from a numpy computation that uses nothing of the
package.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from stateful_agg import dp, dropout, ideal, params, protocol
from stateful_agg import program as prog


@dataclass
class Case:
    """Inputs of one workload, made from the seed before anything is timed."""

    program: prog.Program
    data: np.ndarray  # (r, n, ell) object array of input integers
    seed: int
    schedule: dict | None = None
    matrix: dp.BandedMatrix | None = None


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(name.encode()), seed])


def _data(rng: np.random.Generator, p: prog.Program, n: int, input_bits: int) -> np.ndarray:
    return rng.integers(0, 2**input_bits, size=(p.r, n, p.ell)).astype(object)


@dataclass(frozen=True)
class Workload:
    """A program shape plus the parameters the set-up derives from it."""

    name: str
    n: int
    ell: int
    N: int
    input_bits: int = 8

    def program(self, rng: np.random.Generator) -> tuple[prog.Program, Any]:
        raise NotImplementedError

    def paramset_kwargs(self) -> dict:
        return {}

    def build(self, seed: int) -> Case:
        rng = _rng(self.name, seed)
        p, matrix = self.program(rng)
        return Case(p, _data(rng, p, self.n, self.input_bits), seed, matrix=matrix)

    def setup(self, case: Case) -> params.ParamSet:
        """Parameter selection and ring construction: what `setup_s` times."""
        p = case.program
        pset = params.make_paramset(
            n=self.n, r=p.r, ell=p.ell, input_bits=self.input_bits, N=self.N,
            stats=prog.reveal_stats(p), **self.paramset_kwargs(),
        )
        pset.ring()
        return pset

    def run(self, case: Case, pset: params.ParamSet) -> protocol.RunResult:
        """One whole run through the public entry point: what `run_s` times."""
        return protocol.run_protocol(case.program, pset, data_inputs=case.data, seed=case.seed)

    def submitted(self, case: Case, pset: params.ParamSet) -> np.ndarray:
        """The (r, n, ell) integers the run submits, noise included."""
        return ideal.materialize_inputs(
            case.program, case.data, self.n, protocol.run_noise_seed(case.seed), pset.gamma
        )

    def references(self, case: Case, pset: params.ParamSet) -> list[dict[int, list[int]]]:
        """Reveals the run must deliver, round -> values, from every reference
        that applies."""
        oracle = ideal.evaluate_program(case.program, self.submitted(case, pset), pset.T)
        refs = [{i: [int(v) for v in vec] for i, vec in oracle.reveals}]
        independent = self.numpy_reference(case, pset.T)
        if independent is not None:
            refs.append(independent)
        return refs

    def numpy_reference(self, case: Case, T: int):
        return None


@dataclass(frozen=True)
class Cohort(Workload):
    """Seed-resharing run of a noisy prefix tree with a large cohort."""

    height: int = 2
    sigma: float = 2.0

    def program(self, rng):
        return dp.tree_program(self.height, sigma=self.sigma, ell=self.ell), None

    def paramset_kwargs(self):
        return {"dp_sigma": self.sigma}


@dataclass(frozen=True)
class Dropout(Cohort):
    """Prefix tree under a seeded schedule of dropouts, with Shamir backups."""

    h: int = 6
    t: int = 4
    # The derived d=34 makes dropout.Router hold about 845 MB of backups
    # over 8 rounds.
    d: int = 8
    dropouts: int = 1
    # Recovery traffic, most of upload_bytes here, grows with the number of
    # resharing pieces routed to the dropped clients.  That number follows
    # the run seed and the schedule: over seeds 1-10 upload_bytes spread by
    # 18% (quartile distance over median).  Both stay fixed, so the byte
    # metric measures the program; --seed draws the data.
    run_seed: int = 0

    def paramset_kwargs(self):
        # run_dropout_protocol reshares full elements whatever the flag
        # says; pinning it keeps the parameter set honest about that.
        return {
            "dp_sigma": self.sigma, "h": self.h, "t": self.t, "d": self.d,
            "beta": self.dropouts / self.n, "seed_resharing": False,
        }

    def build(self, seed):
        case = super().build(seed)
        case.seed = self.run_seed
        case.schedule = dropout.random_schedule(self.setup(case), case.program.r, self.run_seed)
        return case

    def run(self, case, pset):
        result, _ = dropout.run_dropout_protocol(
            case.program, pset, case.schedule, data_inputs=case.data, seed=case.seed
        )
        return result

    def submitted(self, case, pset):
        return dropout.survivor_inputs(super().submitted(case, pset), case.schedule)


@dataclass(frozen=True)
class LongHorizon(Workload):
    """Running sum: every round reveals x_i + v_(i-1)."""

    rounds: int = 48

    def program(self, rng):
        rounds = [
            prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {i - 1: 1} if i > 1 else {})
            for i in range(1, self.rounds + 1)
        ]
        return prog.Program(ell=self.ell, rounds=rounds), None

    def numpy_reference(self, case, T):
        sums = np.asarray(case.data, dtype=np.int64).sum(axis=1)
        running = np.cumsum(sums, axis=0) % T
        return {i: running[i - 1].tolist() for i in range(1, case.program.r + 1)}


@dataclass(frozen=True)
class HighDim(Workload):
    """Banded matrix factorization (DP-FTRL) with packed multi-element messages."""

    rows: int = 4
    band: int = 3
    precision_bits: int = 16
    logq: int = 106
    pf: int = 2

    def program(self, rng):
        c = dp.random_banded(self.rows, self.band, self.precision_bits, rng)
        return dp.mf_program(c, sigma=0.0, ell=self.ell), c

    def paramset_kwargs(self):
        return {"logq": self.logq, "pf": self.pf}

    def numpy_reference(self, case, T):
        # Store rounds 2k-1 carry the data; reveal round 2i releases
        # sum_k C[i, k] * (cohort sum of store round 2k-1) mod T.
        sums = np.asarray(case.data, dtype=np.int64).sum(axis=1)[0::2]
        c = case.matrix.scaled.astype(np.int64)
        released = (c @ sums) % T
        return {2 * i: released[i - 1].tolist() for i in range(1, case.matrix.rows + 1)}


WORKLOADS = {
    w.name: w
    for w in (
        Cohort("cohort", n=32, ell=64, N=2048, height=2),
        Dropout("dropout", n=16, ell=64, N=2048, height=2),
        LongHorizon("long-horizon", n=4, ell=8, N=2048, rounds=48),
        HighDim("high-dim", n=4, ell=65536, N=4096, rows=4),
    )
}


def count_failed(reveals, references: list[dict[int, list[int]]]) -> tuple[int, bool]:
    """(failed reveals, whether every delivered reveal matched).

    A reveal fails when it is missing or differs from any reference in any
    coefficient.  A delivered reveal that differs makes the run incorrect,
    and so does a reveal that no reference expects or one delivered twice.
    """
    delivered: dict[int, list[int]] = {}
    unexpected = False
    for i, vec in reveals:
        unexpected |= int(i) in delivered
        delivered[int(i)] = [int(v) for v in vec]
    expected = set().union(*references)
    unexpected |= any(i not in expected for i in delivered)
    failed, mismatched = 0, False
    for i in sorted(expected):
        got = delivered.get(i)
        if got is None or any(ref.get(i) != got for ref in references):
            failed += 1
            mismatched |= got is not None
    return failed, not (mismatched or unexpected)
