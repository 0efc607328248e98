"""Aggregation programs: one store-or-reveal instruction per round, each
carrying an input rule for the cohort and sparse weights over prior rounds.

Weights are kept as signed integers; they are reduced into Z_q only when a
concrete modulus is supplied (protocol runs) and used exactly as integers
otherwise (the reference evaluator and magnitude bookkeeping).

compose_lambda flattens the recursive state definition
    v_i = sum_j x_{i,j} + sum_{k<i} w_{i,k} * v_k
into a single weight vector over the raw per-round sums, so a lazy server
can store unreduced aggregates and apply one linear function at reveal time.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "STORE",
    "REVEAL",
    "InputRule",
    "Instruction",
    "Program",
    "validate",
    "compose_lambda",
    "compose_all",
    "reveal_stats",
    "program_to_dict",
    "program_from_dict",
    "save_program",
    "load_program",
]

STORE = "store"
REVEAL = "reveal"

DATA = "data"
GAUSS = "gauss"
ZERO = "zero"


@dataclass(frozen=True)
class InputRule:
    """What each cohort member contributes: its data vector (optionally with
    local Gaussian noise folded in), pure Gaussian noise, or zeros."""

    kind: str
    variance: float = 0.0

    @classmethod
    def data(cls, variance: float = 0.0) -> "InputRule":
        return cls(DATA, variance)

    @classmethod
    def gauss(cls, variance: float) -> "InputRule":
        return cls(GAUSS, variance)

    @classmethod
    def zero(cls) -> "InputRule":
        return cls(ZERO)


@dataclass(frozen=True)
class Instruction:
    mode: str
    rule: InputRule
    weights: tuple[tuple[int, int], ...] = ()

    @classmethod
    def make(cls, mode: str, rule: InputRule, weights: dict[int, int] | None = None):
        items = tuple(sorted((int(k), int(v)) for k, v in (weights or {}).items()))
        return cls(mode, rule, items)


@dataclass
class Program:
    ell: int
    rounds: list[Instruction] = field(default_factory=list)
    modulus: int | None = None

    @property
    def r(self) -> int:
        return len(self.rounds)

    def instruction(self, i: int) -> Instruction:
        return self.rounds[i - 1]


def validate(p: Program) -> list[str]:
    """Structural checks; an empty list means the program is valid."""
    errs: list[str] = []
    if p.ell < 1:
        errs.append("vector length must be >= 1")
    if p.modulus is not None and not (isinstance(p.modulus, numbers.Integral) and p.modulus > 0):
        errs.append("modulus must be a positive integer")
    for i, instr in enumerate(p.rounds, start=1):
        if instr.mode not in (STORE, REVEAL):
            errs.append(f"round {i}: unknown mode {instr.mode!r}")
        if instr.rule.kind not in (DATA, GAUSS, ZERO):
            errs.append(f"round {i}: unknown input rule {instr.rule.kind!r}")
        if instr.rule.kind == GAUSS and not instr.rule.variance > 0:
            errs.append(f"round {i}: gaussian rule needs positive variance")
        if instr.rule.variance < 0:
            errs.append(f"round {i}: negative variance")
        for k, _w in instr.weights:
            if k >= i:
                errs.append(f"round {i}: weight references round {k} (must be < {i})")
            elif k < 1:
                errs.append(f"round {i}: weight references round {k} (must be >= 1)")
    return errs


def compose_all(p: Program, q: int | None = None) -> list[np.ndarray]:
    """Flattened weights for every round, by forward accumulation.

    Entry i-1 is the length-i vector lam with lam[i-1] == 1 and
    <lam, (x_1..x_i)> equal to the eager recursion's v_i.  Arithmetic is
    over the integers, reduced mod q when given.
    """
    bars: list[np.ndarray] = []
    for i, instr in enumerate(p.rounds, start=1):
        bar = np.zeros(i, dtype=object)
        bar[i - 1] = 1
        for k, w in instr.weights:
            if q is not None:
                w = w % q
            bar[:k] += w * bars[k - 1]
        if q is not None:
            bar %= q
        bars.append(bar)
    return bars


def compose_lambda(p: Program, i: int, q: int | None = None) -> np.ndarray:
    """Flattened weight vector for round i (length i, own entry == 1)."""
    if not 1 <= i <= p.r:
        raise ValueError(f"round {i} out of range 1..{p.r}")
    return compose_all(p, q)[i - 1]


def reveal_stats(p: Program) -> tuple[float, float]:
    """Worst per-reveal (sum |lam|, sum lam^2) over signed flattened weights.

    Feeds the noise-budget check; (1, 1) for a program with no reveals, which
    is the profile of a plain one-shot aggregation.
    """
    bars = compose_all(p)
    best_abs, best_sq = 1.0, 1.0
    for i, instr in enumerate(p.rounds, start=1):
        if instr.mode != REVEAL:
            continue
        bar = bars[i - 1]
        s_abs = float(sum(abs(int(v)) for v in bar))
        s_sq = float(sum(int(v) * int(v) for v in bar))
        best_abs = max(best_abs, s_abs)
        best_sq = max(best_sq, s_sq)
    return best_abs, best_sq


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------


def _rule_to_json(rule: InputRule):
    if rule.kind == ZERO:
        return "zero"
    if rule.kind == GAUSS:
        return {"gauss": rule.variance}
    if rule.variance:
        return {"data": rule.variance}
    return "data"


def _rule_from_json(obj) -> InputRule:
    if obj == "data":
        return InputRule.data()
    if obj == "zero":
        return InputRule.zero()
    if isinstance(obj, dict):
        if "gauss" in obj:
            return InputRule.gauss(float(obj["gauss"]))
        if "data" in obj:
            return InputRule.data(float(obj["data"]))
    raise ValueError(f"unrecognised input rule {obj!r}")


def program_to_dict(p: Program) -> dict:
    rounds = []
    for instr in p.rounds:
        rounds.append(
            {
                "mode": instr.mode,
                "input": _rule_to_json(instr.rule),
                "weights": {str(k): str(w) for k, w in instr.weights},
            }
        )
    doc = {"l": p.ell, "rounds": rounds}
    if p.modulus is not None:
        doc["modulus"] = str(p.modulus)
    return doc


def program_from_dict(doc: dict) -> Program:
    rounds = []
    for item in doc["rounds"]:
        weights = {int(k): int(v) for k, v in item.get("weights", {}).items()}
        rounds.append(Instruction.make(item["mode"], _rule_from_json(item["input"]), weights))
    modulus = int(doc["modulus"]) if "modulus" in doc else None
    return Program(ell=int(doc["l"]), rounds=rounds, modulus=modulus)


def save_program(p: Program, path: str | Path) -> None:
    Path(path).write_text(json.dumps(program_to_dict(p), indent=1))


def load_program(path: str | Path) -> Program:
    p = program_from_dict(json.loads(Path(path).read_text()))
    errs = validate(p)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))
    return p
