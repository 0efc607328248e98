"""Aggregation programs: one store-or-reveal instruction per round, each
carrying an input rule for the cohort and sparse weights over prior rounds.

Weights are signed integers everywhere in this module.  compose_all
flattens the recursive state definition
    v_i = sum_j x_{i,j} + sum_{k<i} w_{i,k} * v_k
into one sparse table per round, {k: lam_k} over the earlier rounds with a
nonzero flattened weight, so a lazy server can store unreduced aggregates
and apply one linear function at reveal time.  A run composes the tables
once; the ring reduces each weight mod q where it multiplies an element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "STORE",
    "REVEAL",
    "InputRule",
    "Instruction",
    "Program",
    "validate",
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


def compose_all(p: Program) -> list[dict[int, int]]:
    """Flattened weights for every round, as sparse tables.

    Entry i-1 is round i's table {k: lam_k} over the earlier rounds with a
    nonzero weight, keys ascending, so that sum_k lam_k * x_k + x_i is the
    eager recursion's v_i (the own weight 1 is implicit).  Round i adds
    w * table_k for each of its weights (k, w), so no work is spent on zero
    weights.  Arithmetic is over the integers.
    """
    tables: list[dict[int, int]] = []
    for instr in p.rounds:
        acc: dict[int, int] = {}
        for k, w in instr.weights:
            for kk, v in tables[k - 1].items():
                acc[kk] = acc.get(kk, 0) + w * v
            acc[k] = acc.get(k, 0) + w
        tables.append({k: v for k in sorted(acc) if (v := acc[k])})
    return tables


def reveal_stats(p: Program, tables: list[dict[int, int]] | None = None) -> tuple[float, float]:
    """Worst per-reveal (sum |lam|, sum lam^2) over signed flattened weights.

    Reads `tables`, the program's compose_all tables, when the caller has
    them, and composes them otherwise.  Feeds the noise-budget check; (1, 1)
    for a program with no reveals, which is the profile of a plain one-shot
    aggregation.
    """
    best_abs, best_sq = 1.0, 1.0
    for instr, table in zip(p.rounds, compose_all(p) if tables is None else tables):
        if instr.mode == REVEAL:
            best_abs = max(best_abs, float(1 + sum(abs(v) for v in table.values())))
            best_sq = max(best_sq, float(1 + sum(v * v for v in table.values())))
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
    rounds = [
        {
            "mode": instr.mode,
            "input": _rule_to_json(instr.rule),
            "weights": {str(k): str(w) for k, w in instr.weights},
        }
        for instr in p.rounds
    ]
    return {"l": p.ell, "rounds": rounds}


def program_from_dict(doc: dict) -> Program:
    if "modulus" in doc:
        raise ValueError("unsupported program key 'modulus': a run's moduli come from its params")
    rounds = []
    for item in doc["rounds"]:
        weights = {int(k): int(v) for k, v in item.get("weights", {}).items()}
        rounds.append(Instruction.make(item["mode"], _rule_from_json(item["input"]), weights))
    return Program(ell=int(doc["l"]), rounds=rounds)


def save_program(p: Program, path: str | Path) -> None:
    Path(path).write_text(json.dumps(program_to_dict(p), indent=1))


def load_program(path: str | Path) -> Program:
    p = program_from_dict(json.loads(Path(path).read_text()))
    errs = validate(p)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))
    return p
