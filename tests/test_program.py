import json

import numpy as np
import pytest

from stateful_agg import dp
from stateful_agg import program as prog

from helpers import eager_eval, random_program, run_rng


def test_validate_empty_program():
    assert prog.validate(prog.Program(ell=1, rounds=[])) == []


def test_validate_own_round_weight():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data(), {1: 1}),
    ])
    errs = prog.validate(p)
    assert len(errs) == 1 and "references round 1" in errs[0]


def test_validate_tree_program():
    assert prog.validate(dp.tree_program(3, 1.0)) == []


def test_validate_bad_rule():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule("gauss", 0.0)),
    ])
    assert any("variance" in e for e in prog.validate(p))


def test_compose_unit_without_weights():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()) for _ in range(4)
    ])
    assert prog.compose_all(p)[2] == {}  # round 3 reads only its own weight 1


def test_compose_worked_example():
    # w_21 = 2, w_31 = 1, w_32 = 3: round-3 weights are (7, 3, 1)
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.STORE, prog.InputRule.data(), {1: 2}),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: 1, 2: 3}),
    ])
    assert {**prog.compose_all(p)[2], 3: 1} == {1: 7, 2: 3, 3: 1}


def test_compose_negative_weight_encoding():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: -1}),
    ])
    table = prog.compose_all(p)[1]
    assert table == {1: -1}
    assert {k: w % 97 for k, w in table.items()} == {1: 96}


def test_lazy_equals_eager_on_random_programs():
    q = 97
    rng = run_rng("lazyeager")
    for trial in range(200):
        p, n = random_program(rng, r_max=8, n_max=4, ell_max=3)
        inputs = rng.integers(0, q, size=(p.r, n, p.ell)).astype(object)
        values, _ = eager_eval(p, inputs, q=q)
        tables = prog.compose_all(p)
        per_round = [inputs[i].sum(axis=0) % q for i in range(p.r)]
        for i in range(1, p.r + 1):
            lam = {**tables[i - 1], i: 1}
            lazy = np.zeros(p.ell, dtype=object)
            for k, w in lam.items():
                lazy = lazy + w * per_round[k - 1]
            assert list(lazy % q) == list(values[i - 1]), f"trial {trial} round {i}"


def _dense(tables):
    """The tables as dense vectors: round i's has length i, own entry 1."""
    bars = []
    for i, table in enumerate(tables, start=1):
        bar = np.zeros(i, dtype=object)
        bar[i - 1] = 1
        for k, w in table.items():
            bar[k - 1] = w
        bars.append(bar)
    return bars


def _dense_compose(p, q=None):
    """Reference: every round's flattened weights by dense accumulation."""
    bars = []
    for i, instr in enumerate(p.rounds, start=1):
        bar = np.zeros(i, dtype=object)
        bar[i - 1] = 1
        for k, w in instr.weights:
            bar[:k] += w * bars[k - 1]
        if q is not None:
            bar %= q
        bars.append(bar)
    return bars


def _table_programs():
    rng = run_rng("tables")
    yield from (dp.tree_program(h, 1.0) for h in range(1, 6))
    for rows, band in ((1, 1), (4, 2), (6, 3), (8, 8)):
        yield dp.mf_program(dp.random_banded(rows, band, 12, rng), 1.0)
    for _ in range(100):
        yield random_program(rng, r_max=10, n_max=2, ell_max=1)[0]


@pytest.mark.parametrize("q", [None, 97, 2**61 - 1])
def test_tables_are_sparse_ascending_and_match_dense(q):
    for p in _table_programs():
        for i, (table, bar) in enumerate(zip(prog.compose_all(p), _dense_compose(p, q)), 1):
            assert list(table) == sorted(table) and all(1 <= k < i for k in table)
            assert all(w != 0 for w in table.values())
            if q is not None:
                table = {k: w % q for k, w in table.items() if w % q}
            assert table == {k: bar[k - 1] for k in range(1, i) if bar[k - 1]}


def test_tree_tables_hold_one_entry_per_edge():
    tables = prog.compose_all(dp.tree_program(10, 1.0))
    assert len(tables) == 2048 and sum(map(len, tables)) == 2047


def test_compose_edge_linearity():
    # Dropping one weight edge (i, k) changes round i's flattened weights by
    # exactly w_ik times the flattened weights of round k.
    rng = run_rng("edge")
    for _ in range(30):
        p, _ = random_program(rng, r_max=5, n_max=2, ell_max=1)
        bars = _dense(prog.compose_all(p))
        for i in range(1, p.r + 1):
            for k, w in p.rounds[i - 1].weights:
                stripped = {kk: ww for kk, ww in p.rounds[i - 1].weights if kk != k}
                rounds = list(p.rounds)
                rounds[i - 1] = prog.Instruction.make(
                    p.rounds[i - 1].mode, p.rounds[i - 1].rule, stripped
                )
                bars2 = _dense(prog.compose_all(prog.Program(ell=p.ell, rounds=rounds)))
                diff = bars[i - 1] - bars2[i - 1]
                expect = np.zeros(i, dtype=object)
                expect[:k] = w * bars[k - 1]
                assert list(diff) == list(expect)


def test_reveal_stats():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: -2}),
    ])
    s_abs, s_sq = prog.reveal_stats(p)
    assert s_abs == 3.0 and s_sq == 5.0  # |−2| + |1|, 4 + 1


def test_json_roundtrip(tmp_path):
    p = dp.tree_program(2, 1.5, ell=3)
    path = tmp_path / "p.json"
    prog.save_program(p, path)
    p2 = prog.load_program(path)
    assert p2.ell == p.ell
    assert p2.rounds == p.rounds


def test_json_negative_weight_strings(tmp_path):
    doc = {
        "l": 2,
        "rounds": [
            {"mode": "store", "input": "data", "weights": {}},
            {"mode": "reveal", "input": {"gauss": 4.0}, "weights": {"1": "-1"}},
        ],
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    p = prog.load_program(path)
    assert dict(p.rounds[1].weights) == {1: -1}


def test_json_combined_data_noise_rule(tmp_path):
    p = dp.baseline_program(2, 3.0)
    path = tmp_path / "b.json"
    prog.save_program(p, path)
    p2 = prog.load_program(path)
    assert p2.rounds[0].rule.kind == "data"
    assert p2.rounds[0].rule.variance == 9.0


def test_load_invalid_program(tmp_path):
    doc = {"l": 1, "rounds": [{"mode": "reveal", "input": "data", "weights": {"5": "1"}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="invalid program"):
        prog.load_program(path)


@pytest.mark.parametrize("modulus", ["97", 0, -5])
def test_program_from_dict_refuses_modulus(modulus):
    # Moduli come from the parameter set; a program's own would be ignored.
    doc = prog.program_to_dict(prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: 3}),
    ]))
    assert "modulus" not in doc
    with pytest.raises(ValueError, match="'modulus'"):
        prog.program_from_dict({**doc, "modulus": modulus})


@pytest.mark.parametrize("instr, why", [
    (prog.Instruction("publish", prog.InputRule.data()), "round 2: unknown mode 'publish'"),
    (prog.Instruction(prog.STORE, prog.InputRule("laplace")), "round 2: unknown input rule 'laplace'"),
    (prog.Instruction(prog.STORE, prog.InputRule.data(-1.0)), "round 2: negative variance"),
    (prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {0: 1}),
     "round 2: weight references round 0 (must be >= 1)"),
], ids=["mode", "rule", "variance", "weight-index"])
def test_validate_names_each_malformed_instruction(instr, why):
    p = prog.Program(ell=1, rounds=[prog.Instruction.make(prog.STORE, prog.InputRule.data()), instr])
    assert prog.validate(p) == [why]


def test_program_file_with_unknown_input_rule_fails_closed():
    doc = {"l": 1, "rounds": [{"mode": "store", "input": {"laplace": 1.0}}]}
    with pytest.raises(ValueError, match="unrecognised input rule"):
        prog.program_from_dict(doc)
