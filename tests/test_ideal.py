import numpy as np
import pytest

from stateful_agg import dp, ideal
from stateful_agg import program as prog
from stateful_agg.dp import per_client_std
from stateful_agg.prng import ctx_rng
from stateful_agg.ring import gaussian_ints

from helpers import random_program, run_rng

T = 2**20


def _sum_program(r, ell=1):
    rounds = [prog.Instruction.make(prog.STORE, prog.InputRule.data()) for _ in range(r - 1)]
    rounds.append(
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {k: 1 for k in range(1, r)})
    )
    return prog.Program(ell=ell, rounds=rounds)


def test_long_running_aggregation():
    # Three cohorts whose per-round sums are 1, 2, 3; the final reveal is 6.
    p = _sum_program(3)
    inputs = np.zeros((3, 2, 1), dtype=object)
    inputs[0, 0, 0] = 1
    inputs[1, 0, 0] = 2
    inputs[2, 0, 0] = 1
    inputs[2, 1, 0] = 2
    res = ideal.evaluate_program(p, inputs, T)
    assert res.reveals == [(3, np.array([6], dtype=object))] or (
        res.reveals[0][0] == 3 and int(res.reveals[0][1][0]) == 6
    )


def test_single_round_reveal():
    p = prog.Program(ell=2, rounds=[prog.Instruction.make(prog.REVEAL, prog.InputRule.data())])
    inputs = np.array([[[1, 2], [3, 4], [5, 6]]], dtype=object)
    res = ideal.evaluate_program(p, inputs, T)
    assert [int(v) for v in res.reveals[0][1]] == [9, 12]


def test_matches_flattened_weights_oracle():
    rng = run_rng("ideal-lam")
    for _ in range(30):
        p, n = random_program(rng, r_max=6, n_max=4, ell_max=4)
        inputs = rng.integers(0, 50, size=(p.r, n, p.ell)).astype(object)
        res = ideal.evaluate_program(p, inputs, T)
        tables = prog.compose_all(p)
        for rnd, vec in res.reveals:
            lam = {**tables[rnd - 1], rnd: 1}
            want = np.zeros(p.ell, dtype=object)
            for k, w in lam.items():
                want = want + w * inputs[k - 1].sum(axis=0)
            assert [int(v) for v in vec] == [int(v) % T for v in want]


def test_reveal_rounds_and_order():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data()),
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: 1}),
    ])
    inputs = np.ones((3, 1, 1), dtype=object)
    res = ideal.evaluate_program(p, inputs, T)
    assert [rnd for rnd, _ in res.reveals] == [1, 3]


def test_state_append_only():
    p = _sum_program(4)
    inputs = run_rng("append").integers(0, 9, size=(4, 2, 1)).astype(object)
    res = ideal.evaluate_program(p, inputs, T)
    assert len(res.state.values) == 4
    # prefix values match a fresh evaluation of the prefix program
    res3 = ideal.evaluate_program(
        prog.Program(ell=1, rounds=p.rounds[:3]), inputs[:3], T
    )
    for a, b in zip(res3.state.values, res.state.values):
        assert int(a[0]) == int(b[0])


def test_negative_values_reduce_mod_t():
    p = prog.Program(ell=1, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: -1}),
    ])
    inputs = np.zeros((2, 1, 1), dtype=object)
    inputs[0, 0, 0] = 5
    res = ideal.evaluate_program(p, inputs, T)
    assert int(res.reveals[0][1][0]) == T - 5


def test_materialize_deterministic_and_shapes():
    p = dp.tree_program(1, 2.0, ell=3)
    a = ideal.materialize_inputs(p, None, 4, noise_seed=9)
    b = ideal.materialize_inputs(p, None, 4, noise_seed=9)
    c = ideal.materialize_inputs(p, None, 4, noise_seed=10)
    assert a.shape == (4, 4, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # noise rounds populated, data rounds zero without data
    assert any(int(v) != 0 for v in a[0].ravel())
    assert all(int(v) == 0 for v in a[1].ravel())


def test_materialize_shape_mismatch():
    p = _sum_program(2)
    with pytest.raises(ValueError, match="shape"):
        ideal.materialize_inputs(p, np.zeros((2, 3, 5), dtype=object), 3)


def test_run_ideal_rule_noise_enters_sum():
    p = dp.baseline_program(1, 4.0, ell=1)
    res = ideal.run_ideal(p, np.zeros((1, 50, 1), dtype=object), T, n=50, noise_seed=3)
    val = int(res.reveals[0][1][0])
    centered = val - T if val > T // 2 else val
    assert centered != 0
    assert abs(centered) < 12 * 4.0 * 50


def _materialize_reference(p, data_inputs, n, noise_seed=0, gamma=0.0):
    """The Python-int materialization the int64 path must reproduce."""
    out = np.zeros((p.r, n, p.ell), dtype=object)
    data = None if data_inputs is None else np.asarray(data_inputs, dtype=object)
    for i, instr in enumerate(p.rounds, start=1):
        kind = instr.rule.kind
        if kind == prog.ZERO:
            continue
        for j in range(n):
            vec = np.zeros(p.ell, dtype=object)
            if kind == prog.DATA and data is not None:
                vec = vec + data[i - 1, j]
            if instr.rule.variance > 0:
                std = per_client_std(instr.rule.variance, n, gamma)
                draw = gaussian_ints(ctx_rng(noise_seed, "input-noise", i, j), std, p.ell)
                vec = vec + draw.astype(object)
            out[i - 1, j] = vec
    return out


def _mixed_rules_program(ell):
    """Data with and without local noise, pure noise and zero rounds."""
    rules = [prog.InputRule.data(), prog.InputRule.data(9.0), prog.InputRule.gauss(4.0),
             prog.InputRule.zero(), prog.InputRule.data()]
    rounds = [prog.Instruction.make(prog.STORE, rule) for rule in rules[:-1]]
    rounds.append(prog.Instruction.make(prog.REVEAL, rules[-1], {1: 3, 2: -1, 3: 1, 4: 2}))
    return prog.Program(ell=ell, rounds=rounds)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("dtype", [object, np.int64, None])
def test_materialize_int64_matches_python_ints(noisy, dtype):
    n, ell = 3, 5
    p = _mixed_rules_program(ell) if noisy else _sum_program(4, ell)
    rng = run_rng("materialize", noisy)
    data = None if dtype is None else rng.integers(-(2**40), 2**40, (p.r, n, ell)).astype(dtype)
    got = ideal.materialize_inputs(p, data, n, noise_seed=5, gamma=0.25)
    want = _materialize_reference(p, data, n, noise_seed=5, gamma=0.25)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert [(i, v.tolist()) for i, v in ideal.evaluate_program(p, got, T).reveals] == [
        (i, v.tolist()) for i, v in ideal.evaluate_program(p, want, T).reveals
    ]


@pytest.mark.parametrize("big,noisy,dtype", [
    (2**63 + 5, False, object),  # no int64
    (-(2**63) - 1, False, object),
    (2**62 - 1, False, np.int64),
    (2**62 - 1, True, object),  # int64, but not with 12 sigma of noise on top
])
def test_materialize_falls_back_to_python_ints_beyond_2_62(big, noisy, dtype):
    n, ell = 2, 3
    p = _mixed_rules_program(ell) if noisy else _sum_program(2, ell)
    data = np.ones((p.r, n, ell), dtype=object)
    data[0, 1, 2] = big
    got = ideal.materialize_inputs(p, data, n, noise_seed=1)
    assert got.dtype == dtype
    assert got.tolist() == _materialize_reference(p, data, n, noise_seed=1).tolist()


@pytest.mark.parametrize("shape", [(2, 3, 2), (3, 3, 1)], ids=["rounds", "length"])
def test_evaluate_program_refuses_inputs_of_another_shape(shape):
    p = dp.baseline_program(3, 0.0, ell=2)
    with pytest.raises(ValueError, match="do not match program"):
        ideal.evaluate_program(p, np.zeros(shape, dtype=np.int64), T)
