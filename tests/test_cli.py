import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stateful_agg import program as prog
from stateful_agg import cli, protocol
from stateful_agg.cli import _load_inputs_csv, _synth_inputs, main


@pytest.fixture
def runner():
    return CliRunner()


def _write_sum_program(path: Path, r=3, ell=2):
    rounds = [{"mode": "store", "input": "data", "weights": {}} for _ in range(r - 1)]
    rounds.append(
        {"mode": "reveal", "input": "data", "weights": {str(k): "1" for k in range(1, r)}}
    )
    path.write_text(json.dumps({"l": ell, "rounds": rounds}))


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_long_running_sum(runner, tmp_path):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath)
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "5", "--seed", "1",
        "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    rows = _read_csv(tmp_path / "reveals.csv")
    assert rows[0] == ["round", "v0", "v1"]
    assert len(rows) == 2 and rows[1][0] == "3"
    # the revealed value is the sum of all synthesized inputs
    trows = _read_csv(tmp_path / "transcript.csv")
    assert trows[0] == ["round", "c2s_bytes", "c2c_bytes", "dropped_count"]
    assert len(trows) == 4


def test_run_deterministic_outputs(runner, tmp_path):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, [
            "run", "--program", str(ppath), "--n", "4", "--seed", "9", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        outs.append((out / "reveals.csv").read_bytes() + (out / "transcript.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_check_ideal_catches_wraparound(runner, tmp_path):
    # An absurdly small modulus would make the noise wrap; the run refuses
    # it before round 1, naming both widths, and writes no reveals.
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=4)
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 16, "logq": 15, "d": 2}))
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "5", "--seed", "2",
        "--params", str(pfile), "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 2
    assert "noise needs 21.1 bits, over the budget of 14.0 bits" in res.stderr
    assert not (tmp_path / "reveals.csv").exists()


def test_run_check_ideal_reports_a_wrong_reveal(runner, tmp_path, monkeypatch):
    # The side-by-side reference check fails loudly on any reveal that
    # differs from the reference: here one coefficient is off by one.
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=4)
    run = protocol.run_protocol

    def off_by_one(*args, **kwargs):
        result = run(*args, **kwargs)
        rnd, vec = result.reveals[0]
        result.reveals[0] = (rnd, [int(vec[0]) + 1] + list(vec[1:]))
        return result

    monkeypatch.setattr(protocol, "run_protocol", off_by_one)
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "5", "--seed", "2",
        "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 1
    assert "mismatch" in res.output


@pytest.mark.parametrize("case", ["sum", "tree"])
def test_run_derived_params_print_no_noise_warning(runner, tmp_path, case):
    ppath = tmp_path / "prog.json"
    if case == "tree":
        res = runner.invoke(main, [
            "gen", "tree", "--out", str(ppath), "--sigma", "2.0", "--l", "6", "--height", "2",
        ])
        assert res.exit_code == 0, res.output
    else:
        _write_sum_program(ppath, r=6)
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "4", "--seed", "3", "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""


def test_run_missing_program_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["run", "--program", str(tmp_path / "nope.json"), "--seed", "1"])
    assert res.exit_code == 2


def test_run_malformed_program_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["run", "--program", str(bad), "--seed", "1"])
    assert res.exit_code == 2


def test_run_with_dropout_schedule(runner, tmp_path):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=4)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"rounds": {"2": [0, 1]}}))
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "8", "--beta", "0.25", "--seed", "3",
        "--dropout-schedule", str(sched), "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    trows = _read_csv(tmp_path / "transcript.csv")
    assert trows[2][3] == "2"  # round 2 dropped count


def test_run_quorum_failure_exit_1(runner, tmp_path):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=4)
    sched = tmp_path / "sched.json"
    # drop half of each of two consecutive cohorts with tiny committees
    sched.write_text(json.dumps({"rounds": {"2": [0, 1], "3": [0, 1]}}))
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 16, "d": 2, "h": 2, "t": 2}))
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "4", "--beta", "0.5", "--seed", "4",
        "--dropout-schedule", str(sched), "--params", str(pfile), "--out", str(tmp_path),
    ])
    assert res.exit_code == 1
    assert "unrecoverable" in res.output


def test_gen_tree_valid(runner, tmp_path):
    out = tmp_path / "tree.json"
    res = runner.invoke(main, ["gen", "tree", "--height", "2", "--sigma", "1.5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    p = prog.load_program(out)
    assert p.r == 8
    assert prog.validate(p) == []


def test_gen_baseline(runner, tmp_path):
    out = tmp_path / "base.json"
    res = runner.invoke(main, ["gen", "baseline", "--rounds", "3", "--sigma", "2", "--out", str(out)])
    assert res.exit_code == 0
    assert prog.load_program(out).r == 3


def test_gen_mf_identity_reveals_inputs(runner, tmp_path):
    mat = tmp_path / "c.csv"
    mat.write_text("rows,band,precision_bits\n3,1,0\n1\n1\n1\n")
    out = tmp_path / "mf.json"
    res = runner.invoke(main, ["gen", "mf", "--matrix", str(mat), "--sigma", "0", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [
        "run", "--program", str(out), "--n", "3", "--seed", "5", "--check-ideal",
        "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    rows = _read_csv(tmp_path / "reveals.csv")
    # reveal i equals the cohort sum stored at round 2i-1 (identity factor)
    assert len(rows) == 4


def test_bench_default_grid_and_baseline_column(runner, tmp_path):
    out = tmp_path / "bench.csv"
    plot = tmp_path / "plot.csv"
    t0 = time.monotonic()
    res = runner.invoke(main, [
        "bench", "--n-list", "1000", "--l-list", "1000,100000",
        "--out", str(out), "--plot-data", str(plot),
    ])
    elapsed = time.monotonic() - t0
    assert res.exit_code == 0, res.output
    assert elapsed < 10.0
    rows = _read_csv(out)
    assert rows[0] == ["n", "l", "N", "logq", "pf", "client_comm_bytes", "expansion"]
    assert len(rows) == 3
    prow = _read_csv(plot)
    assert prow[0] == ["n", "l", "client_bytes", "cleartext_bytes"]
    for r in prow[1:]:
        assert int(r[3]) == int(r[1]) * 2  # 16-bit entries in the clear


def test_bench_nine_cells_matches_table_shape(runner, tmp_path):
    out = tmp_path / "bench9.csv"
    res = runner.invoke(main, ["bench", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = _read_csv(out)
    assert len(rows) == 10
    # first cell is the known (n=1000, l=1000) point
    assert rows[1][:5] == ["1000", "1000", "2048", "44", "1"]
    assert rows[1][5] == "16764"


def test_params_row_one(runner):
    res = CliRunner().invoke(main, ["params", "--n", "1000", "--l", "1000", "--limbs"])
    assert res.exit_code == 0, res.output
    assert "logq         44" in res.output
    assert "16.76 KB" in res.output
    assert "limbs" in res.output


def test_params_infeasible(runner):
    res = CliRunner().invoke(main, ["params", "--n", "10000000", "--l", "1000", "--input-bits", "400"])
    assert res.exit_code == 1
    assert "infeasible" in res.output


def test_params_deterministic(runner):
    a = CliRunner().invoke(main, ["params", "--n", "100000", "--l", "100000"])
    b = CliRunner().invoke(main, ["params", "--n", "100000", "--l", "100000"])
    assert a.output == b.output and a.exit_code == 0


def test_run_with_inputs_csv(runner, tmp_path):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=2, ell=2)
    inputs = tmp_path / "inputs.csv"
    rows = ["round,client,v0,v1"]
    for i in (1, 2):
        for j in (0, 1):
            rows.append(f"{i},{j},{10 * i + j},{j}")
    inputs.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "2", "--seed", "6",
        "--inputs", str(inputs), "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 0, res.output
    out = _read_csv(tmp_path / "reveals.csv")
    # total sum: rounds 1-2, clients 0-1: v0 = 10+11+20+21, v1 = 0+1+0+1
    assert out[1] == ["2", "62", "2"]


def _write_inputs_csv(path: Path, r, n, ell, value=lambda i, j, k: 7 * i + 3 * j + k):
    rows = ["round,client," + ",".join(f"v{k}" for k in range(ell))]
    for i in range(1, r + 1):
        for j in range(n):
            rows.append(f"{i},{j}," + ",".join(str(value(i, j, k)) for k in range(ell)))
    path.write_text("\n".join(rows) + "\n")


def _run_inputs(runner, ppath, inputs, n, out):
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", str(n), "--seed", "9",
        "--inputs", str(inputs), "--check-ideal", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    assert "reference check: ok" in res.output
    return (out / "reveals.csv").read_bytes()


def test_inputs_csv_loads_int64_with_the_object_reveals(runner, tmp_path, monkeypatch):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=3, ell=4)
    inputs = tmp_path / "inputs.csv"
    _write_inputs_csv(inputs, 3, 3, 4)
    p = prog.load_program(str(ppath))
    data = _load_inputs_csv(str(inputs), p, 3)
    assert data.dtype == np.int64 and data.shape == (3, 3, 4)
    assert data[2, 1, 3] == 7 * 3 + 3 * 1 + 3
    (tmp_path / "int64").mkdir()
    got = _run_inputs(runner, ppath, inputs, 3, tmp_path / "int64")
    monkeypatch.setattr(
        cli, "_load_inputs_csv", lambda *a: _load_inputs_csv(*a).astype(object)
    )
    (tmp_path / "object").mkdir()
    assert got == _run_inputs(runner, ppath, inputs, 3, tmp_path / "object")


def test_inputs_csv_beyond_int64_falls_back_to_python_ints(runner, tmp_path):
    # T is a power of two no larger than 2^64, so 2^64 + v reveals as v does.
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=2, ell=3)
    small, big = tmp_path / "small.csv", tmp_path / "big.csv"
    _write_inputs_csv(small, 2, 2, 3)
    _write_inputs_csv(big, 2, 2, 3, lambda i, j, k: 7 * i + 3 * j + k + (2**64 if j == 1 else 0))
    p = prog.load_program(str(ppath))
    data = _load_inputs_csv(str(big), p, 2)
    assert data.dtype == object and data[0, 1, 0] == 2**64 + 10
    (tmp_path / "small").mkdir()
    (tmp_path / "big").mkdir()
    want = _run_inputs(runner, ppath, small, 2, tmp_path / "small")
    assert _run_inputs(runner, ppath, big, 2, tmp_path / "big") == want


@pytest.mark.parametrize("row, why", [
    ("0,0,1,2", "round 0, client 0 not in 1..2, 0..1"),
    ("1,-1,1,2", "round 1, client -1 not in 1..2, 0..1"),
    ("3,0,1,2", "round 3, client 0 not in 1..2, 0..1"),
    ("1,0,5", "1 values, expected 2"),
    ("1,0,1,2,3", "3 values, expected 2"),
    ("1,1,5,6", "round 1, client 1 already on line 2"),
], ids=[
    "round-0", "client-minus-1", "round-above-r", "one-value", "values-beyond-ell", "duplicate",
])
def test_run_malformed_inputs_row_exits_2(runner, tmp_path, row, why):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=2, ell=2)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text(f"round,client,v0,v1\n1,1,3,4\n{row}\n")
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "2", "--seed", "6",
        "--inputs", str(inputs), "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 2, res.output
    assert f"line 3: {why}" in res.output


@pytest.mark.parametrize("rounds, n, why", [
    ([], 2, "round count r=0"),
    ([{"mode": "reveal", "input": "data"}], 0, "cohort size n=0"),
], ids=["no-rounds", "no-clients"])
def test_run_zero_count_exits_2_naming_it(runner, tmp_path, rounds, n, why):
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"l": 1, "rounds": rounds}))
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", str(n), "--seed", "1", "--out", str(tmp_path),
    ])
    assert res.exit_code == 2
    assert why in res.output


def test_run_program_with_modulus_key_exits_2(runner, tmp_path):
    # The run would ignore it: moduli come from the parameter set.
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath, r=2, ell=2)
    ppath.write_text(json.dumps({**json.loads(ppath.read_text()), "modulus": "97"}))
    res = runner.invoke(main, ["run", "--program", str(ppath), "--seed", "1", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "'modulus'" in res.output


def test_run_packed_gaussian_program_exits_2(runner, tmp_path):
    prog_file = tmp_path / "t.json"
    res = runner.invoke(main, [
        "gen", "tree", "--height", "2", "--sigma", "2.0", "--l", "8", "--out", str(prog_file),
    ])
    assert res.exit_code == 0, res.output
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"pf": 2}))
    res = runner.invoke(main, [
        "run", "--program", str(prog_file), "--n", "4", "--seed", "1",
        "--params", str(pfile), "--out", str(tmp_path),
    ])
    assert res.exit_code == 2
    assert "packing (pf=2) needs nonnegative inputs" in res.output
    assert "Gaussian rule of round 1" in res.output


def test_run_empty_cohort_exits_2(runner, tmp_path):
    # An explicit d skips the committee sizing that refuses n = 0 on its own.
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"d": 4}))
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "0", "--seed", "1",
        "--params", str(pfile), "--out", str(tmp_path),
    ])
    assert res.exit_code == 2, res.output
    assert "n=0" in res.output
    assert not (tmp_path / "reveals.csv").exists()


def test_run_empty_cohort_under_dropout_names_the_cohort(runner, tmp_path):
    # With n = 0, d = 4 gives h = 0 and t = 1; the empty cohort is named
    # before the committees.
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"d": 4}))
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "0", "--beta", "0.5", "--seed", "1",
        "--params", str(pfile), "--out", str(tmp_path),
    ])
    assert res.exit_code == 2, res.output
    assert "n=0" in res.output and "t <= h" not in res.output


def test_run_params_sized_for_fewer_rounds_exits_2(runner, tmp_path):
    # A tree of height 2 has 8 rounds; a set sized for r = 1 would flood
    # with sigma_n 9.05 instead of 19.2 and pick d = 31 instead of 33.
    prog_file = tmp_path / "t.json"
    res = runner.invoke(main, [
        "gen", "tree", "--height", "2", "--l", "4", "--out", str(prog_file),
    ])
    assert res.exit_code == 0, res.output
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"r": 1}))
    res = runner.invoke(main, [
        "run", "--program", str(prog_file), "--n", "8", "--seed", "7",
        "--params", str(pfile), "--check-ideal", "--out", str(tmp_path),
    ])
    assert res.exit_code == 2, res.output
    assert "program has 8 rounds, but params are sized for r=1" in res.output
    assert not (tmp_path / "reveals.csv").exists()


def _packed_reveal_run(runner, tmp_path, params, rows):
    """`run` of a one-round reveal of l = 4 by n = 4 clients of 4-bit
    inputs, with the given params file and --inputs rows."""
    ppath = tmp_path / "reveal.json"
    ppath.write_text(json.dumps({"l": 4, "rounds": [{"mode": "reveal", "input": "data"}]}))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(params))
    ipath = tmp_path / "in.csv"
    ipath.write_text("".join(row + "\n" for row in ["round,client,v0,v1,v2,v3", *rows]))
    return runner.invoke(main, [
        "run", "--program", str(ppath), "--n", "4", "--input-bits", "4", "--seed", "1",
        "--params", str(pfile), "--inputs", str(ipath), "--check-ideal", "--out", str(tmp_path),
    ])


def test_run_packed_input_wider_than_input_bits_exits_2(runner, tmp_path):
    # 63 does not fit 4 bits: its packed lane carried, and the run wrote
    # 60, 7, 4, 4 where the reference reveals 252, 4, 4, 4.
    rows = [f"1,{j},63,1,1,1" for j in range(4)]
    res = _packed_reveal_run(runner, tmp_path, {"pf": 2}, rows)
    assert res.exit_code == 2, res.output
    assert "round 1, client 0: data value 63" in res.output
    assert not (tmp_path / "reveals.csv").exists()
    res = _packed_reveal_run(runner, tmp_path, {"pf": 2}, [f"1,{j},15,1,1,1" for j in range(4)])
    assert res.exit_code == 0, res.output
    assert _read_csv(tmp_path / "reveals.csv")[1] == ["1", "60", "4", "4", "4"]


def test_run_packed_slot_width_override_below_need_exits_2(runner, tmp_path):
    # Four 4-bit inputs need 4 + 2 bits per lane.
    rows = [f"1,{j},15,1,1,1" for j in range(4)]
    res = _packed_reveal_run(runner, tmp_path, {"pf": 2, "slot_width": 5}, rows)
    assert res.exit_code == 2, res.output
    assert "slot_width=5 is below the 6 bits" in res.output


@pytest.mark.parametrize(
    "field", ["single_committee", "self_mask_reveal", "kappa", "sigma", "limbs", "delta_links"]
)
def test_run_params_naming_removed_field_exits_2(runner, tmp_path, field):
    # Recovery has one committee per client, chaperone-released masks and
    # 128-bit seeds, the encryption noise width is params.SIGMA, the limbs
    # follow from N and logq, and d is sized for params.DELTA_LINKS; a
    # parameter file asking for anything else is rejected.
    prog_file = tmp_path / "t.json"
    res = runner.invoke(main, [
        "gen", "tree", "--height", "2", "--sigma", "0", "--l", "2", "--out", str(prog_file),
    ])
    assert res.exit_code == 0, res.output
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({field: 1}))
    res = runner.invoke(main, [
        "run", "--program", str(prog_file), "--n", "4", "--seed", "1",
        "--params", str(pfile), "--out", str(tmp_path),
    ])
    assert res.exit_code == 2
    assert "bad parameters" in res.output
    assert field in res.output


# SHA-256 of reveals.csv from `run --check-ideal --seed 1234`, recorded when
# the synthetic inputs were still built as object arrays of Python ints.
SYNTH_REVEALS = {
    "sum": "740f3ee28bb0612b54cd5f8ff1d7c9c863cb0a9fd626be8a79d7cb1cb13120da",
    "tree": "84cf248447f93b573719efb3c5290bd41b2699d43e59ffd23d061f4129fdd14a",
    "dropout": "2633a91ad834e57c67235ccc58c67870220678389d21ecb065f03bba8c5fa6aa",
}


@pytest.mark.parametrize("case", sorted(SYNTH_REVEALS))
def test_run_check_ideal_reveals_on_synthetic_inputs_are_pinned(runner, tmp_path, case):
    ppath = tmp_path / "prog.json"
    if case == "tree":
        res = runner.invoke(main, [
            "gen", "tree", "--out", str(ppath), "--sigma", "2.0", "--l", "6", "--height", "2",
        ])
        assert res.exit_code == 0, res.output
        extra = ["--n", "4"]
    elif case == "sum":
        _write_sum_program(ppath, r=4, ell=5)
        extra = ["--n", "5", "--input-bits", "12"]
    else:
        _write_sum_program(ppath, r=4, ell=5)
        extra = ["--n", "6", "--beta", "0.2"]
    res = runner.invoke(main, [
        "run", "--program", str(ppath), "--seed", "1234", "--check-ideal", "--out", str(tmp_path),
    ] + extra)
    assert res.exit_code == 0, res.output
    assert "reference check: ok" in res.output
    digest = hashlib.sha256((tmp_path / "reveals.csv").read_bytes()).hexdigest()
    assert digest == SYNTH_REVEALS[case]


def test_synth_inputs_are_int64():
    p = prog.Program(ell=3, rounds=[prog.Instruction.make(prog.STORE, prog.InputRule.data())])
    data = _synth_inputs(p, 4, 20, seed=5)
    assert data.dtype == np.int64 and data.shape == (1, 4, 3)
    assert 0 <= data.min() and data.max() < 2**20


def _bad_mf_matrix(tmp_path, ppath):
    return ["gen", "mf", "--matrix", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "mf.json")]


def _run_with(flag, value):
    def args(tmp_path, ppath):
        return ["run", "--program", str(ppath), "--n", "4", "--seed", "1",
                "--out", str(tmp_path), flag, value(tmp_path)]
    return args


def _headerless_inputs(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("1,0,5,5\n")
    return str(path)


@pytest.mark.parametrize("args, why", [
    (_run_with("--params", lambda tmp_path: str(tmp_path / "nope.json")), "cannot read params file"),
    (_run_with("--inputs", _headerless_inputs), "must start with columns round,client"),
    (_run_with("--dropout-schedule", lambda tmp_path: str(tmp_path / "nope.json")),
     "cannot load dropout schedule"),
    (_bad_mf_matrix, "cannot load matrix"),
    (lambda tmp_path, ppath: ["bench", "--n-list", "8,x"], "comma-separated integers"),
], ids=["params", "inputs-header", "dropout-schedule", "matrix", "n-list"])
def test_unreadable_cli_inputs_exit_2(runner, tmp_path, args, why):
    ppath = tmp_path / "sum.json"
    _write_sum_program(ppath)
    res = runner.invoke(main, args(tmp_path, ppath))
    assert res.exit_code == 2, res.output
    assert why in res.output
