"""Command-line driver for simulated runs, program generation, benchmarks,
and parameter selection.

Exit codes: 0 success, 1 runtime failure (quorum loss, reference mismatch),
2 bad usage or unreadable input files.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import dp, dropout, ideal, params, program, protocol
from .prng import ctx_rng

def _fail(code: int, msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Simulator for round-based secure aggregation with encrypted state."""


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _load_param_overrides(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot read params file {path}: {exc}")


def _synth_inputs(p: program.Program, n: int, input_bits: int, seed: int) -> np.ndarray:
    """Deterministic per-client data vectors in [0, 2^input_bits)."""
    data = np.empty((p.r, n, p.ell), dtype=np.int64)
    for i in range(1, p.r + 1):
        for j in range(n):
            rng = ctx_rng(seed, "synth-input", i, j)
            data[i - 1, j] = rng.integers(0, 2**input_bits, size=p.ell)
    return data


def _load_inputs_csv(path: str, p: program.Program, n: int) -> np.ndarray:
    """(r, n, ell) inputs from rows round,client,v0,...,v(ell-1) with round
    in 1..r and client in 0..n-1: int64 where every value fits, Python ints
    otherwise.  Raises ValueError naming the first malformed line, or both
    lines of a (round, client) given twice."""
    rows: dict[tuple[int, int], tuple[int, list[int]]] = {}  # (round, client) -> line, values
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        if header[:2] != ["round", "client"]:
            raise ValueError("inputs csv must start with columns round,client")
        for row in rdr:
            line = f"{path} line {rdr.line_num}"
            if len(row) != 2 + p.ell:
                raise ValueError(f"{line}: {len(row) - 2} values, expected {p.ell}")
            i, j, *vals = (int(v) for v in row)
            if not (1 <= i <= p.r and 0 <= j < n):
                raise ValueError(f"{line}: round {i}, client {j} not in 1..{p.r}, 0..{n - 1}")
            if (i, j) in rows:
                raise ValueError(f"{line}: round {i}, client {j} already on line {rows[i, j][0]}")
            rows[i, j] = rdr.line_num, vals
    for dtype in (np.int64, object):
        data = np.zeros((p.r, n, p.ell), dtype=dtype)
        try:
            for (i, j), (_, vals) in rows.items():
                data[i - 1, j] = vals
        except OverflowError:
            continue
        return data


@main.command("run")
@click.option("--program", "program_path", required=True, help="Program JSON file.")
@click.option("--n", "n", type=int, default=8, show_default=True, help="Cohort size.")
@click.option("--gamma", type=float, default=0.0, show_default=True, help="Corrupt fraction bound.")
@click.option("--beta", type=float, default=0.0, show_default=True, help="Dropout fraction bound.")
@click.option("--seed", type=int, required=True, help="Run seed (mandatory for reproducibility).")
@click.option("--dropout-schedule", "schedule_path", default=None, help="JSON {\"rounds\": {\"2\": [0, 7]}}.")
@click.option("--check-ideal", is_flag=True, help="Run the reference functionality side by side.")
@click.option("--params", "params_path", default=None, help="JSON file of parameter overrides.")
@click.option("--inputs", "inputs_path", default=None, help="Input CSV (round,client,v0,...).")
@click.option("--input-bits", type=int, default=8, show_default=True, help="Synthetic input width.")
@click.option("--out", "out_dir", default=".", show_default=True, help="Output directory.")
def cmd_run(program_path, n, gamma, beta, seed, schedule_path, check_ideal,
            params_path, inputs_path, input_bits, out_dir):
    """Simulate a program; write reveals.csv and transcript.csv."""
    try:
        p = program.load_program(program_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot load program: {exc}")
    overrides = _load_param_overrides(params_path)
    schedule = None
    if schedule_path:
        try:
            doc = json.loads(Path(schedule_path).read_text())
            schedule = {int(k): frozenset(int(x) for x in v) for k, v in doc["rounds"].items()}
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            _fail(2, f"cannot load dropout schedule: {exc}")
    tables = program.compose_all(p)
    base = dict(
        n=n, r=p.r, ell=p.ell, input_bits=input_bits, gamma=gamma, beta=beta,
        stats=program.reveal_stats(p, tables),
        dp_sigma=max((ins.rule.variance for ins in p.rounds), default=0.0) ** 0.5,
    )
    base.update(overrides)
    try:
        protocol.check_packing(p, base.get("pf", 1), tables)  # names the round
        pset = params.make_paramset(**base)
    except (TypeError, ValueError) as exc:
        _fail(2, f"bad parameters: {exc}")
    try:
        data = (
            _load_inputs_csv(inputs_path, p, n)
            if inputs_path
            else _synth_inputs(p, n, input_bits, seed)
        )
    except (OSError, ValueError) as exc:
        _fail(2, f"cannot load inputs: {exc}")

    use_dropout = schedule is not None or beta > 0
    try:
        if use_dropout:
            if schedule is None:
                schedule = dropout.random_schedule(pset, p.r, seed)
            result, _diag = dropout.run_dropout_protocol(
                p, pset, schedule, data_inputs=data, seed=seed
            )
        else:
            schedule = {}
            result = protocol.run_protocol(p, pset, data_inputs=data, seed=seed)
    except dropout.QuorumError as exc:
        _fail(1, f"unrecoverable round: {exc}")
    except protocol.ProtocolError as exc:
        _fail(1, str(exc))
    except ValueError as exc:
        _fail(2, f"bad configuration: {exc}")

    if check_ideal:
        inputs = ideal.materialize_inputs(p, data, n, protocol.run_noise_seed(seed), gamma)
        if schedule:
            inputs = dropout.survivor_inputs(inputs, schedule)
        ref = ideal.evaluate_program(p, inputs, pset.T)
        if len(ref.reveals) != len(result.reveals) or any(
            r1 != r2 or any(int(a) != int(b) for a, b in zip(v1, v2))
            for (r1, v1), (r2, v2) in zip(result.reveals, ref.reveals)
        ):
            _fail(1, "reveal mismatch against the reference functionality")
        click.echo("reference check: ok")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "reveals.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round"] + [f"v{k}" for k in range(p.ell)])
        for rnd, vec in result.reveals:
            w.writerow([rnd] + [int(v) for v in vec])
    with open(out / "transcript.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "c2s_bytes", "c2c_bytes", "dropped_count"])
        for row in result.transcript.rows:
            w.writerow([row.round, int(row.c2s_bytes), int(row.c2c_bytes), row.dropped])
    click.echo(f"wrote {out / 'reveals.csv'} and {out / 'transcript.csv'}")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


@main.command("gen")
@click.argument("kind", type=click.Choice(["tree", "mf", "baseline"]))
@click.option("--out", "out_path", required=True, help="Program JSON destination.")
@click.option("--sigma", type=float, default=0.0, show_default=True, help="Noise stddev per release.")
@click.option("--l", "ell", type=int, default=1, show_default=True, help="Vector length.")
@click.option("--height", type=int, default=2, help="Tree height (tree).")
@click.option("--rounds", type=int, default=4, help="Data rounds (baseline/mf).")
@click.option("--matrix", "matrix_path", default=None, help="Banded matrix CSV (mf).")
@click.option("--band", type=int, default=2, help="Band width for a generated matrix (mf).")
@click.option("--precision-bits", type=int, default=12, show_default=True, help="Matrix precision (mf).")
@click.option("--matrix-seed", type=int, default=0, help="Seed for a generated matrix (mf).")
@click.option("--save-matrix", default=None, help="Also write the matrix CSV used (mf).")
def cmd_gen(kind, out_path, sigma, ell, height, rounds, matrix_path, band,
            precision_bits, matrix_seed, save_matrix):
    """Generate a DP aggregation program."""
    if kind == "tree":
        p = dp.tree_program(height, sigma, ell=ell)
    elif kind == "baseline":
        p = dp.baseline_program(rounds, sigma, ell=ell)
    else:
        if matrix_path:
            try:
                c = dp.load_banded(matrix_path)
            except (OSError, ValueError) as exc:
                _fail(2, f"cannot load matrix: {exc}")
        else:
            c = dp.random_banded(rounds, band, precision_bits, ctx_rng(matrix_seed, "gen-mf"))
        if save_matrix:
            dp.save_banded(c, save_matrix)
        p = dp.mf_program(c, sigma, ell=ell)
    errs = program.validate(p)
    if errs:
        _fail(1, "generated program failed validation: " + "; ".join(errs))
    program.save_program(p, out_path)
    click.echo(f"wrote {out_path} ({p.r} instructions, l={p.ell})")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@main.command("bench")
@click.option("--n-list", default="1000,100000,10000000", show_default=True)
@click.option("--l-list", default="1000,100000,10000000", show_default=True)
@click.option("--rounds", type=int, default=1000, show_default=True)
@click.option("--input-bits", type=int, default=16, show_default=True)
@click.option("--out", "out_path", default=None, help="CSV destination (default stdout only).")
@click.option("--plot-data", "plot_path", default=None, help="Vector-length sweep CSV.")
def cmd_bench(n_list, l_list, rounds, input_bits, out_path, plot_path):
    """Parameter grid over (n, l); one row per cell, benchmark-table layout."""
    try:
        ns = [int(v) for v in n_list.split(",") if v]
        ls = [int(v) for v in l_list.split(",") if v]
    except ValueError:
        _fail(2, "n-list and l-list must be comma-separated integers")

    def cell(n, ell):
        ps = params.grid_search(n, ell, rounds, input_bits)
        cost = ps.cost()
        return (n, ell, ps.N, ps.logq, ps.pf, cost.client_server_bytes, cost.expansion)

    rows = [cell(n, ell) for n in ns for ell in ls]

    header = ["n", "l", "N", "logq", "pf", "client_comm_bytes", "expansion"]
    click.echo("  ".join(f"{h:>12}" for h in header + ["formatted"]))
    for n, ell, N, logq, pf, bytes_, exp in rows:
        click.echo(
            f"{n:>12}  {ell:>12}  {N:>12}  {logq:>12}  {pf:>12}  "
            f"{int(bytes_):>12}  {exp:>12.2f}  {params.format_bytes(bytes_):>12}"
        )
    if out_path:
        with open(out_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for n, ell, N, logq, pf, bytes_, exp in rows:
                w.writerow([n, ell, N, logq, pf, int(bytes_), f"{exp:.2f}"])
        click.echo(f"wrote {out_path}")
    if plot_path:
        with open(plot_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "l", "client_bytes", "cleartext_bytes"])
            for n, ell, _N, _lq, _pf, bytes_, _e in rows:
                w.writerow([n, ell, int(bytes_), ell * input_bits // 8])
        click.echo(f"wrote {plot_path}")


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


@main.command("params")
@click.option("--n", type=int, required=True)
@click.option("--l", "ell", type=int, required=True)
@click.option("--rounds", type=int, default=1000, show_default=True)
@click.option("--input-bits", type=int, default=16, show_default=True)
@click.option("--dp-sigma", type=float, default=0.0, show_default=True)
@click.option("--limbs/--no-limbs", default=False, help="Also print the modulus limb split.")
def cmd_params(n, ell, rounds, input_bits, dp_sigma, limbs):
    """Pick and print parameters for a deployment setting."""
    try:
        ps = params.grid_search(n, ell, rounds, input_bits, dp_sigma)
    except ValueError as exc:
        _fail(1, f"infeasible setting: {exc}")
    cost = ps.cost()
    click.echo(f"N            {ps.N}")
    click.echo(f"logq         {ps.logq}")
    click.echo(f"packing      {ps.pf}")
    click.echo(f"slot_width   {ps.slot_width}")
    click.echo(f"plaintext    2^{ps.pf * ps.slot_width}")
    click.echo(f"sigma        {params.SIGMA}")
    click.echo(f"sigma_s      {ps.sigma_s:.4f}")
    click.echo(f"sigma_n      {ps.sigma_n:.4f}")
    click.echo(f"d            {ps.d}")
    click.echo(f"h, t         {ps.h}, {ps.t}")
    click.echo(f"client->server  {params.format_bytes(cost.client_server_bytes)}")
    fanout = min(ps.d, ps.n)
    click.echo(f"peer piece   {params.format_bytes(cost.piece_bytes)} to <= {fanout} receivers")
    click.echo(f"expansion    {cost.expansion:.2f}x")
    if limbs:
        click.echo(f"limbs        {list(ps.ring().limbs)}")


if __name__ == "__main__":
    main()
