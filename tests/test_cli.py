"""End-to-end command-line behavior and exit codes."""

import errno
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from corpus import CM1, build_corpus

from rampsched import (SampledProfile, cli, costmodel, oracle, pmp,
                       synth_duck_curve, write_csv)
from rampsched.cli import build_parser, main
from rampsched.pmp import SOLUTION_CSV_HEADER

MACHINE_CFG = """\
name = antminer-s21
demand_w = 5360
hashrate_ths = 335
income_usd_day = 15
elec_cost = 0.1
price_usd = 7400
lifespan_years = 2
k = 0.0014
count = 2853
d = 1
"""


@pytest.fixture()
def machine_cfg(tmp_path):
    path = tmp_path / "machine1.cfg"
    path.write_text(MACHINE_CFG)
    return str(path)


@pytest.fixture()
def plant_net_csv(tmp_path):
    out = tmp_path / "synth"
    code = main(["synth", "--base", "8000", "--evening-peak", "3000",
                 "--pv-peak", "9000", "--out", str(out)])
    assert code == 0
    return str(out / "duck_net.csv")


def test_synth_writes_profiles(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--base", "100", "--evening-peak", "50",
                 "--pv-peak", "120", "--out", str(out)]) == 0
    assert (out / "duck_profiles.csv").exists()
    assert (out / "duck_net.csv").exists()
    header = (out / "duck_profiles.csv").read_text().splitlines()[0]
    assert header == "timestamp,load_kw,pv_kw"


def test_synth_rejects_bad_params(tmp_path):
    code = main(["synth", "--base", "-5", "--evening-peak", "0",
                 "--pv-peak", "0", "--out", str(tmp_path / "x")])
    assert code == 1


def test_solve_end_to_end(tmp_path, machine_cfg, plant_net_csv):
    out = tmp_path / "run"
    code = main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(out)])
    assert code == 0
    assert (out / "solution.csv").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["periodic_residual"] <= 1e-8
    assert diag["alpha_used"] == 1e4
    assert "objective_breakdown" in diag


def test_solve_single_stage_schedule(tmp_path, machine_cfg, plant_net_csv):
    out = tmp_path / "run1"
    code = main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--alpha-schedule", "1", "--out", str(out)])
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["alpha_used"] == 1.0


def test_solve_malformed_csv_names_line(tmp_path, machine_cfg, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,load_kw\n0,1.0\n900,oops\n1800,2.0\n2700,3.0\n")
    code = main(["solve", "--load", str(bad), "--machine", machine_cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 3: non-numeric cell 'oops' in column 'load_kw'\n")


@pytest.mark.parametrize("bad_input", ["load", "machine", "solution"])
def test_input_error_names_the_bad_file(tmp_path, machine_cfg, plant_net_csv,
                                        capsys, bad_input):
    """With two file inputs, an error reading one starts with its path."""
    cfg, net, run = machine_cfg, plant_net_csv, tmp_path / "run"
    diagnostics = str(run / "diagnostics.json")
    assert main(["solve", "--load", net, "--machine", cfg,
                 "--out", str(run)]) == 0
    capsys.readouterr()
    argv, bad, message = {
        "load": (["solve", "--load", cfg, "--machine", cfg], cfg,
                 "line 1: unknown column 'name = antminer-s21'"),
        "machine": (["solve", "--load", net, "--machine", net], net,
                    "line 1: expected 'key = value', got 'timestamp,load_kw'"),
        "solution": (["econ", "--machine", cfg, "--solution", diagnostics],
                     diagnostics, "line 2: expected 1 fields, got 2"),
    }[bad_input]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("line,key,old,value", [(10, "d", "1", "nan"),
                                                (8, "k", "0.0014", "inf")])
def test_solve_non_finite_config_value_is_input_error(
        tmp_path, plant_net_csv, capsys, line, key, old, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MACHINE_CFG.replace(f"\n{key} = {old}\n",
                                       f"\n{key} = {value}\n"))
    code = main(["solve", "--load", plant_net_csv, "--machine", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line {line}: value '{value}' for "
                          f"'{key}' is not finite")


def test_solve_non_finite_timestamp_is_input_error(tmp_path, machine_cfg,
                                                   capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,load_kw\n0,1.0\n900,2.0\nnan,3.0\n2700,4.0\n")
    code = main(["solve", "--load", str(bad), "--machine", machine_cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: line 4: non-finite timestamp 'nan'")


def test_econ_non_finite_price_is_input_error(tmp_path, machine_cfg,
                                              plant_net_csv, capsys):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--alpha-schedule", "1", "--out", str(run)]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MACHINE_CFG.replace("price_usd = 7400", "price_usd = nan"))
    out = tmp_path / "econ"
    code = main(["econ", "--machine", str(cfg), "--solution", str(run),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {cfg}: line 6: value 'nan' for 'price_usd' is not finite")
    assert not out.exists()


def test_solve_rejects_price_column(tmp_path, machine_cfg, capsys):
    priced = tmp_path / "priced.csv"
    priced.write_text("timestamp,load_kw,price_usd_kwh\n"
                      + "".join(f"{i * 900},100.0,0.2\n" for i in range(96)))
    out = tmp_path / "o"
    code = main(["solve", "--load", str(priced), "--machine", machine_cfg,
                 "--out", str(out)])
    assert code == 1
    assert "unknown column 'price_usd_kwh'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_missing_file_is_input_error(tmp_path, machine_cfg):
    code = main(["solve", "--load", str(tmp_path / "nope.csv"),
                 "--machine", machine_cfg, "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--load", "{dir}", "--machine", "{cfg}", "--out", "{out}"],
    ["econ", "--machine", "{dir}", "--solution", "{run}", "--out", "{out}"],
    ["solve", "--load", "{csv}", "--machine", "{cfg}", "--out", "{file}"],
], ids=["load_is_dir", "machine_is_dir", "out_is_file"])
def test_os_error_is_input_error(tmp_path, machine_cfg, plant_net_csv, capsys,
                                 argv):
    """An input path that names a directory, or an --out path that names
    a file, exits 1 with one error line and writes nothing."""
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("taken\n")
    paths = {"dir": tmp_path / "a_dir", "cfg": machine_cfg, "run": run,
             "out": tmp_path / "out", "csv": plant_net_csv,
             "file": tmp_path / "a_file"}
    before = {p: p.read_bytes() if p.is_file() else None
              for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("argv,spacing", [
    (["synth", "--base", "8000", "--evening-peak", "3000", "--pv-peak",
      "9000", "--n", "1000000000000000000000000"], "dt=2.4e-23 h"),
    (["solve", "--load", "{csv}", "--machine", "{cfg}", "--n",
      "1000000000000000000000000"], "new_dt=2.4e-23 h"),
    (["oracle-check", "--load", "{csv}", "--machine", "{cfg}", "--n",
      "1000000000000000000000000"], "new_dt=2.4e-23 h"),
    (["oracle-check", "--load", "{csv}", "--machine", "{cfg}", "--n", "86401"],
     "new_dt=0.0002777745627944121 h"),
    (["solve", "--load", "{csv}", "--machine", "{cfg}", "--n", "1" + "0" * 400],
     "new_dt=1.335044315104321e-307 h"),
], ids=["synth_n", "solve_n", "oracle_n_1e24", "oracle_n_86401",
        "solve_n_past_float_range"])
def test_absurd_grid_is_input_error(tmp_path, machine_cfg, plant_net_csv,
                                    capsys, argv, spacing):
    """A grid of more than one node per second of the day exits 1 with
    one error line naming the spacing, before any grid is allocated,
    and writes nothing."""
    out = tmp_path / "out"
    capsys.readouterr()
    argv = [a.format(csv=plant_net_csv, cfg=machine_cfg) for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {spacing} is finer than one node per second: "
                   "the 24 h period holds at most 86400 nodes"]
    assert not out.exists()


def test_solve_is_byte_deterministic(tmp_path, machine_cfg, plant_net_csv):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["solve", "--load", plant_net_csv, "--machine",
                     machine_cfg, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("solution.csv", "diagnostics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_oracle_check_passes_on_plant_scenario(tmp_path, machine_cfg,
                                               plant_net_csv):
    out = tmp_path / "check"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["within_tolerance"] is True
    assert doc["objective_gap_rel"] <= 0.005
    assert (out / "oracle_solution.csv").exists()
    assert (out / "oracle_diagnostics.json").exists()


def test_oracle_check_prices_its_solution_once(tmp_path, machine_cfg,
                                               plant_net_csv, monkeypatch):
    """The solver's draw goes through the objective once, and
    comparison.json's objective_solver_usd is that breakdown's
    generation + ramping - revenue, as `discretize_objective` sums it."""
    priced = []
    objective = pmp._objective

    def counted(load, m, cm, pm, baseline=None):
        priced.append(pm.tobytes())
        return objective(load, m, cm, pm, baseline)

    monkeypatch.setattr(pmp, "_objective", counted)
    out = tmp_path / "check"
    assert main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--out", str(out)]) == 0
    draw = pmp.read_solution_csv(out / "solution.csv")["pm_kw"][:-1]
    assert priced.count(draw.tobytes()) == 1
    terms = json.loads((out / "diagnostics.json").read_text())[
        "objective_breakdown"]
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["objective_solver_usd"] == (
        terms["generation_usd"] + terms["ramping_usd"] - terms["revenue_usd"])


def test_oracle_check_gap_exit_code(tmp_path, machine_cfg, plant_net_csv):
    out = tmp_path / "check3"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--obj-tol", "1e-18",
                 "--pm-tol", "1e-18", "--out", str(out)])
    assert code == 3
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["within_tolerance"] is False


def test_oracle_check_fails_when_oracle_not_converged(
        tmp_path, machine_cfg, plant_net_csv, monkeypatch):
    monkeypatch.setattr(oracle, "_TOL_GRAD_FRACTION", -1.0)
    out = tmp_path / "check4"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--out", str(out)])
    assert code == 3
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["within_tolerance"] is False
    assert doc["objective_gap_rel"] <= 0.005


def test_oracle_check_exit_code_when_oracle_fails(
        tmp_path, machine_cfg, plant_net_csv, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_MAX_STEPS_PER_NODE", 0)
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--out", str(tmp_path / "c")])
    assert code == 3
    err = capsys.readouterr().err
    assert "oracle error: active set not settled after 0 steps" in err


def test_oracle_check_warm_start_keeps_cold_verifier_bits(tmp_path):
    """On a binding input, oracle-check's verifier starts from the
    solver's draw: fewer steps, the cold start's solution byte for byte."""
    sc = build_corpus(48)["trough_touch"]
    load, cfg = tmp_path / "load.csv", tmp_path / "machine.cfg"
    write_csv(load, load=sc.load)
    cfg.write_text(MACHINE_CFG.replace("count = 2853", "count = 30")
                   .replace("d = 1", f"d = 4\ng_override = {CM1 / 480.0!r}"))
    out = tmp_path / "check"
    assert main(["oracle-check", "--load", str(load), "--machine", str(cfg),
                 "--alpha-schedule", ",".join(map(repr, sc.alpha_schedule)),
                 "--out", str(out)]) == 0
    cold = oracle.solve_active_set(sc)
    assert (out / "oracle_solution.csv").read_bytes() \
        == oracle.oracle_to_csv(cold, sc).encode()
    doc = json.loads((out / "comparison.json").read_text())
    assert 1 <= doc["oracle_iterations"] < cold.iterations
    assert doc["oracle_grad_norm"] == cold.grad_norm
    assert doc["objective_oracle_usd"] == cold.objective


def test_oracle_check_rejects_too_few_nodes(tmp_path, machine_cfg,
                                            plant_net_csv, capsys):
    out = tmp_path / "c"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "0", "--out", str(out)])
    assert code == 1
    assert "error: --n must be >= 4, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--obj-tol", "--pm-tol"])
def test_oracle_check_rejects_negative_tolerance(tmp_path, machine_cfg,
                                                 plant_net_csv, capsys, flag):
    out = tmp_path / "c"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", flag, "-1", "--out", str(out)])
    assert code == 1
    assert f"error: {flag} must be >= 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


def test_divergence_reports_initial_state(tmp_path, capsys):
    load = tmp_path / "flat.csv"
    load.write_text("timestamp,load_kw\n"
                    + "".join(f"{i * 900},100.0\n" for i in range(96)))
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(MACHINE_CFG.replace("count = 2853", "count = 20")
                   .replace("d = 1", "d = 1e-9\ng_override = 1e-6"))
    code = main(["solve", "--load", str(load), "--machine", str(cfg),
                 "--alpha-schedule", "1e12", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "integration diverged" in err
    assert "initial state (x, lambda) = (207.2, 0.0)" in err


def test_divergence_above_resolvable_alpha_names_limit(tmp_path,
                                                       plant_net_csv, capsys):
    cfg = tmp_path / "undersized.cfg"
    cfg.write_text(MACHINE_CFG.replace("count = 2853", "count = 1898"))
    code = main(["solve", "--load", plant_net_csv, "--machine", str(cfg),
                 "--alpha-schedule", "10000", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "integration diverged: non-finite state at t = 0.25 h" in err
    assert ("the requested alpha 10000 is above 124.1, the largest alpha "
            "that dt = 0.25 h resolves; initial state (x, lambda) = "
            "(11964.285714285714, 0.0)") in err


def test_econ_breakeven_prints_price(capsys):
    assert main(["breakeven", "--daily-profit", "5"]) == 0
    assert capsys.readouterr().out == "6497\n"


def test_breakeven_refuses_a_price_past_float_range(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["breakeven", "--daily-profit", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the break-even price for a daily profit "
                            "of 1e+308 is not finite\n")
    assert list(tmp_path.iterdir()) == []


def test_econ_report_from_solution(tmp_path, machine_cfg, plant_net_csv):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--alpha-schedule", "1", "--out", str(run)]) == 0
    out = tmp_path / "econ"
    code = main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "econ_report.json").read_text())
    assert doc["msrp_per_day"] == pytest.approx(10.14, abs=0.01)
    assert doc["gross_mining"] > 0.0
    assert (out / "econ_report.txt").exists()


def test_econ_solution_is_read_only(tmp_path, machine_cfg, plant_net_csv):
    """Every column read back from a solution CSV refuses writes, so the
    solution `econ --solution` prices is immutable like `solve`'s."""
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    cols = pmp.read_solution_csv(run / "solution.csv")
    assert list(cols) == SOLUTION_CSV_HEADER.split(",")
    args = build_parser().parse_args(
        ["econ", "--machine", machine_cfg, "--solution", str(run)])
    sol, _ = cli._scenario_from_solution(args, costmodel.load_config(machine_cfg))
    for col in (*cols.values(), sol.x_traj, sol.lambda_traj, sol.u_traj,
                sol.pm_traj, sol.pm_clipped):
        assert not col.flags.writeable


def test_solve_reports_rk4_passes(tmp_path, machine_cfg, plant_net_csv):
    out = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    # the constant start is the fixed point: one residual pass, no solve
    assert diag["newton_iters"] == 0
    assert diag["rk4_passes"] == 1


def test_solve_reports_stop_below_final_alpha(tmp_path, plant_net_csv, capsys):
    # 1898 machines is 0.85x the fleet that holds the constant optimum
    cfg = tmp_path / "undersized.cfg"
    cfg.write_text(MACHINE_CFG.replace("count = 2853", "count = 1898"))
    out = tmp_path / "run"
    code = main(["solve", "--load", plant_net_csv, "--machine", str(cfg),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "not converged: the penalty acts at alpha 100; the requested "
        "alpha 10000 is above 124.1, the largest alpha that dt = 0.25 h "
        "resolves\n")
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is False and diag["alpha_used"] == 100.0
    assert 0.0 < diag["box_violation_frac"] <= 0.01
    assert diag["box_violation_kw"] == pytest.approx(
        diag["box_violation_frac"] * 1898 * 5.36, rel=1e-12)


def test_long_binding_arc_fails_with_residual_diagnosis(tmp_path, capsys):
    """ROADMAP item 1: 1117 machines is 0.5x the fleet that holds the
    constant optimum; on the one-minute grid the box binds over a long arc
    and Newton stalls at the final alpha.  The solve says so in one line."""
    synth = tmp_path / "synth"
    assert main(["synth", "--base", "8000", "--evening-peak", "3000",
                 "--pv-peak", "9000", "--n", "1440", "--out", str(synth)]) == 0
    cfg = tmp_path / "half.cfg"
    cfg.write_text(MACHINE_CFG.replace("count = 2853", "count = 1117"))
    out = tmp_path / "run"
    capsys.readouterr()
    code = main(["solve", "--load", str(synth / "duck_net.csv"),
                 "--machine", str(cfg), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "not converged: residual 1.12e+03 after 50 Newton iterations "
        "at alpha 10000\n")
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is False
    assert diag["newton_iters"] == 50 and diag["alpha_used"] == 10000.0


def test_econ_reads_diagnostics_without_rk4_passes(tmp_path, machine_cfg,
                                                   plant_net_csv):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0

    def econ_report(tag):
        out = tmp_path / tag
        assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                     "--out", str(out)]) == 0
        return (out / "econ_report.json").read_bytes()
    new = econ_report("new")
    diag_path = run / "diagnostics.json"
    diag = json.loads(diag_path.read_text())
    for key in ("rk4_passes", "box_violation_kw", "box_violation_frac"):
        del diag[key]  # older files lack these
    diag_path.write_text(json.dumps(diag))
    assert econ_report("old") == new


def test_econ_reads_diagnostics_with_stationarity_residual(
        tmp_path, machine_cfg, plant_net_csv):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0

    def econ_report(tag):
        out = tmp_path / tag
        assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                     "--out", str(out)]) == 0
        return (out / "econ_report.json").read_bytes()
    new = econ_report("new")
    diag_path = run / "diagnostics.json"
    diag = json.loads(diag_path.read_text())
    assert "stationarity_residual" not in diag
    diag["stationarity_residual"] = 0.0  # older files carry it
    diag_path.write_text(json.dumps(diag))
    assert econ_report("old") == new


HEADER = SOLUTION_CSV_HEADER + "\n"


@pytest.mark.parametrize("name,text,message", [
    ("solution.csv", "", "line 1: expected the header"),
    ("solution.csv", HEADER + "0,1,2,3,4,5,6\n0.25,1,2\n",
     "line 3: expected 7 fields, got 3"),
    ("solution.csv", HEADER + "0,1,2,3,4,5,6\n0.25,1,2,3,oops,5,6\n",
     "line 3: non-numeric cell"),
    ("solution.csv", HEADER + "0,1,2,3,4,5,6\n",
     "line 2: solution CSV needs at least 5 rows (4 nodes and t = T), got 1"),
    ("solution.csv", HEADER + "".join(f"{t},1,2,3,4,5,6\n"
                                      for t in (0.0, 6.0, 12.0, 18.0)),
     "line 5: solution CSV needs at least 5 rows (4 nodes and t = T), got 4"),
    ("solution.csv", HEADER + "".join(f"{t},1,2,3,4,5,{pl}\n" for t, pl in (
        (0.0, 6), (6.0, 6), (12.0, -5.0), (18.0, 6), (24.0, 6))),
     "line 4: negative value -5.0 in column 'pl_kw'"),
    ("solution.csv", HEADER + "0,1,2,3,4,5,6\n\n0.25,1,2,3,nan,5,6\n",
     "line 4: non-finite cell 'nan' in column 'pm_kw'"),
    ("solution.csv", HEADER + "".join(f"{t},1,2,3,4,5,6\n" for t in (
        0.0, 6.0, 12.0, 18.0)) + "24.0,12345,2,3,4,5,6\n",
     "line 6: the t = T row must repeat row 0: column 'x_kw' holds 12345.0, "
     "row 0 holds 1.0"),
    ("diagnostics.json", "{}", "missing key 'converged'"),
    ("diagnostics.json", "{\"converged\": tru", "not valid JSON"),
    ("diagnostics.json", "[]", "expected a JSON object"),
    ("diagnostics.json", json.dumps(
        {"converged": True, "periodic_residual": 0.0,
         "stationarity_residual": 0.0, "newton_iters": 0,
         "alpha_used": None}),
     "bad value: expected a finite number, got None"),
    ("diagnostics.json", json.dumps(
        {"converged": "false", "periodic_residual": 0.0,
         "stationarity_residual": 0.0, "newton_iters": 0,
         "alpha_used": 1.0}), "expected true or false, got 'false'"),
], ids=["empty-csv", "short-row", "non-numeric-cell", "one-row",
        "three-nodes", "negative-pl", "nan-cell", "t-T-row", "empty-object",
        "bad-json", "not-object", "bad-value", "string-bool"])
def test_econ_rejects_malformed_solution(tmp_path, machine_cfg, plant_net_csv,
                                         capsys, name, text, message):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--alpha-schedule", "1", "--out", str(run)]) == 0
    capsys.readouterr()
    (run / name).write_text(text)
    out = tmp_path / "econ"
    code = main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / name}: ") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("newton_iters", 2.7, "expected an integer, got 2.7"),
    ("newton_iters", True, "expected an integer, got True"),
    ("rk4_passes", 3.0, "expected an integer, got 3.0"),
    ("alpha_used", "100", "expected a finite number, got '100'"),
    ("alpha_used", False, "expected a finite number, got False"),
    ("periodic_residual", "nan", "expected a finite number, got 'nan'"),
    ("periodic_residual", float("nan"), "expected a finite number, got nan"),
    ("alpha_used", 10 ** 400, "int too large to convert to float"),
    ("newton_iters", -5, "expected a value >= 0, got -5"),
    ("rk4_passes", -7, "expected a value >= 0, got -7"),
    ("periodic_residual", -1.0, "expected a value >= 0, got -1.0"),
    ("alpha_used", -1, "expected a value >= 0, got -1.0")],
    ids=["float-iters", "bool-iters", "float-passes", "string-alpha",
         "bool-alpha", "string-nan", "json-nan", "huge-alpha",
         "negative-iters", "negative-passes", "negative-residual",
         "negative-alpha"])
def test_econ_rejects_mistyped_diagnostics(tmp_path, machine_cfg,
                                           plant_net_csv, capsys, key, value,
                                           message):
    """diagnostics.json values are read as JSON typed them: int() and
    float() would turn 2.7 into 2, true into 1 and "100" into 100.0.  No
    solve writes a negative number."""
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    path = run / "diagnostics.json"
    diag = json.loads(path.read_text())
    diag[key] = value
    path.write_text(json.dumps(diag))
    out = tmp_path / "econ"
    assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: bad value: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_econ_reads_integral_float_values(tmp_path, machine_cfg,
                                          plant_net_csv):
    """A float key may hold any finite JSON number, an integer included."""
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    path = run / "diagnostics.json"
    diag = json.loads(path.read_text())
    assert diag["alpha_used"] == 1e4 and isinstance(diag["alpha_used"], float)
    reports = []
    for tag in ("float", "int"):
        out = tmp_path / tag
        assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                     "--out", str(out)]) == 0
        reports.append((out / "econ_report.json").read_bytes())
        diag["alpha_used"] = int(diag["alpha_used"])
        path.write_text(json.dumps(diag))
    assert reports[0] == reports[1]


def test_econ_rejects_solution_times_off_the_grid(tmp_path, machine_cfg,
                                                  plant_net_csv, capsys):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    csv = run / "solution.csv"
    header, *rows = csv.read_text().splitlines()
    for k in range(2, len(rows)):  # every time after data row 2, times 7
        t, rest = rows[k].split(",", 1)
        rows[k] = f"{7.0 * float(t)!r},{rest}"
    csv.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "econ"
    assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {csv}: line 4: t_h 3.5 is off the uniform grid")
    assert not out.exists()


def test_econ_projection_flat_with_zero_slopes(tmp_path, machine_cfg):
    trend = tmp_path / "price.csv"
    trend.write_text("share_pct,value\n10,40\n20,40\n30,40\n")
    out = tmp_path / "proj"
    code = main(["project", "--machine", machine_cfg, "--years", "6",
                 "--price-trend", str(trend), "--share0", "10",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "projection.csv").read_text().splitlines()[1:]
    nets = [float(r.split(",")[1]) for r in rows]
    assert len(nets) == 6
    assert len(set(nets)) == 1


def test_econ_projection_share_stays_at_or_above_zero(tmp_path, machine_cfg):
    trend = tmp_path / "price.csv"
    trend.write_text("share_pct,value\n10,40\n20,46\n30,51\n")
    out = tmp_path / "proj"
    code = main(["project", "--machine", machine_cfg, "--years", "4",
                 "--price-trend", str(trend), "--share0", "10",
                 "--share-per-year", "-6", "--out", str(out)])
    assert code == 0
    rows = (out / "projection.csv").read_text().splitlines()[1:]
    mining = [float(r.split(",")[2]) for r in rows]
    # shares 4, 0, 0, 0: the price, and so mining, stop moving at 0 %
    assert mining[0] != mining[1] == mining[2] == mining[3]


def test_econ_projection_rejects_non_finite_price(tmp_path, machine_cfg,
                                                  capsys):
    trend = tmp_path / "price.csv"
    trend.write_text("share_pct,value\n10,40\n20,nan\n30,50\n")
    out = tmp_path / "proj"
    code = main(["project", "--machine", machine_cfg, "--years", "3",
                 "--price-trend", str(trend), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {trend}: line 3: non-finite cell 'nan' in column 'value'")
    assert not (out / "projection.csv").exists()


@pytest.mark.parametrize("rows,message", [
    (["10,40"], "need at least two (share, price) points"),
    (["10,40", "10,46"], "all shares identical; line fit is degenerate")],
    ids=["one-row", "one-share"])
def test_project_names_a_trend_file_with_no_line(tmp_path, machine_cfg,
                                                 capsys, rows, message):
    trend = tmp_path / "price.csv"
    trend.write_text("\n".join(["share_pct,value", *rows]) + "\n")
    out = tmp_path / "proj"
    code = main(["project", "--machine", machine_cfg, "--years", "3",
                 "--price-trend", str(trend), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {trend}: {message}\n"
    assert not out.exists()


def test_econ_projection_requires_trend(tmp_path, machine_cfg, capsys):
    code = main(["project", "--machine", machine_cfg, "--years", "6",
                 "--out", str(tmp_path / "p")])
    assert code == 1
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --price-trend\n")
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("extra,message", [
    (["--machine", "CFG", "--solution", "run", "--fleet-count", "100"],
     "run/solution.csv: pm_clipped_kw spans 964.286 to 11964.3 kW, outside "
     "[0, 536] kW for 100 machines"),
    (["--solution", "run"],
     "the following arguments are required: --machine")],
    ids=["fleet-below-draw", "no-machine"])
def test_econ_input_error_writes_nothing(tmp_path, machine_cfg, plant_net_csv,
                                         capsys, monkeypatch, extra, message):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", "run"]) == 0
    (tmp_path / "price.csv").write_text("share_pct,value\n10,40\n20,46\n"
                                        "30,51\n")
    capsys.readouterr()
    argv = [machine_cfg if arg == "CFG" else arg for arg in extra]
    assert main(["econ", *argv, "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n") and err.count("error:") == 1
    assert not (tmp_path / "out").exists()


def test_econ_accepts_solution_of_a_smaller_fleet(tmp_path, machine_cfg,
                                                  plant_net_csv):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--fleet-count", "2854", "--out", str(tmp_path / "e")]) == 0


def test_econ_projection_pinned(tmp_path, machine_cfg, plant_net_csv):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    price = tmp_path / "price.csv"
    price.write_text("share_pct,value\n10,40\n20,46\n30,51\n45,60\n")
    out = tmp_path / "proj"
    assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--out", str(out)]) == 0
    assert main(["project", "--machine", machine_cfg, "--solution", str(run),
                 "--years", "4", "--price-trend", str(price),
                 "--share0", "12", "--share-per-year", "3",
                 "--out", str(out)]) == 0
    text = (out / "projection.csv").read_text()
    saved = json.loads((out / "econ_report.json").read_text())["ramping_saved"]
    # the saving `econ` reports for the same solution, every year
    assert [float(row.split(",")[3]) for row in text.splitlines()[1:]] \
        == [saved] * 4
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2e6fdd90bcf738b418ce2e5052b344affa8ed0e9de55c1f073d06b629a6d929d"


# a run of each econ command that succeeds in the `econ_inputs` directory
ECON_ARGV = {
    "econ": ["--machine", "machine1.cfg", "--solution", "run",
             "--fleet-count", "2853", "--attribution", "marginal",
             "--format", "json"],
    "project": ["--machine", "machine1.cfg", "--solution", "run",
                "--years", "4", "--price-trend", "price.csv",
                "--share0", "12", "--share-per-year", "3",
                "--profit-a", "14", "--profit-b", "0.1",
                "--fleet-count", "2853"],
    "breakeven": ["--daily-profit", "5"]}
# every flag of the three commands, with a value it accepts
ECON_FLAG_VALUES = {
    "--machine": "machine1.cfg", "--solution": "run", "--fleet-count": "3000",
    "--attribution": "average", "--format": "table", "--out": "out",
    "--years": "3", "--price-trend": "price.csv", "--share0": "10",
    "--share-per-year": "2", "--profit-a": "3", "--profit-b": "0.2",
    "--daily-profit": "3"}
# the flags each command reads
ECON_FLAGS = {
    "econ": {"--machine", "--solution", "--fleet-count", "--attribution",
             "--format", "--out"},
    "project": {"--machine", "--price-trend", "--years", "--solution",
                "--fleet-count", "--share0", "--share-per-year",
                "--profit-a", "--profit-b", "--out"},
    "breakeven": {"--daily-profit"}}


def _econ_outputs(tmp_path, capsys, command, argv, tag) -> dict:
    """stdout and the bytes of every file of one run of `command`."""
    out = tmp_path / tag
    if command != "breakeven":  # it only prints
        argv = [*argv, "--out", str(out)]
    assert main([command, *argv]) == 0
    outputs = {"stdout": capsys.readouterr().out.encode()}
    for path in out.iterdir() if out.exists() else ():
        outputs[path.name] = path.read_bytes()
    return outputs


@pytest.fixture()
def econ_inputs(tmp_path, machine_cfg, plant_net_csv, capsys, monkeypatch):
    """In the working directory: the machine config machine1.cfg, the
    same machine at a higher price in machine2.cfg, a solved run, a run
    of a 5 % larger load and two price trends."""
    monkeypatch.chdir(tmp_path)
    for run, extra in (("run", []), ("run1", ["--load-scale", "1.05"])):
        assert main(["solve", "--load", plant_net_csv, "--machine",
                     machine_cfg, "--out", run, *extra]) == 0
    (tmp_path / "machine2.cfg").write_text(
        MACHINE_CFG.replace("price_usd = 7400", "price_usd = 8000"))
    (tmp_path / "price.csv").write_text("share_pct,value\n10,40\n20,46\n")
    (tmp_path / "price1.csv").write_text("share_pct,value\n10,40\n20,47\n")
    capsys.readouterr()


DROP_CASES = [
    ("project", "--price-trend", "price1.csv", "projection.csv"),
    ("project", "--share0", "20", "projection.csv"),
    ("project", "--share-per-year", "5", "projection.csv"),
    ("project", "--profit-a", "15", "projection.csv"),
    ("project", "--profit-b", "0.2", "projection.csv"),
    ("project", "--solution", "run1", "projection.csv"),
    ("project", "--fleet-count", "3000", "projection.csv"),
    ("project", "--years", "5", "projection.csv"),
    ("project", "--machine", "machine2.cfg", "projection.csv"),
    ("econ", "--attribution", "average", "econ_report.json"),
    ("econ", "--format", "table", "stdout"),
    ("econ", "--solution", "run1", "econ_report.json"),
    ("econ", "--fleet-count", "3000", "econ_report.json"),
    ("econ", "--machine", "machine2.cfg", "econ_report.json"),
    ("breakeven", "--daily-profit", "6", "stdout")]


@pytest.mark.parametrize("command,flag,value,output", DROP_CASES,
                         ids=["-".join(case[1:]) for case in DROP_CASES])
def test_econ_drops_no_input(tmp_path, capsys, econ_inputs, command, flag,
                             value, output):
    """Each input of each econ command changes the output that reads it."""
    argv = list(ECON_ARGV[command])
    base = _econ_outputs(tmp_path, capsys, command, argv, "base")
    argv[argv.index(flag) + 1] = value
    assert _econ_outputs(tmp_path, capsys, command, argv, "other")[output] \
        != base[output]


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in ECON_FLAGS for flag in ECON_FLAG_VALUES
    if flag not in ECON_FLAGS[command]])
def test_econ_commands_refuse_flags_they_do_not_read(tmp_path, capsys,
                                                     econ_inputs, command,
                                                     flag):
    """Each econ command defines only the flags its job reads: any other
    is argparse's usage error, which prints and writes nothing."""
    before = {p: p.read_bytes() if p.is_file() else None
              for p in tmp_path.rglob("*")}
    value = ECON_FLAG_VALUES[flag]
    assert main([command, *ECON_ARGV[command], flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: unrecognized arguments: {flag} {value}\n")
    assert "Traceback" not in captured.err
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == before


def test_project_fleet_count_requires_solution(tmp_path, capsys,
                                               econ_inputs):
    """Without a solution the projection's saving is 0, so a fleet size
    would be read by nothing."""
    argv = list(ECON_ARGV["project"])
    del argv[argv.index("--solution"):argv.index("--solution") + 2]
    assert main(["project", *argv, "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --fleet-count requires --solution\n"
    assert not (tmp_path / "out").exists()


def test_econ_has_no_ramp_trend(tmp_path, capsys, econ_inputs):
    assert main(["project", *ECON_ARGV["project"], "--ramp-trend",
                 "price.csv", "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --ramp-trend price.csv" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("years", ["0", "101", str(10 ** 12)])
def test_econ_projection_horizon_is_bounded(tmp_path, capsys, econ_inputs,
                                            years):
    """Each projection year is a row, so a horizon past 100 years is an
    input error before any row is built, and nothing is printed."""
    argv = list(ECON_ARGV["project"])
    argv[argv.index("--years") + 1] = years
    assert main(["project", *argv, "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --years must be within 1 to 100, got {years}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("share0", ["-0.5", "150"])
def test_project_share0_is_a_percentage(tmp_path, capsys, econ_inputs, share0):
    """The refusal names the flag, not the library's keyword."""
    argv = list(ECON_ARGV["project"])
    argv[argv.index("--share0") + 1] = share0
    assert main(["project", *argv, "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --share0 must be within [0, 100], got {share0}\n")
    assert not (tmp_path / "out").exists()


def test_econ_help_names_the_horizon(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "projection years, 1 to 100" in text and "ramp-trend" not in text


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--n", "nan"), ("solve", "--tol-bc", "nan"),
    ("solve", "--alpha-schedule", "1,nan,100"),
    ("oracle-check", "--obj-tol", "nan"),
    ("breakeven", "--daily-profit", "nan"),
    ("solve", "--n", "abc"), ("synth", "--n", "0"),
    ("solve", "--load-scale", "abc"), ("oracle-check", "--obj-tol", "abc")])
def test_bad_number_is_input_error(tmp_path, machine_cfg, plant_net_csv,
                                   capsys, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    scenario = ["--load", plant_net_csv, "--machine", machine_cfg]
    args = {"solve": [*scenario, "--out", str(out)],
            "oracle-check": [*scenario, "--out", str(out)],
            "breakeven": [],  # it writes no file
            "synth": ["--base", "1", "--evening-peak", "1", "--pv-peak", "1",
                      "--out", str(out)]}
    before = sorted(tmp_path.iterdir())
    assert main([command, *args[command], flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and value in errors[0]
    assert sorted(tmp_path.iterdir()) == before


def test_one_process_serves_many_requests(tmp_path, machine_cfg,
                                          plant_net_csv, capsys):
    """The parser is built once; a usage error and other commands between
    two identical oracle-checks leave their outputs byte-identical."""
    assert build_parser() is build_parser()
    scenario = ["--load", plant_net_csv, "--machine", machine_cfg]
    requests = [
        (["oracle-check", *scenario, "--n", "48", "--out", str(tmp_path / "a")], 0),
        (["solve", *scenario, "--no-such-flag"], 1),
        (["solve", *scenario, "--out", str(tmp_path / "run")], 0),
        (["econ", "--machine", machine_cfg, "--solution", str(tmp_path / "run"),
          "--out", str(tmp_path / "econ")], 0),
        (["oracle-check", *scenario, "--n", "48", "--out", str(tmp_path / "b")], 0),
    ]
    for argv, code in requests:
        assert main(argv) == code, argv
    capsys.readouterr()
    for name in ("comparison.json", "oracle_solution.csv", "solution.csv",
                 "diagnostics.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


@pytest.mark.parametrize("fault", ["lone_surrogate", "os_write_raises"])
def test_failed_atomic_write_keeps_target_and_leaves_no_temp(tmp_path,
                                                             monkeypatch, fault):
    target = tmp_path / "solution.csv"
    target.write_bytes(b"old bytes\n")
    text = "t_h\n0.0\n"
    if fault == "lone_surrogate":
        text += "\ud800\n"
        error = UnicodeEncodeError
    else:
        def failing_write(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(cli.os, "write", failing_write)
        error = OSError
    with pytest.raises(error):
        cli._write_atomic(target, text)
    assert [path.name for path in tmp_path.iterdir()] == ["solution.csv"]
    assert target.read_bytes() == b"old bytes\n"


def test_atomic_write_completes_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(cli.os, "write",
                        lambda fd, data: real_write(fd, data[:3]))
    text = "t_h,x_kw\n0.0,-0.0\nµ\n"
    cli._write_atomic(tmp_path / "a.csv", text)
    assert (tmp_path / "a.csv").read_bytes() == text.encode()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--alpha-schedule" in capsys.readouterr().out



def test_cli_outputs_pinned(tmp_path, machine_cfg, capsys):
    """sha256 of every file and of stdout of each command on the
    criterion-10 fixture: the CLI's outputs stay byte-identical."""
    scenario = ["--load", str(tmp_path / "synth" / "duck_net.csv"),
                "--machine", machine_cfg]
    runs = {
        "synth": ["synth", "--base", "8000", "--evening-peak", "3000",
                  "--pv-peak", "9000"],
        "solve": ["solve", *scenario],
        "solve_json": ["solve", *scenario, "--format", "json"],
        "econ": ["econ", "--machine", machine_cfg, "--solution",
                 str(tmp_path / "solve"), "--format", "table"],
        "oracle": ["oracle-check", *scenario, "--n", "48"],
    }
    digests = {}
    for tag, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / tag)]) == 0
        out = capsys.readouterr().out.encode()
        digests[f"{tag}/stdout"] = hashlib.sha256(out).hexdigest()
        for path in sorted((tmp_path / tag).iterdir()):
            digests[f"{tag}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert digests == {
        "synth/stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "synth/duck_net.csv":
            "0de1da99694dad10ebd7ffb1fda31772f29471a1bbfba31fb21d5345dc171a48",
        "synth/duck_profiles.csv":
            "a15d804cfc686062348c1f4dda0b7c45263e6ce3cadbbda2c8bd74eb3c2a55ef",
        "solve/stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "solve/diagnostics.json":
            "36b6328f13feaa027e0423645edc49fb8a6931beeda528fadb136ce1dda3c9e9",
        "solve/solution.csv":
            "9c0af127f66ca60d6f7ca47ffba28ee9fda55e05f6514577f1ca7a25d0dba552",
        "solve_json/stdout":
            "36b6328f13feaa027e0423645edc49fb8a6931beeda528fadb136ce1dda3c9e9",
        "solve_json/diagnostics.json":
            "36b6328f13feaa027e0423645edc49fb8a6931beeda528fadb136ce1dda3c9e9",
        "solve_json/solution.csv":
            "9c0af127f66ca60d6f7ca47ffba28ee9fda55e05f6514577f1ca7a25d0dba552",
        "econ/stdout":
            "2e5e2850a52fbf5917f2a41a6eca2aea127a8861bf6beaea242a2dddab9246cc",
        "econ/econ_report.json":
            "55297f1037095a1150467156b72324d43a4191e302dac2692de1db5eb3298e2c",
        "econ/econ_report.txt":
            "2e5e2850a52fbf5917f2a41a6eca2aea127a8861bf6beaea242a2dddab9246cc",
        "oracle/stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "oracle/comparison.json":
            "894a87000c1fb9f02f81ff56c49f0142e4bf25c9874a3820a2eff15b595a1a51",
        "oracle/diagnostics.json":
            "40d66390c5b95165ec06dc744f54c577b873d6198deee98cd6d1b36a1314e8dc",
        "oracle/oracle_diagnostics.json":
            "9aabc72eb1e6042bfb07f034a46173ec4936a4f07ade25699a5c42a3e06575a3",
        "oracle/oracle_solution.csv":
            "d1a72bae86ce64ee1d62efa3a92ae5f495dcae6e8e3f3543735d04fc81cec2c3",
        "oracle/solution.csv":
            "ec515771a97e192db02ce2765b9aa6d9bf3d451f14ff5c0fc27b3ce61b43180e",
    }


def test_solve_n_writes_what_oracle_check_n_writes(tmp_path, machine_cfg,
                                                   plant_net_csv):
    """--n is one grid flag: solve --n 48 writes the solution files that
    oracle-check --n 48 pins in `test_cli_outputs_pinned`."""
    out = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--n", "48", "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("diagnostics.json", "solution.csv")} == {
        "diagnostics.json":
            "40d66390c5b95165ec06dc744f54c577b873d6198deee98cd6d1b36a1314e8dc",
        "solution.csv":
            "ec515771a97e192db02ce2765b9aa6d9bf3d451f14ff5c0fc27b3ce61b43180e",
    }


def test_synth_n_sets_the_grid(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--base", "8000", "--evening-peak", "3000",
                 "--pv-peak", "9000", "--n", "1440", "--out", str(out)]) == 0
    load, pv, net = synth_duck_curve(8000, 3000, 9000, dt=24 / 1440)
    for name, columns in (("duck_profiles.csv", {"load": load, "pv": pv}),
                          ("duck_net.csv", {"load": net})):
        buf = io.StringIO()
        write_csv(buf, **columns)
        assert (out / name).read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("command", ["synth", "solve", "oracle-check"])
def test_too_few_nodes_is_input_error(tmp_path, machine_cfg, plant_net_csv,
                                      capsys, command):
    args = {"synth": ["--base", "1", "--evening-peak", "1", "--pv-peak", "1"],
            "solve": ["--load", plant_net_csv, "--machine", machine_cfg],
            "oracle-check": ["--load", plant_net_csv, "--machine", machine_cfg]}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *args[command], "--n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --n must be >= 4, got 3\n"
    assert not out.exists()


def test_solve_nets_pv_out_of_the_load(tmp_path, machine_cfg, plant_net_csv):
    """load_kw and pv_kw columns solve to the bytes of their net load."""
    synth = Path(plant_net_csv).parent
    runs = {}
    for name in ("duck_net.csv", "duck_profiles.csv"):
        out = tmp_path / name.removesuffix(".csv")
        assert main(["solve", "--load", str(synth / name), "--machine",
                     machine_cfg, "--out", str(out)]) == 0
        runs[name] = [(out / f).read_bytes()
                      for f in ("solution.csv", "diagnostics.json")]
    assert runs["duck_profiles.csv"] == runs["duck_net.csv"]


def test_load_without_load_column_is_input_error(tmp_path, machine_cfg,
                                                 capsys):
    csv = tmp_path / "pv.csv"
    write_csv(csv, pv=SampledProfile(1.0, np.full(24, 100.0)))
    assert csv.read_text().startswith("timestamp,pv_kw\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["solve", "--load", str(csv), "--machine", machine_cfg,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {csv}: no load_kw column\n"
    assert not out.exists()


def test_oracle_check_names_a_stopped_solve_once(tmp_path, plant_net_csv,
                                                 capsys):
    cfg = tmp_path / "undersized.cfg"
    cfg.write_text(MACHINE_CFG.replace("count = 2853", "count = 1898"))
    out = tmp_path / "c"
    capsys.readouterr()
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 str(cfg), "--n", "48", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["not converged",
                                                    "verification gap"]
    assert err[0].startswith("not converged: the penalty acts at alpha 10; ")
    assert json.loads((out / "diagnostics.json").read_text())["converged"] is False
