"""End-to-end command-line behavior and exit codes."""

import codecs
import errno
import hashlib
import io
import itertools
import json
import logging
import os
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from corpus import CM1, build_corpus

from rampsched import (cli, costmodel, econ, oracle, pmp,
                       synth_duck_curve, write_csv)
from rampsched.cli import build_parser, main
from rampsched.pmp import SOLUTION_CSV_HEADER

# A real run prints numpy's RuntimeWarnings on stderr, ahead of the one
# line a test reads through capsys; here they fail the test instead.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def no_warning_records():
    """Fail a test during which a rampsched logger emits a warning.

    pytest's log capture keeps `main` from adding the stderr handler a
    real run prints these records through, so capsys never sees them."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("rampsched")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)
    assert not [r.getMessage() for r in records]


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


def _cfg(**values) -> str:
    """MACHINE_CFG with each given key set: in its line, or appended."""
    keys = dict(line.split(" = ") for line in MACHINE_CFG.splitlines())
    return "".join(f"{k} = {v}\n" for k, v in {**keys, **values}.items())


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


def test_oracle_check_exit_code_when_oracle_cycles(
        tmp_path, machine_cfg, plant_net_csv, monkeypatch, capsys):
    """The verifier's free-block solves put every node at +10 Pbar, then
    -10 Pbar, in turn: one line names the cycle, and nothing is written."""
    pbar = costmodel.fleet_from_config(
        costmodel.load_config(machine_cfg)).pbar_kw
    signs = itertools.cycle((10.0, -10.0))
    monkeypatch.setattr(oracle, "_cyclic_thomas", lambda lo, di, up, r: np.full(
        len(di), next(signs) * pbar))
    out = tmp_path / "c"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr() == (
        "", "verification failed: oracle error: active-set cycling after "
            "3 steps\n")
    assert not out.exists()


def test_econ_of_a_read_back_solution_builds_no_interior_pass(
        tmp_path, machine_cfg, plant_net_csv):
    """A solution read back from disk is priced from the day's data: its
    report leaves the day's interior pass unbuilt, though the solution
    is that pass."""
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    args = build_parser().parse_args(["econ", "--machine", machine_cfg,
                                      "--solution", str(run), "--out",
                                      str(tmp_path / "econ")])
    cfg = costmodel.load_config(machine_cfg)
    sol, sc = cli._scenario_from_solution(args, cfg)
    assert sol.newton_iters == 0
    econ.daily_report(sol, sc, costmodel.machine_from_config(cfg))
    assert "interior" not in vars(pmp._day(sc))


def test_oracle_check_warm_start_keeps_cold_verifier_bits(tmp_path):
    """On a binding input, oracle-check's verifier starts from the
    solver's draw: fewer steps, the cold start's solution byte for byte."""
    sc = build_corpus(48)["trough_touch"]
    load, cfg = tmp_path / "load.csv", tmp_path / "machine.cfg"
    write_csv(load, load=sc.load)
    cfg.write_text(_cfg(count=30, d=4, g_override=repr(CM1 / 480.0)))
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


def test_divergence_reports_initial_state(tmp_path, capsys):
    load = tmp_path / "flat.csv"
    load.write_text("timestamp,load_kw\n"
                    + "".join(f"{i * 900},100.0\n" for i in range(96)))
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(_cfg(count=20, d="1e-9", g_override="1e-6"))
    code = main(["solve", "--load", str(load), "--machine", str(cfg),
                 "--alpha-schedule", "1e12", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "not converged: integration diverged: non-finite state at t = 0.25 h; "
        "dt = 0.25 h resolves no penalty weight at g = 1e-06 and d = 1e-09; "
        "no grid of at most one node per second (--n 86400) resolves alpha "
        "1e+12; initial state (x, lambda) = (207.2, 0.0)\n")


def test_divergence_above_resolvable_alpha_names_limit(tmp_path,
                                                       plant_net_csv, capsys):
    cfg = tmp_path / "undersized.cfg"
    cfg.write_text(_cfg(count=1898))
    code = main(["solve", "--load", plant_net_csv, "--machine", str(cfg),
                 "--alpha-schedule", "10000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "not converged: integration diverged: non-finite state at t = 0.25 h; "
        "the requested alpha 10000 is above 124.1, the largest alpha that "
        "dt = 0.25 h resolves; initial state (x, lambda) = "
        "(11964.285714285714, 0.0)\n")


@pytest.mark.parametrize("schedule,n", [("1,10,100,1000,10000", 904),
                                        ("1", 273)])
def test_divergence_where_dt_resolves_no_weight_names_the_grid(
        tmp_path, plant_net_csv, capsys, schedule, n):
    """With (z*/dt)^2 d <= g no weight is resolved at dt; the line names
    the fewest nodes per period that resolve the requested one, and at
    one node fewer the limit is below it."""
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(_cfg(g_override="1000"))
    argv = ["solve", "--load", plant_net_csv, "--machine", str(cfg),
            "--alpha-schedule", schedule, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    alpha = schedule.split(",")[-1]
    assert capsys.readouterr().err == (
        "not converged: integration diverged: non-finite state at t = 0.25 h; "
        "dt = 0.25 h resolves no penalty weight at g = 1000 and d = 1; "
        f"--n {n} is the fewest nodes per period that resolve alpha {alpha}; "
        "initial state (x, lambda) = (5.830223880597014e-05, 0.0)\n")
    for nodes, resolved in ((n, True), (n - 1, False)):
        sc = cli._build_scenario(build_parser().parse_args(
            [*argv, "--n", str(nodes)]))
        assert (sc.cost.alpha < pmp.resolvable_alpha(sc)) is resolved


def test_econ_breakeven_prints_price(capsys):
    assert main(["breakeven", "--daily-profit", "5"]) == 0
    assert capsys.readouterr().out == "6497\n"


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
    cfg.write_text(_cfg(count=1898))
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
    cfg.write_text(_cfg(count=1117))
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
    (tmp_path / "machine2.cfg").write_text(_cfg(price_usd=8000))
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


def test_econ_help_names_the_horizon(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "projection years, 1 to 100" in text and "ramp-trend" not in text
    for default in ("[%], default 10.0", "default 0.0", "default 14.0",
                    "default 0.1"):
        assert default in text


def _diag(key, value):
    """An edit of diagnostics.json that sets one key."""
    return lambda text: json.dumps({**json.loads(text), key: value})


def _solution(edit):
    """An edit of solution.csv: `edit` changes its data rows, each a list
    of cells, in place."""
    def apply(text):
        header, *rows = text.splitlines()
        cells = [row.split(",") for row in rows]
        edit(cells)
        return "\n".join([header, *map(",".join, cells)]) + "\n"
    return apply


def _off_grid(rows):
    for row in rows[2:]:  # every time after data row 2, times 7
        row[0] = repr(7.0 * float(row[0]))


def _times_past_float_range(rows):
    rows[1][0] = "1e308"  # dt, so row 2's grid time leaves float range
    for row in rows[2:]:
        row[0] = "1.7e308"


def _huge_draw(rows):
    rows[1][SOLUTION_CSV_HEADER.split(",").index("pm_kw")] = "1e308"


HEADER = SOLUTION_CSV_HEADER + "\n"
SOLVE = "solve --load synth/duck_net.csv --machine machine1.cfg --out out"
ORACLE = SOLVE.replace("solve", "oracle-check")
SYNTH = "synth --base 8000 --evening-peak 3000 --pv-peak 9000 --out out"
ECON = "econ --machine machine1.cfg --solution run --out out"
PROJECT = "project --machine machine1.cfg --price-trend price.csv --years 3 " \
          "--out out"
GRID = "is finer than one node per second: the 24 h period holds at most " \
       "86400 nodes"
E24, E400 = "1" + "0" * 24, "1" + "0" * 400
MALFORMED = "test_econ_rejects_malformed_solution"
# Every refusal: (the test name it is reported under, argv run in the
# `econ_inputs` directory, the files it edits there first, each by its new
# text or a function of its old one, and the `error:` line's message)
REFUSALS = [
    # usage errors: unknown flag, missing flag or command, bad int,
    # non-finite float, out-of-range value, invalid choice
    ("test_refusal[no-command]",
     "", {}, "the following arguments are required: command"),
    ("test_refusal[unknown-command]",
     "bogus", {}, "argument command: invalid choice: "
     "'bogus' (choose from 'solve', 'oracle-check', 'econ', 'project', "
     "'breakeven', 'synth')"),
    ("test_refusal[solve-unknown-flag]", f"{SOLVE} --no-such-flag", {},
     "unrecognized arguments: --no-such-flag"),
    ("test_refusal[solve-no-machine]",
     "solve --load synth/duck_net.csv --out out", {},
     "the following arguments are required: --machine"),
    ("test_econ_input_error_writes_nothing[no-machine]",
     "econ --solution run --out out", {},
     "the following arguments are required: --machine"),
    ("test_econ_projection_requires_trend",
     "project --machine machine1.cfg --years 6 --out out",
     {}, "the following arguments are required: --price-trend"),
    ("test_refusal[solve-format-xml]",
     f"{SOLVE} --format xml", {}, "argument --format: "
     "invalid choice: 'xml' (choose from 'json', 'csv')"),
    ("test_refusal[econ-attribution-median]",
     f"{ECON} --attribution median", {},
     "argument --attribution: invalid choice: 'median' (choose from "
     "'marginal', 'average')"),
    ("test_econ_has_no_ramp_trend", f"{PROJECT} --ramp-trend price.csv", {},
     "unrecognized arguments: --ramp-trend price.csv"),
    *[(f"test_econ_commands_refuse_flags_they_do_not_read[{command}-{flag}]",
       " ".join([command, *ECON_ARGV[command], flag, ECON_FLAG_VALUES[flag]]),
       {}, f"unrecognized arguments: {flag} {ECON_FLAG_VALUES[flag]}")
      for command in ECON_FLAGS for flag in ECON_FLAG_VALUES
      if flag not in ECON_FLAGS[command]],
    ("test_bad_number_is_input_error[solve---n-abc]", f"{SOLVE} --n abc", {},
     "argument --n: invalid int value: 'abc'"),
    ("test_bad_number_is_input_error[solve---n-nan]", f"{SOLVE} --n nan", {},
     "argument --n: invalid int value: 'nan'"),
    ("test_bad_number_is_input_error[solve---fleet-count-1e400]",
     f"{SOLVE} --fleet-count {E400}", {},
     f"count must be a positive integer within float range, got {E400}"),
    # each refused in the flag's own name, not the library field's
    ("test_bad_number_is_input_error[solve---fleet-count-0]",
     f"{SOLVE} --fleet-count 0", {}, "argument --fleet-count: must be >= 1, got 0"),
    ("test_bad_number_is_input_error[solve---tol-bc-0]",
     f"{SOLVE} --tol-bc 0", {}, "argument --tol-bc: must be > 0, got 0"),
    ("test_bad_number_is_input_error[solve---alpha-schedule-10,1]",
     f"{SOLVE} --alpha-schedule 10,1", {},
     "argument --alpha-schedule: must be strictly increasing, got 10,1"),
    ("test_bad_number_is_input_error[solve---alpha-schedule--1]",
     f"{SOLVE} --alpha-schedule -1", {},
     "argument --alpha-schedule: must be >= 0, got -1"),
    ("test_bad_number_is_input_error[solve---load-scale--1]",
     f"{SOLVE} --load-scale -1", {}, "argument --load-scale: must be > 0, got -1"),
    ("test_bad_number_is_input_error[solve---load-scale-abc]",
     f"{SOLVE} --load-scale abc", {},
     "argument --load-scale: expected a finite number, got 'abc'"),
    ("test_bad_number_is_input_error[solve---tol-bc-nan]",
     f"{SOLVE} --tol-bc nan", {},
     "argument --tol-bc: expected a finite number, got 'nan'"),
    ("test_bad_number_is_input_error[solve---alpha-schedule-1,nan,100]",
     f"{SOLVE} --alpha-schedule 1,nan,100", {},
     "argument --alpha-schedule: expected a finite number, got 'nan'"),
    ("test_bad_number_is_input_error[oracle-check---obj-tol-abc]",
     f"{ORACLE} --obj-tol abc", {},
     "argument --obj-tol: expected a finite number, got 'abc'"),
    ("test_bad_number_is_input_error[oracle-check---obj-tol-nan]",
     f"{ORACLE} --obj-tol nan", {},
     "argument --obj-tol: expected a finite number, got 'nan'"),
    ("test_bad_number_is_input_error[breakeven---daily-profit-nan]",
     "breakeven --daily-profit nan", {},
     "argument --daily-profit: expected a finite number, got 'nan'"),
    ("test_bad_number_is_input_error[synth---n-0]",
     f"{SYNTH} --n 0", {}, "argument --n: must be >= 4, got 0"),
    ("test_too_few_nodes_is_input_error[synth]",
     f"{SYNTH} --n 3", {}, "argument --n: must be >= 4, got 3"),
    ("test_too_few_nodes_is_input_error[solve]",
     f"{SOLVE} --n 3", {}, "argument --n: must be >= 4, got 3"),
    ("test_oracle_check_rejects_too_few_nodes",
     f"{ORACLE} --n 0", {}, "argument --n: must be >= 4, got 0"),
    ("test_too_few_nodes_is_input_error[oracle-check]",
     f"{ORACLE} --n 3", {}, "argument --n: must be >= 4, got 3"),
    ("test_oracle_check_rejects_negative_tolerance[--obj-tol]",
     f"{ORACLE} --n 48 --obj-tol -1", {},
     "argument --obj-tol: must be >= 0, got -1"),
    ("test_oracle_check_rejects_negative_tolerance[--pm-tol]",
     f"{ORACLE} --n 48 --pm-tol -1", {},
     "argument --pm-tol: must be >= 0, got -1"),
    *[(f"test_econ_projection_horizon_is_bounded[{years}]",
       PROJECT.replace("--years 3", f"--years {years}"), {},
       f"argument --years: must be within [1, 100], got {years}")
      for years in ("0", "101", str(10 ** 12))],
    *[(f"test_project_share0_is_a_percentage[{share0}]",
       f"{PROJECT} --share0 {share0}", {},
       f"argument --share0: must be within [0, 100], got {share0}")
      for share0 in ("-0.5", "150")],
    ("test_project_fleet_count_requires_solution",
     f"{PROJECT} --fleet-count 2853", {}, "--fleet-count requires --solution"),
    # grids finer than one node per second, before any grid is allocated
    ("test_absurd_grid_is_input_error[synth_n]",
     f"{SYNTH} --n {E24}", {}, f"dt=2.4e-23 h {GRID}"),
    ("test_absurd_grid_is_input_error[solve_n]",
     f"{SOLVE} --n {E24}", {}, f"new_dt=2.4e-23 h {GRID}"),
    ("test_absurd_grid_is_input_error[oracle_n_1e24]",
     f"{ORACLE} --n {E24}", {}, f"new_dt=2.4e-23 h {GRID}"),
    ("test_absurd_grid_is_input_error[oracle_n_86401]",
     f"{ORACLE} --n 86401", {},
     f"new_dt=0.0002777745627944121 h {GRID}"),
    ("test_absurd_grid_is_input_error[solve_n_past_float_range]",
     f"{SOLVE} --n {E400}", {},
     f"new_dt=1.335044315104321e-307 h {GRID}"),
    # files the system cannot read or write
    ("test_solve_missing_file_is_input_error",
     SOLVE.replace("synth/duck_net.csv", "nope.csv"), {},
     "[Errno 2] No such file or directory: 'nope.csv'"),
    ("test_os_error_is_input_error[load_is_dir]",
     SOLVE.replace("synth/duck_net.csv", "synth"), {},
     "[Errno 21] Is a directory: 'synth'"),
    ("test_os_error_is_input_error[machine_is_dir]",
     ECON.replace("machine1.cfg", "run"), {},
     "[Errno 21] Is a directory: 'run'"),
    ("test_os_error_is_input_error[out_is_file]",
     SOLVE.replace("--out out", "--out price.csv"), {},
     "[Errno 17] File exists: 'price.csv'"),
    # bad input files, each named with the line at fault
    ("test_synth_rejects_bad_params",
     "synth --base -5 --evening-peak 0 --pv-peak 0 --out out", {},
     "base_kw must be finite and >= 0, got -5.0"),
    ("test_input_error_names_the_bad_file[load]",
     SOLVE.replace("synth/duck_net.csv", "machine1.cfg"),
     {}, "machine1.cfg: line 1: unknown column 'name = antminer-s21', "
     "expected timestamp,load_kw[,pv_kw]"),
    ("test_input_error_names_the_bad_file[machine]",
     SOLVE.replace("machine1.cfg", "synth/duck_net.csv"),
     {}, "synth/duck_net.csv: line 1: expected 'key = value', got "
     "'timestamp,load_kw'"),
    ("test_input_error_names_the_bad_file[solution]",
     ECON.replace("run", "run/diagnostics.json"),
     {}, "run/diagnostics.json: line 2: expected 1 fields, got 2"),
    ("test_solve_malformed_csv_names_line",
     SOLVE.replace("synth/duck_net.csv", "bad.csv"),
     {"bad.csv": "timestamp,load_kw\n0,1.0\n900,oops\n1800,2.0\n2700,3.0\n"},
     "bad.csv: line 3: non-numeric cell 'oops' in column 'load_kw'"),
    ("test_solve_non_finite_timestamp_is_input_error",
     SOLVE.replace("synth/duck_net.csv", "bad.csv"),
     {"bad.csv": "timestamp,load_kw\n0,1.0\n900,2.0\nnan,3.0\n2700,4.0\n"},
     "bad.csv: line 4: non-finite timestamp 'nan'"),
    ("test_solve_rejects_price_column",
     SOLVE.replace("synth/duck_net.csv", "bad.csv"),
     {"bad.csv": "timestamp,load_kw,price_usd_kwh\n"
      + "".join(f"{i * 900},100.0,0.2\n" for i in range(96))},
     "bad.csv: line 1: unknown column 'price_usd_kwh', expected "
     "timestamp,load_kw[,pv_kw]"),
    ("test_load_without_load_column_is_input_error",
     SOLVE.replace("synth/duck_net.csv", "bad.csv"),
     {"bad.csv": "timestamp,pv_kw\n"
      + "".join(f"{i * 3600},100.0\n" for i in range(24))},
     "bad.csv: no load_kw column"),
    *[(f"test_solve_non_finite_config_value_is_input_error[{line}-{key}-"
       f"{old}-{value}]", SOLVE.replace("machine1.cfg", "bad.cfg"),
       {"bad.cfg": _cfg(**{key: value})},
       f"bad.cfg: line {line}: value '{value}' for '{key}' is not finite")
      for key, old, value, line in (("d", 1, "nan", 10),
                                    ("k", 0.0014, "inf", 8))],
    ("test_econ_non_finite_price_is_input_error",
     ECON.replace("machine1.cfg", "bad.cfg"),
     {"bad.cfg": _cfg(price_usd="nan")},
     "bad.cfg: line 6: value 'nan' for 'price_usd' is not finite"),
    *[(f"{MALFORMED}[{tag}]", ECON, {"run/solution.csv": text},
       f"run/solution.csv: {message}") for tag, text, message in [
        ("empty-csv", "", "line 1: expected the header, got an empty file"),
        ("short-row", HEADER + "0,1,2,3,4,5,6\n0.25,1,2\n",
         "line 3: expected 7 fields, got 3"),
        ("non-numeric-cell", HEADER + "0,1,2,3,4,5,6\n0.25,1,2,3,oops,5,6\n",
         "line 3: non-numeric cell 'oops' in column 'pm_kw'"),
        ("one-row", HEADER + "0,1,2,3,4,5,6\n", "line 2: solution CSV needs "
         "at least 5 rows (4 nodes and t = T), got 1"),
        ("three-nodes", HEADER + "".join(f"{t},1,2,3,4,5,6\n"
                                         for t in (0.0, 6.0, 12.0, 18.0)),
         "line 5: solution CSV needs at least 5 rows (4 nodes and t = T), "
         "got 4"),
        ("negative-pl", HEADER + "".join(f"{t},1,2,3,4,5,{pl}\n" for t, pl in (
            (0.0, 6), (6.0, 6), (12.0, -5.0), (18.0, 6), (24.0, 6))),
         "line 4: negative value -5.0 in column 'pl_kw'"),
        ("nan-cell", HEADER + "0,1,2,3,4,5,6\n\n0.25,1,2,3,nan,5,6\n",
         "line 4: non-finite cell 'nan' in column 'pm_kw'"),
        ("t-T-row", HEADER + "".join(f"{t},1,2,3,4,5,6\n" for t in (
            0.0, 6.0, 12.0, 18.0)) + "24.0,12345,2,3,4,5,6\n",
         "line 6: the t = T row must repeat row 0: column 'x_kw' holds "
         "12345.0, row 0 holds 1.0")]],
    ("test_econ_rejects_solution_times_off_the_grid", ECON,
     {"run/solution.csv": _solution(_off_grid)},
     "run/solution.csv: line 4: t_h 3.5 is off the uniform grid 0, dt, "
     "2*dt, ... with dt = t_h[1] = 0.25 > 0"),
    ("test_econ_input_error_writes_nothing[fleet-below-draw]",
     f"{ECON} --fleet-count 100", {},
     "run/solution.csv: pm_clipped_kw spans 964.286 to 11964.3 kW, outside "
     "[0, 536] kW for 100 machines"),
    *[(f"{MALFORMED}[{tag}]", ECON, {"run/diagnostics.json": text},
       f"run/diagnostics.json: {message}") for tag, text, message in [
        ("empty-object", "{}", "missing key 'converged'"),
        ("bad-json", "{\"converged\": tru", "not valid JSON: Expecting "
         "value: line 1 column 15 (char 14)"),
        ("not-object", "[]", "expected a JSON object"),
        ("bad-value", json.dumps(
            {"converged": True, "periodic_residual": 0.0,
             "stationarity_residual": 0.0, "newton_iters": 0,
             "alpha_used": None}),
         "bad value: expected a finite number, got None"),
        ("string-bool", json.dumps(
            {"converged": "false", "periodic_residual": 0.0,
             "stationarity_residual": 0.0, "newton_iters": 0,
             "alpha_used": 1.0}),
         "bad value: expected true or false, got 'false'")]],
    # diagnostics.json values are read as JSON typed them: int() and
    # float() would turn 2.7 into 2, true into 1 and "100" into 100.0;
    # no solve writes a negative number
    *[(f"test_econ_rejects_mistyped_diagnostics[{tag}]", ECON,
       {"run/diagnostics.json": _diag(key, value)},
       f"run/diagnostics.json: bad value: {message}")
      for tag, key, value, message in [
        ("float-iters", "newton_iters", 2.7, "expected an integer, got 2.7"),
        ("bool-iters", "newton_iters", True, "expected an integer, got True"),
        ("float-passes", "rk4_passes", 3.0, "expected an integer, got 3.0"),
        ("string-alpha", "alpha_used", "100",
         "expected a finite number, got '100'"),
        ("bool-alpha", "alpha_used", False,
         "expected a finite number, got False"),
        ("string-nan", "periodic_residual", "nan",
         "expected a finite number, got 'nan'"),
        ("json-nan", "periodic_residual", float("nan"),
         "expected a finite number, got nan"),
        ("huge-alpha", "alpha_used", 10 ** 400,
         "int too large to convert to float"),
        ("negative-iters", "newton_iters", -5,
         "expected a value >= 0, got -5"),
        ("negative-passes", "rk4_passes", -7, "expected a value >= 0, got -7"),
        ("negative-residual", "periodic_residual", -1.0,
         "expected a value >= 0, got -1.0"),
        ("negative-alpha", "alpha_used", -1,
         "expected a value >= 0, got -1.0")]],
    ("test_econ_projection_rejects_non_finite_price", PROJECT,
     {"price.csv": "share_pct,value\n10,40\n20,nan\n30,50\n"},
     "price.csv: line 3: non-finite cell 'nan' in column 'value'"),
    *[(f"test_project_names_a_trend_file_with_no_line[{tag}]", PROJECT,
       {"price.csv": "share_pct,value\n" + rows},
       f"price.csv: {message}") for tag, rows, message in [
        ("one-row", "10,40\n", "need at least two (share, price) points"),
        ("one-share", "10,40\n10,46\n",
         "all shares identical; line fit is degenerate"),
        ("prices-past-float-range", "10,1e308\n20,-1e308\n30,1e308\n",
         "the fitted price line is not finite: slope nan, intercept nan"),
        ("subnormal-shares", "1e-310,40\n2e-310,46\n",
         "the fitted price line is not finite: slope inf, intercept -inf")]],
    # finite inputs whose arithmetic leaves float range, before any
    # numpy RuntimeWarning
    ("test_breakeven_refuses_a_price_past_float_range",
     "breakeven --daily-profit 1e308", {},
     "the break-even price for a daily profit of 1e+308 is not finite"),
    ("test_overflow_is_one_error_line[solve-load-scale]",
     f"{SOLVE} --load-scale 1e308", {},
     "synth/duck_net.csv: profile values must be finite"),
    ("test_overflow_is_one_error_line[synth-peaks]",
     "synth --base 1e308 --evening-peak 1e308 --pv-peak 0 --out out", {},
     "profile values must be finite"),
    ("test_overflow_is_one_error_line[econ-draw]",
     ECON, {"run/solution.csv": _solution(_huge_draw)},
     "run/solution.csv on machine1.cfg: report fields must be finite"),
    ("test_overflow_is_one_error_line[econ-solution-times]",
     ECON, {"run/solution.csv": _solution(_times_past_float_range)},
     "run/solution.csv: line 4: t_h 1.7e+308 is off the uniform grid 0, dt, "
     "2*dt, ... with dt = t_h[1] = 1e+308 > 0"),
    ("test_overflow_is_one_error_line[solve-timestamp-gap]",
     SOLVE.replace("synth/duck_net.csv", "bad.csv"),
     {"bad.csv": "timestamp,load_kw\n-1.7e308,1.0\n1.7e308,1.0\n"
      "1.75e308,1.0\n1.79e308,1.0\n"},
     "bad.csv: line 3: timestamp gap past float range"),
    ("test_overflow_is_one_error_line[project-profit]",
     f"{PROJECT} --profit-b 1e308", {},
     "year 1: the projected net profit of -inf $/day is not finite"),
    *[(f"test_refusal[config-{key}-1e308]",
       SOLVE.replace("machine1.cfg", "bad.cfg"),
       {"bad.cfg": _cfg(**{key: "1e308"})}, message)
      for key, message in [
        ("d", "the load's no-mining ramping cost is past float range at "
              "d = 1e+308"),
        ("k", "the load's no-mining generation cost is past float range at "
              "g = 3.481e+305"),
        ("income_usd_day", "the revenue of generating at c_m/2g is past "
                           "float range at c_m = 7.774e+305")]],
]


def _assert_refusal(tmp_path, capsys, argv, edits, message):
    """Every input error, usage errors included: exit 1, nothing on
    stdout, exactly one `error:` line on stderr, no file written or
    changed, and no RuntimeWarning or warning record (module guards)."""
    for name, edit in edits.items():
        path = tmp_path / name
        path.write_text(edit(path.read_text()) if callable(edit) else edit)

    def tree():
        return {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")}
    before = tree()
    assert main(argv.split()) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert tree() == before


def _refusal_test(rows):
    """One test function that holds each of `rows` to `_assert_refusal`:
    parametrized by the case id in each name's brackets, if it has one."""
    if "[" not in rows[0][0]:
        (_, *row), = rows
        return lambda tmp_path, capsys, econ_inputs: _assert_refusal(
            tmp_path, capsys, *row)

    @pytest.mark.parametrize("row", [row[1:] for row in rows],
                             ids=[row[0].split("[", 1)[1][:-1]
                                  for row in rows])
    def test(tmp_path, capsys, econ_inputs, row):
        _assert_refusal(tmp_path, capsys, *row)
    return test


# one test function per name, so each refusal keeps the test id it has
# always been reported under
for _name in dict.fromkeys(row[0].split("[")[0] for row in REFUSALS):
    globals()[_name] = _refusal_test(
        [row for row in REFUSALS if row[0].split("[")[0] == _name])


def test_one_process_serves_many_requests(tmp_path, machine_cfg,
                                          plant_net_csv, capsys):
    """The parser is built once; a usage error and other commands between
    two identical oracle-checks, and between two identical stopped
    solves, leave their outputs byte-identical."""
    assert build_parser() is build_parser()
    scenario = ["--load", plant_net_csv, "--machine", machine_cfg]
    small = [*scenario, "--fleet-count", "1898", "--out"]
    requests = [
        (["solve", *small, str(tmp_path / "small_a")], 2),
        (["oracle-check", *scenario, "--n", "48", "--out", str(tmp_path / "a")], 0),
        (["solve", *scenario, "--no-such-flag"], 1),
        (["solve", *scenario, "--out", str(tmp_path / "run")], 0),
        (["econ", "--machine", machine_cfg, "--solution", str(tmp_path / "run"),
          "--out", str(tmp_path / "econ")], 0),
        (["oracle-check", *scenario, "--n", "48", "--out", str(tmp_path / "b")], 0),
        (["solve", *small, str(tmp_path / "small_b")], 2),
    ]
    for argv, code in requests:
        assert main(argv) == code, argv
    capsys.readouterr()
    for run, names in (("", ("comparison.json", "oracle_solution.csv",
                             "solution.csv", "diagnostics.json")),
                       ("small_", ("solution.csv", "diagnostics.json"))):
        for name in names:
            assert ((tmp_path / f"{run}a" / name).read_bytes()
                    == (tmp_path / f"{run}b" / name).read_bytes()), name


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


def test_solve_nets_pv_out_of_the_load(tmp_path, machine_cfg, plant_net_csv):
    """load_kw and pv_kw columns solve to the bytes of their net load, and
    so does the net load with a UTF-8 byte-order mark or with epoch-second
    timestamps."""
    synth = Path(plant_net_csv).parent
    text = (synth / "duck_net.csv").read_text(encoding="utf-8")
    (synth / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert (synth / "bom.csv").read_bytes().startswith(codecs.BOM_UTF8)
    header, *rows = text.splitlines()
    epoch = [header]
    for row in rows:
        stamp, rest = row.split(",", 1)
        age = datetime.fromisoformat(stamp) - datetime(2000, 1, 1)
        epoch.append(f"{age.total_seconds():.0f},{rest}")
    assert epoch[1].startswith("0,") and epoch[2].startswith("900,")
    (synth / "epoch.csv").write_text("\n".join(epoch) + "\n")
    runs = {}
    for name in ("duck_net.csv", "duck_profiles.csv", "bom.csv", "epoch.csv"):
        out = tmp_path / name.removesuffix(".csv")
        assert main(["solve", "--load", str(synth / name), "--machine",
                     machine_cfg, "--out", str(out)]) == 0
        runs[name] = [(out / f).read_bytes()
                      for f in ("solution.csv", "diagnostics.json")]
    assert runs == dict.fromkeys(runs, runs["duck_net.csv"])


def test_oracle_check_names_a_stopped_solve_once(tmp_path, plant_net_csv,
                                                 capsys):
    cfg = tmp_path / "undersized.cfg"
    cfg.write_text(_cfg(count=1898))
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
