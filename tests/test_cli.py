"""End-to-end command-line behavior and exit codes."""

import errno
import hashlib
import json
import os

import pytest

from rampsched import cli, oracle
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
    assert "line 3" in capsys.readouterr().err


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
    assert err.startswith(f"error: line {line}: value '{value}' for '{key}' "
                          "is not finite")


def test_solve_non_finite_timestamp_is_input_error(tmp_path, machine_cfg,
                                                   capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,load_kw\n0,1.0\n900,2.0\nnan,3.0\n2700,4.0\n")
    code = main(["solve", "--load", str(bad), "--machine", machine_cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: line 4: non-finite timestamp 'nan'")


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
        "error: line 6: value 'nan' for 'price_usd' is not finite")
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
    assert main(["econ", "--breakeven", "--daily-profit", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(6497.0, abs=0.5)


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
    err = capsys.readouterr().err
    assert ("not converged: the penalty acts at alpha 100; the requested "
            "alpha 10000 is above 124.1, the largest alpha that dt = 0.25 h "
            "resolves") in err
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is False and diag["alpha_used"] == 100.0
    assert 0.0 < diag["box_violation_frac"] <= 0.01
    assert diag["box_violation_kw"] == pytest.approx(
        diag["box_violation_frac"] * 1898 * 5.36, rel=1e-12)


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
     "line 2: solution CSV needs at least 2 rows, got 1"),
    ("solution.csv", HEADER + "0,1,2,3,4,5,6\n\n0.25,1,2,3,nan,5,6\n",
     "line 4: non-finite cell 'nan' in column 'pm_kw'"),
    ("diagnostics.json", "{}", "missing key 'converged'"),
    ("diagnostics.json", "{\"converged\": tru", "not valid JSON"),
    ("diagnostics.json", "[]", "expected a JSON object"),
    ("diagnostics.json", json.dumps(
        {"converged": True, "periodic_residual": 0.0,
         "stationarity_residual": 0.0, "newton_iters": 0,
         "alpha_used": None}), "bad value: float() argument"),
    ("diagnostics.json", json.dumps(
        {"converged": "false", "periodic_residual": 0.0,
         "stationarity_residual": 0.0, "newton_iters": 0,
         "alpha_used": 1.0}), "expected true or false, got 'false'"),
], ids=["empty-csv", "short-row", "non-numeric-cell", "one-row", "nan-cell",
        "empty-object", "bad-json", "not-object", "bad-value", "string-bool"])
def test_econ_rejects_malformed_solution(tmp_path, machine_cfg, plant_net_csv,
                                         capsys, name, text, message):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--alpha-schedule", "1", "--out", str(run)]) == 0
    (run / name).write_text(text)
    out = tmp_path / "econ"
    code = main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


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
    assert err.startswith("error: line 4: t_h 3.5 is off the uniform grid")
    assert not out.exists()


def test_econ_projection_flat_with_zero_slopes(tmp_path, machine_cfg):
    trend = tmp_path / "price.csv"
    trend.write_text("share_pct,value\n10,40\n20,40\n30,40\n")
    out = tmp_path / "proj"
    code = main(["econ", "--machine", machine_cfg, "--project", "6",
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
    code = main(["econ", "--machine", machine_cfg, "--project", "4",
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
    code = main(["econ", "--machine", machine_cfg, "--project", "3",
                 "--price-trend", str(trend), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: line 3: non-finite cell 'nan' in column 'value'")
    assert not (out / "projection.csv").exists()


def test_econ_projection_requires_trend(tmp_path, machine_cfg):
    code = main(["econ", "--machine", machine_cfg, "--project", "6",
                 "--out", str(tmp_path / "p")])
    assert code == 1


@pytest.mark.parametrize("extra,message", [
    (["--machine", "CFG", "--solution", "run", "--fleet-count", "100"],
     "run/solution.csv: pm_clipped_kw spans 964.286 to 11964.3 kW, outside "
     "[0, 536] kW for 100 machines"),
    (["--machine", "CFG", "--project", "3", "--price-trend", "price.csv",
      "--ramp-trend", "price.csv"],
     "--ramp-trend requires --solution: it scales the schedule's ramping "
     "saving"),
    (["--solution", "run"], "--machine is required")],
    ids=["fleet-below-draw", "ramp-trend-without-solution", "no-machine"])
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
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [
    ("--price-trend", "price.csv"), ("--ramp-trend", "price.csv"),
    ("--share0", "50"), ("--share-per-year", "2"), ("--profit-a", "3"),
    ("--profit-b", "0.2")])
def test_econ_projection_flag_requires_project(tmp_path, machine_cfg,
                                               plant_net_csv, capsys,
                                               monkeypatch, flag, value):
    """A projection flag without --project is an input error, not dropped."""
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", "run"]) == 0
    (tmp_path / "price.csv").write_text("share_pct,value\n10,40\n20,46\n")
    capsys.readouterr()
    assert main(["econ", "--machine", machine_cfg, "--solution", "run",
                 flag, value, "--out", "out"]) == 1
    assert capsys.readouterr().err == f"error: {flag} requires --project\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [
    ("--solution", "run"), ("--machine", "CFG"), ("--fleet-count", "3000"),
    ("--attribution", "marginal"), ("--format", "json"), ("--out", "out"),
    ("--project", "3"), ("--price-trend", "price.csv"), ("--share0", "10")])
def test_econ_breakeven_rejects_inputs_it_drops(tmp_path, machine_cfg,
                                                capsys, monkeypatch, flag,
                                                value):
    """--breakeven reads only --daily-profit: any other econ input, a
    default value included, is an input error that prints and writes
    nothing."""
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    value = machine_cfg if value == "CFG" else value
    assert main(["econ", "--breakeven", "--daily-profit", "3", flag,
                 value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} does not apply with --breakeven\n"
    assert sorted(tmp_path.iterdir()) == before


def test_econ_daily_profit_requires_breakeven(tmp_path, machine_cfg,
                                              plant_net_csv, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", "run"]) == 0
    capsys.readouterr()
    assert main(["econ", "--machine", machine_cfg, "--solution", "run",
                 "--daily-profit", "3", "--out", "dp"]) == 1
    assert capsys.readouterr().err == (
        "error: --daily-profit requires --breakeven\n")
    assert not (tmp_path / "dp").exists()


def test_oracle_check_rejects_dt_with_n(tmp_path, machine_cfg, plant_net_csv,
                                        capsys):
    """--dt and --n both set the grid; --n used to resample the --dt
    profile a second time."""
    out = tmp_path / "c"
    code = main(["oracle-check", "--load", plant_net_csv, "--machine",
                 machine_cfg, "--n", "48", "--dt", "0.1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --dt and --n both set the grid: pass one of them\n")
    assert not out.exists()


def test_econ_accepts_solution_of_a_smaller_fleet(tmp_path, machine_cfg,
                                                  plant_net_csv):
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                 "--fleet-count", "2854", "--out", str(tmp_path / "e")]) == 0


def test_econ_projection_pinned(tmp_path, machine_cfg, plant_net_csv):
    # the quadratic ramp trend scales the saving by (share / share0)^2
    run = tmp_path / "run"
    assert main(["solve", "--load", plant_net_csv, "--machine", machine_cfg,
                 "--out", str(run)]) == 0
    price = tmp_path / "price.csv"
    price.write_text("share_pct,value\n10,40\n20,46\n30,51\n45,60\n")
    ramp = tmp_path / "ramp.csv"
    ramp.write_text("share_pct,value\n10,100\n20,390\n30,910\n40,1580\n")
    texts = []
    for extra in ([], ["--ramp-trend", str(ramp)]):
        out = tmp_path / f"proj{len(extra)}"
        assert main(["econ", "--machine", machine_cfg, "--solution", str(run),
                     "--project", "4", "--price-trend", str(price),
                     "--share0", "12", "--share-per-year", "3",
                     "--out", str(out), *extra]) == 0
        texts.append((out / "projection.csv").read_text())
    flat, scaled = ([[float(c) for c in row.split(",")]
                     for row in text.splitlines()[1:]] for text in texts)
    for year, (a, b) in enumerate(zip(flat, scaled), start=1):
        assert b[0] == a[0] == year and b[2] == a[2]  # mining
        assert b[3] == pytest.approx(a[3] * ((12 + 3 * year) / 12) ** 2,
                                     rel=1e-12)
    assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == [
        "2e6fdd90bcf738b418ce2e5052b344affa8ed0e9de55c1f073d06b629a6d929d",
        "7fa98d7de16f675dab8cf14b0d011c2ba008807e9ff699dc1e2f405bd3fa4fa6"]


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--dt", "nan"), ("solve", "--tol-bc", "nan"),
    ("solve", "--alpha-schedule", "1,nan,100"),
    ("oracle-check", "--obj-tol", "nan"), ("econ", "--daily-profit", "nan"),
    ("solve", "--dt", "abc"), ("synth", "--dt", "0")])
def test_bad_number_is_input_error(tmp_path, machine_cfg, plant_net_csv,
                                   capsys, command, flag, value):
    out = tmp_path / "out"
    args = {"solve": ["--load", plant_net_csv, "--machine", machine_cfg],
            "oracle-check": ["--load", plant_net_csv, "--machine", machine_cfg],
            "econ": ["--breakeven"],
            "synth": ["--base", "1", "--evening-peak", "1", "--pv-peak", "1"]}
    assert main([command, *args[command], "--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and value in errors[0]
    assert not out.exists()


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
