"""Cost primitives, the box penalty, machine conversions, config parsing."""

import dataclasses
import io
import math

import numpy as np
import pytest

from rampsched import (CostModel, FleetSpec, MACHINE_PRESETS, ProfitModel,
                       SampledProfile, Tolerances, ValidationError,
                       compute_cm, compute_g, control_from_costate, gen_cost,
                       load_config, make_scenario, penalty_xi,
                       penalty_xi_prime, ramp_cost, write_csv)
from rampsched.cli import (_build_scenario, _scenario_from_solution,
                           build_parser, main)
from rampsched.costmodel import (box_excess, fleet_from_config,
                                 machine_from_config)
from rampsched.pmp import box_violation

M1 = MACHINE_PRESETS["1"]
M2 = MACHINE_PRESETS["2"]
M3 = MACHINE_PRESETS["3"]


def model(g=1.0, d=1.0, alpha=1.0, pbar=10.0, cm=0.1):
    return CostModel(g=g, d=d, alpha=alpha, pbar_kw=pbar, cm=cm)


# ------------------------------------------------------------ quadratics

def test_gen_cost_values():
    m = model(g=1.0)
    assert gen_cost(0.0, m) == 0.0
    assert gen_cost(3.0, m) == 9.0


def test_ramp_cost_values():
    m = model(d=1.0)
    assert ramp_cost(0.0, m) == 0.0
    assert ramp_cost(2.0, m) == 4.0


def test_strict_convexity_on_random_triples():
    m = model(g=0.8, d=1.7)
    rng = np.random.default_rng(2)
    for fn in (gen_cost, ramp_cost):
        for _ in range(1000):
            x, y = rng.uniform(-100.0, 100.0, 2)
            if abs(x - y) < 1e-9:
                continue
            theta = rng.uniform(0.01, 0.99)
            mid = fn((1 - theta) * x + theta * y, m)
            chord = (1 - theta) * fn(x, m) + theta * fn(y, m)
            assert mid < chord


# ------------------------------------------------------------ penalty

def test_penalty_zero_inside_band():
    m = model(alpha=1.0, pbar=10.0)
    assert penalty_xi(5.0, m) == 0.0
    assert penalty_xi(0.0, m) == 0.0
    assert penalty_xi(10.0, m) == 0.0


def test_penalty_below_zero():
    m = model(alpha=1.0, pbar=10.0)
    assert penalty_xi(-2.0, m) == 4.0
    assert penalty_xi_prime(-2.0, m) == -4.0


def test_penalty_above_bound():
    m = model(alpha=1.0, pbar=10.0)
    assert penalty_xi(13.0, m) == 9.0
    assert penalty_xi_prime(13.0, m) == 6.0


def test_penalty_nonnegative_and_c1_at_kinks():
    m = model(alpha=3.0, pbar=10.0)
    pm = np.linspace(-20.0, 30.0, 2001)
    assert np.all(np.asarray(penalty_xi(pm, m)) >= 0.0)
    for kink in (0.0, 10.0):
        assert penalty_xi_prime(kink, m) == 0.0
        eps = 1e-9
        assert abs(penalty_xi_prime(kink - eps, m)) < 1e-8
        assert abs(penalty_xi_prime(kink + eps, m)) < 1e-8


def test_penalty_scales_with_alpha():
    assert penalty_xi(-2.0, model(alpha=5.0)) == 20.0


def test_box_excess_is_zero_on_box_and_signed_outside():
    pm = np.array([-3.5, -1e-300, 0.0, 1e-300, 4.0, 10.0, 10.0 + 1e-12, 13.25])
    want = np.array([-3.5, -1e-300, 0.0, 0.0, 0.0, 0.0, pm[6] - 10.0, 3.25])
    assert np.array_equal(box_excess(pm, 10.0), want)
    assert box_excess(-2.0, 10.0) == -2.0 and box_excess(13.0, 10.0) == 3.0
    buf = np.full(pm.size, np.nan)
    assert box_excess(pm, 10.0, buf) is buf
    assert np.array_equal(buf, want)


def test_box_violation_is_largest_box_excess():
    rng = np.random.default_rng(7)
    for lo, hi in ((-5.0, 8.0), (2.0, 15.0), (-5.0, 15.0), (0.0, 10.0)):
        pm = rng.uniform(lo, hi, 97)
        assert box_violation(pm, 10.0) == float(np.abs(box_excess(pm, 10.0)).max())
    assert box_violation(np.array([0.0, 10.0]), 10.0) == 0.0


# ------------------------------------------------------------ control law

def test_control_from_costate_values():
    assert control_from_costate(0.0, model()) == 0.0
    assert control_from_costate(-2.0, model(d=1.0)) == 1.0


def test_control_inverts_ramp_derivative():
    m = model(d=3.7)
    rng = np.random.default_rng(4)
    for lam in rng.uniform(-100.0, 100.0, 1000):
        u = control_from_costate(lam, m)
        # the ramp cost's derivative 2*d*u cancels the costate
        assert abs(2.0 * m.d * u + lam) <= 1e-12 * (1.0 + abs(lam))


def test_control_minimizes_pointwise_cost():
    m = model(d=2.2)
    rng = np.random.default_rng(5)
    lams = rng.uniform(-50.0, 50.0, 1000)
    us = rng.uniform(-200.0, 200.0, 1000)
    for lam in lams:
        u_star = control_from_costate(lam, m)
        best = ramp_cost(u_star, m) + lam * u_star
        others = np.asarray(ramp_cost(us, m)) + lam * us
        assert np.all(best <= others + 1e-9)


# ------------------------------------------------------------ machine math

def test_compute_g_machine_1():
    assert compute_g(M1) == pytest.approx(0.0014 * 0.1 / 5.36 ** 2, rel=1e-12)
    assert compute_g(M1) == pytest.approx(4.8730e-6, rel=1e-4)


def test_compute_g_machine_2_uses_its_k():
    assert M2.k_const == 0.0012
    assert compute_g(M2) == pytest.approx(0.0012 * 0.1 / 7.283 ** 2, rel=1e-12)


def test_zero_k_is_rejected():
    with pytest.raises(ValidationError):
        machine_from_config({"demand_w": 1000.0, "income_usd_day": 1.0,
                             "elec_cost": 0.1, "k": 0.0})


def test_compute_cm_values():
    assert compute_cm(M1) == pytest.approx(15.0 / (5.360 * 24.0), rel=1e-12)
    assert compute_cm(M1) == pytest.approx(0.11660, abs=5e-6)
    assert compute_cm(M3) == pytest.approx(5.05 / (3.250 * 24.0), rel=1e-12)
    assert compute_cm(M3) == pytest.approx(0.064744, abs=5e-7)


def test_zero_income_gives_zero_cm():
    m = machine_from_config({"demand_w": 1000.0, "income_usd_day": 0.0,
                             "elec_cost": 0.1, "k": 0.001})
    assert compute_cm(m) == 0.0


def test_fleet_bound():
    fleet = FleetSpec(M1, 2853)
    assert fleet.pbar_kw == pytest.approx(2853 * 5.36, rel=1e-12)
    with pytest.raises(ValidationError):
        FleetSpec(M1, 0)


def test_costmodel_invariants():
    with pytest.raises(ValidationError):
        CostModel(g=0.0, d=1.0, alpha=1.0, pbar_kw=1.0, cm=0.1)
    with pytest.raises(ValidationError):
        CostModel(g=1.0, d=0.0, alpha=1.0, pbar_kw=1.0, cm=0.1)
    with pytest.raises(ValidationError):
        CostModel(g=1.0, d=1.0, alpha=-1.0, pbar_kw=1.0, cm=0.1)
    with pytest.raises(ValidationError):
        CostModel(g=1.0, d=1.0, alpha=1.0, pbar_kw=1.0, cm=-0.1)


FLAT_DAY = SampledProfile(0.25, np.full(96, 100.0))


@pytest.mark.parametrize("build", [
    lambda: model(g=math.nan), lambda: model(d=math.nan),
    lambda: model(pbar=math.inf), lambda: model(cm=math.nan),
    lambda: dataclasses.replace(M1, demand_w=math.nan),
    lambda: ProfitModel(a=math.nan), lambda: FleetSpec(M1, math.nan),
    lambda: FleetSpec(M1, math.inf),
    lambda: dataclasses.replace(M1, demand_w=math.inf),
    lambda: dataclasses.replace(M1, hashrate_ths=math.inf),
    lambda: ProfitModel(b=math.inf), lambda: model(alpha=math.inf),
    lambda: Tolerances(tol_bc=math.inf),
    lambda: make_scenario(FLAT_DAY, FleetSpec(M1, 20), g=1e-3,
                          alpha_schedule=(math.inf,)),
    lambda: make_scenario(FLAT_DAY, FleetSpec(M1, 20), g=1e-3,
                          alpha_schedule=(-math.inf, 1.0)),
], ids=["g-nan", "d-nan", "pbar-inf", "cm-nan", "demand-nan", "profit-a-nan",
        "count-nan", "count-inf", "demand-inf", "hashrate-inf", "profit-b-inf",
        "alpha-inf", "tol-bc-inf", "schedule-inf", "schedule-minus-inf"])
def test_constructors_refuse_non_finite(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("build,message", [
    (lambda: dataclasses.replace(M1, demand_w=0.0), "demand_w must be > 0"),
    (lambda: dataclasses.replace(M1, demand_w=-1.0), "demand_w must be > 0"),
    (lambda: dataclasses.replace(M1, income_usd_day=-1.0),
     "income_usd_day must be >= 0"),
    (lambda: dataclasses.replace(M1, price_usd=-1.0), "price_usd must be >= 0"),
    (lambda: dataclasses.replace(M1, lifespan_years=0.0),
     "lifespan_years must be > 0"),
    (lambda: load_config(io.StringIO("demand_w = 10\ncount = 2.5\n")),
     "line 2: count must be an integer"),
    (lambda: compute_g(dataclasses.replace(M1, demand_w=1e-300)),
     r"demand_w = 1e-300 puts demand_kw\^2 outside float range"),
    (lambda: compute_g(dataclasses.replace(M1, demand_w=1e308)),
     r"demand_w = 1e\+308 puts demand_kw\^2 outside float range"),
    (lambda: fleet_from_config(load_config(io.StringIO(
        CFG_TEXT.replace("count = 2853", "count = 1" + "0" * 400)))),
     "count must be a positive integer within float range, got 10{400}$"),
], ids=["demand-zero", "demand-negative", "income-negative", "price-negative",
        "lifespan-zero", "count-fraction", "demand-underflows-g",
        "demand-overflows-g", "count-past-float-range"])
def test_machine_inputs_out_of_range_are_refused(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_time_varying_cm_lookup():
    prof = SampledProfile(6.0, [0.1, 0.2, 0.3, 0.4])
    m = CostModel(g=1.0, d=1.0, alpha=1.0, pbar_kw=1.0, cm=prof)
    assert not m.cm_is_constant
    assert m.cm_at(0.0) == pytest.approx(0.1)
    assert m.cm_at(3.0) == pytest.approx(0.15)


# ------------------------------------------------------------ config files

CFG_TEXT = """\
# machine type 1
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


def cli_scenarios(tmp_path, cfg_text):
    """The scenarios `solve` and `econ --solution` build from one config."""
    cfg = tmp_path / "machine.cfg"
    cfg.write_text(cfg_text)
    load = tmp_path / "load.csv"
    write_csv(load, load=SampledProfile(1.0, np.full(24, 100.0)))
    run = tmp_path / "run"
    solve_argv = ["solve", "--load", str(load), "--machine", str(cfg),
                  "--out", str(run)]
    main(solve_argv)  # writes its files whether or not it converges
    built = _build_scenario(build_parser().parse_args(solve_argv))
    econ_args = build_parser().parse_args(
        ["econ", "--machine", str(cfg), "--solution", str(run)])
    _, rebuilt = _scenario_from_solution(econ_args, load_config(cfg))
    return built, rebuilt


def test_config_roundtrip_builds_preset_machine(tmp_path):
    cfg = load_config(io.StringIO(CFG_TEXT))
    machine = machine_from_config(cfg)
    assert machine.demand_w == M1.demand_w
    assert machine.income_usd_day == M1.income_usd_day
    fleet = fleet_from_config(cfg)
    assert fleet.count == 2853
    for sc in cli_scenarios(tmp_path, CFG_TEXT):
        assert sc.fleet == fleet
        assert sc.cost.g == pytest.approx(compute_g(M1))
        assert sc.cost.cm == pytest.approx(compute_cm(M1))
        assert sc.cost.alpha == 1e4  # the default schedule's final weight


def test_config_g_override_wins(tmp_path):
    for sc in cli_scenarios(tmp_path, CFG_TEXT + "g_override = 0.5\n"):
        assert sc.cost.g == 0.5


def test_config_unknown_key_errors():
    """The penalty schedule comes from --alpha-schedule, not the config."""
    for key in ("voltage", "alpha"):
        with pytest.raises(ValidationError,
                           match=f"line 2: unknown key '{key}'"):
            load_config(io.StringIO(f"demand_w = 10\n{key} = 3\n"))


def test_config_missing_required_key_errors():
    with pytest.raises(ValidationError, match="missing"):
        machine_from_config(load_config(io.StringIO("demand_w = 10\n")))


def test_config_non_numeric_value_errors():
    with pytest.raises(ValidationError, match="'lots' for 'demand_w' is not numeric"):
        load_config(io.StringIO("demand_w = lots\n"))


def test_config_repeated_key_names_both_lines(tmp_path, capsys):
    text = CFG_TEXT + "count = 5\n"
    with pytest.raises(ValidationError, match="line 12: repeated key 'count', "
                                              "first set on line 10"):
        load_config(io.StringIO(text))
    cfg, load = tmp_path / "machine.cfg", tmp_path / "load.csv"
    cfg.write_text(text)
    write_csv(load, load=SampledProfile(1.0, np.full(24, 100.0)))
    out = tmp_path / "run"
    assert main(["solve", "--load", str(load), "--machine", str(cfg),
                 "--out", str(out)]) == 1
    assert "line 12: repeated key 'count'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("d", "nan"), ("k", "inf"),
                                       ("price_usd", "nan"), ("g_override", "-inf")])
def test_config_non_finite_value_names_line(key, value):
    text = f"demand_w = 10\n{key} = {value}\n"
    with pytest.raises(ValidationError,
                       match=f"line 2: value '{value}' for '{key}' is not finite"):
        load_config(io.StringIO(text))
