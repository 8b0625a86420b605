"""Profit model, amortization, break-even, price fit, reports, projections."""

import io
import time

import numpy as np
import pytest

from corpus import M1, M3, build_corpus

from rampsched import (EconReport, FleetSpec,
                       MACHINE_PRESETS, ProfitModel, ReportOnUnconvergedError,
                       SampledProfile, TrendModel,
                       ValidationError, amortized_daily_msrp,
                       breakeven_max_machine_price, daily_report,
                       fit_price_trend, make_scenario,
                       profit_vs_price, project_net_profit, solve)
from rampsched.econ import (format_report_table, read_trend_csv,
                            report_as_dict,
                            BREAKEVEN_AMORT_DAYS, BREAKEVEN_MSRP_OFFSET,
                            BREAKEVEN_PROFIT_FLOOR)
from rampsched.pmp import PmpSolution

M2 = MACHINE_PRESETS["2"]


# ------------------------------------------------------------- profit line

def test_profit_at_zero_price_is_intercept():
    assert profit_vs_price(0.0, ProfitModel()) == 14.0


def test_profit_line_values():
    pm = ProfitModel()
    assert profit_vs_price(140.0, pm) == pytest.approx(0.0)
    assert profit_vs_price(10.0, pm) == pytest.approx(13.0)


def test_profit_is_affine():
    pm = ProfitModel(a=11.0, b=0.07)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p1, p2 = rng.uniform(-200.0, 200.0, 2)
        lhs = profit_vs_price(p1, pm) + profit_vs_price(p2, pm)
        rhs = 2.0 * profit_vs_price(0.5 * (p1 + p2), pm)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_profit_model_rejects_negative_coefficients():
    with pytest.raises(ValidationError):
        ProfitModel(a=-1.0)


# ------------------------------------------------------------- amortization

def test_amortized_msrp_reference_machines():
    assert amortized_daily_msrp(7400.0, 2.0) == pytest.approx(10.14, abs=0.01)
    assert amortized_daily_msrp(5200.0, 2.0) == pytest.approx(7.12, abs=0.01)
    assert amortized_daily_msrp(6500.0, 2.0) == pytest.approx(8.90, abs=0.01)


def test_amortization_scales_linearly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        price = rng.uniform(100.0, 20000.0)
        k = rng.uniform(0.1, 10.0)
        assert amortized_daily_msrp(k * price, 2.0) \
            == pytest.approx(k * amortized_daily_msrp(price, 2.0), rel=1e-12)


def test_amortization_needs_positive_lifespan():
    with pytest.raises(ValidationError):
        amortized_daily_msrp(1000.0, 0.0)


# ------------------------------------------------------------- break-even

def test_breakeven_at_profit_floor():
    assert breakeven_max_machine_price(5.0) == pytest.approx(6497.0, abs=0.5)


def test_breakeven_linearity():
    base = breakeven_max_machine_price(5.0)
    for x in (1.0, 10.0, 250.0):
        assert breakeven_max_machine_price(5.0 + x / 730.0) \
            == pytest.approx(base + x, rel=1e-12)
    assert breakeven_max_machine_price(13.9) == pytest.approx(730.0 * 17.8)


def test_breakeven_satisfies_rule_with_equality():
    for v in (0.0, 5.0, 9.3, 25.0):
        c = breakeven_max_machine_price(v)
        lhs = c / BREAKEVEN_AMORT_DAYS - BREAKEVEN_MSRP_OFFSET
        rhs = v - BREAKEVEN_PROFIT_FLOOR
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ------------------------------------------------------------- trend fits

def _residual_rms(fit, points) -> float:
    x, y = np.asarray(points, dtype=float).T
    resid = y - (fit.price_intercept + fit.price_slope * x)
    return float(np.sqrt(np.mean(resid ** 2)))


def test_price_fit_exact_line():
    pts = [(s, 20.0 + 1.5 * s) for s in (0.0, 10.0, 25.0, 40.0)]
    fit = fit_price_trend(pts)
    assert fit.price_slope == pytest.approx(1.5, rel=1e-12)
    assert fit.price_intercept == pytest.approx(20.0, rel=1e-12)
    assert _residual_rms(fit, pts) == pytest.approx(0.0, abs=1e-10)


def test_price_fit_degenerate_only_when_all_shares_equal():
    with pytest.raises(ValidationError, match="line fit is degenerate"):
        fit_price_trend([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])
    fit = fit_price_trend([(5.0, 1.0), (5.0, 2.0), (9.0, 3.0)])
    assert fit.price_slope is not None


def test_price_fit_recovers_noisy_line():
    rng = np.random.default_rng(4)
    slope, intercept = 0.8, 30.0
    x = rng.uniform(5.0, 60.0, 1000)
    y = intercept + slope * x
    y = y + rng.normal(0.0, 0.05 * np.abs(y))
    pts = np.column_stack([x, y])
    fit = fit_price_trend(pts)
    se = _residual_rms(fit, pts) / (np.std(x) * np.sqrt(len(x)))
    assert abs(fit.price_slope - slope) < 3.0 * se


def test_fits_are_least_squares_optima():
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 50.0, 200)
    y = 12.0 + 0.6 * x + rng.normal(0.0, 1.0, 200)
    fit = fit_price_trend(np.column_stack([x, y]))

    def rms(slope, intercept):
        return float(np.sqrt(np.mean((y - intercept - slope * x) ** 2)))

    best = rms(fit.price_slope, fit.price_intercept)
    for ds in (-1e-3, 1e-3):
        assert rms(fit.price_slope * (1 + ds), fit.price_intercept) >= best
        assert rms(fit.price_slope, fit.price_intercept * (1 + ds)) >= best


def test_trend_csv_roundtrip(tmp_path):
    pts = [(5.0, 30.1), (15.0, 44.7), (30.0, 61.2)]
    path = tmp_path / "trend.csv"
    path.write_text("share_pct,value\n5.0,30.1\n15.0,44.7\n30.0,61.2\n")
    assert read_trend_csv(path) == pts


# ------------------------------------------------------------- projections

FLAT = TrendModel(price_intercept=40.0, price_slope=0.0)
RISING = TrendModel(price_intercept=40.0, price_slope=1.0)


def test_projection_constant_when_trends_flat():
    series = project_net_profit(M1, FLAT, 6, share0_pct=10.0,
                                ramp_saved_usd_day=2.0)
    assert len(set(series.net)) == 1
    assert series.first_loss_year is None or series.net[0] < 0


def test_projection_expensive_machine_loses_immediately():
    v_daily = profit_vs_price(40.0, ProfitModel())
    pricey = type(M1)(name="pricey", demand_w=M1.demand_w,
                      hashrate_ths=M1.hashrate_ths,
                      income_usd_day=M1.income_usd_day,
                      elec_cost_coeff=M1.elec_cost_coeff,
                      price_usd=3.0 * breakeven_max_machine_price(v_daily),
                      lifespan_years=2.0, k_const=M1.k_const)
    series = project_net_profit(pricey, FLAT, 3, share0_pct=10.0)
    assert series.first_loss_year == 1
    assert series.net[0] < 0.0


def test_projection_mining_declines_with_rising_prices():
    trend = TrendModel(price_intercept=40.0, price_slope=1.2)
    series = project_net_profit(M1, trend, 6, share0_pct=10.0,
                                share_per_year=4.0, ramp_saved_usd_day=1.0)
    assert all(b < a for a, b in zip(series.mining, series.mining[1:]))
    assert series.ramping_saved == (1.0,) * 6  # the schedule's, every year


def test_projection_share_capped_at_hundred():
    series = project_net_profit(M1, RISING, 5, share0_pct=20.0,
                                share_per_year=50.0)
    # shares clamp at 100 so late-year mining stops falling
    assert series.mining[-1] == series.mining[-2]


def test_projection_share_floored_at_zero():
    series = project_net_profit(M1, RISING, 4, share0_pct=10.0,
                                share_per_year=-6.0, ramp_saved_usd_day=1.0)
    # shares 4, 0, 0, 0: the price stops moving at 0 %; the saving is
    # the schedule's every year
    assert series.ramping_saved == (1.0, 1.0, 1.0, 1.0)
    assert series.mining[1] == series.mining[2] == series.mining[3]


def test_projection_horizon_is_one_to_a_hundred_years():
    assert len(project_net_profit(M1, FLAT, 100).net) == 100
    for years in (0, 101, 10 ** 12):  # refused before a row is built
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"1 to 100, got {years}"):
            project_net_profit(M1, FLAT, years)
        assert time.perf_counter() - start < 1.0


def test_projection_share_today_is_a_percentage():
    for share0 in (0.0, 100.0):
        assert len(project_net_profit(M1, RISING, 3, share0_pct=share0).net) \
            == 3
    for share0 in (-1e-9, 100.0 + 1e-9, -5.0, 150.0):
        with pytest.raises(ValidationError,
                           match=r"share0_pct must be within \[0, 100\]"):
            project_net_profit(M1, RISING, 3, share0_pct=share0)


# ------------------------------------------------------------- reports

def _constant_solution(fleet, xstar, level=100.0, n=96):
    load = SampledProfile(24.0 / n, np.full(n, level))
    cm = fleet.machine.income_usd_day / (fleet.machine.demand_kw * 24.0)
    sc = make_scenario(load, fleet, g=cm / (2.0 * xstar),
                       alpha_schedule=(1.0,))
    return solve(sc), sc


def test_daily_report_duty_factor_single_machine():
    fleet = FleetSpec(M1, 1)  # bound = machine demand, 5.36 kW
    sol, sc = _constant_solution(fleet, xstar=103.0)
    report = daily_report(sol, sc, M1)
    duty = 3.0 / fleet.pbar_kw
    assert report.gross_mining == pytest.approx(M1.income_usd_day * duty,
                                                rel=1e-9)
    assert report.net_profit == pytest.approx(
        report.gross_mining - report.operating_cost - report.msrp_per_day,
        abs=1e-12)


def test_daily_report_zero_draw_is_flagged():
    fleet = FleetSpec(M1, 1)
    sol, sc = _constant_solution(fleet, xstar=103.0)
    n = sol.x_traj.size
    idle = PmpSolution(
        x_traj=sc.load.values[0] * np.ones(n),
        lambda_traj=np.zeros(n), u_traj=np.zeros(n),
        pm_traj=np.zeros(n), pm_clipped=np.zeros(n),
        converged=True, periodic_residual=0.0, newton_iters=0, alpha_used=1.0)
    report = daily_report(idle, sc, M1)
    assert report.gross_mining == 0.0
    assert "no-mining" in report.flags
    assert "no-ramping-savings" in report.flags


def test_daily_report_rejects_unconverged():
    fleet = FleetSpec(M1, 1)
    sol, sc = _constant_solution(fleet, xstar=103.0)
    bad = PmpSolution(
        x_traj=sol.x_traj, lambda_traj=sol.lambda_traj,
        u_traj=sol.u_traj, pm_traj=sol.pm_traj, pm_clipped=sol.pm_clipped,
        converged=False, periodic_residual=1.0, newton_iters=50,
        alpha_used=1.0)
    with pytest.raises(ReportOnUnconvergedError):
        daily_report(bad, sc, M1)


def test_reference_fleet_bounds():
    assert FleetSpec(M1, 2853).pbar_kw == pytest.approx(15292.08, abs=1e-9)
    assert FleetSpec(M2, 2175).pbar_kw == pytest.approx(15840.525, abs=1e-9)
    assert FleetSpec(M3, 2924).pbar_kw == pytest.approx(9503.0, abs=1e-9)


def test_daily_report_on_plant_scenario():
    corpus = build_corpus(96)
    sc = corpus["plant_duck"]
    sol = solve(sc)
    report = daily_report(sol, sc, M1)
    assert report.msrp_per_day == pytest.approx(10.14, abs=0.01)
    assert report.gross_mining > 0.0
    assert report.ramping_saved_fleet > 0.0
    assert report.ramping_saved == pytest.approx(
        report.ramping_saved_fleet / sc.fleet.count, rel=1e-12)
    # marginal attribution prices mining energy at twice the average rate
    avg = daily_report(sol, sc, M1, attribution="average")
    assert report.operating_cost == pytest.approx(2.0 * avg.operating_cost,
                                                  rel=1e-12)


def test_report_invariant_enforced():
    with pytest.raises(ValidationError):
        EconReport(machine_name="x", msrp_per_day=1.0, operating_cost=1.0,
                   gross_mining=1.0, net_profit=5.0, ramping_saved=0.0,
                   ramping_saved_fleet=0.0, breakeven_machine_price=0.0)


def _median_attribution():
    sol, sc = _constant_solution(FleetSpec(M1, 1), xstar=103.0)
    daily_report(sol, sc, M1, attribution="median")


@pytest.mark.parametrize("build,message", [
    (lambda: EconReport(machine_name="x", msrp_per_day=1.0,
                        operating_cost=1.0, gross_mining=2.0, net_profit=0.0,
                        ramping_saved=float("nan"), ramping_saved_fleet=0.0,
                        breakeven_machine_price=0.0),
     "report fields must be finite"),
    (_median_attribution, "unknown attribution 'median'"),
], ids=["report-nan", "attribution-median"])
def test_report_inputs_are_refused(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_report_exports():
    report = EconReport(machine_name="m", msrp_per_day=10.0,
                        operating_cost=20.0, gross_mining=35.0,
                        net_profit=5.0, ramping_saved=1.5,
                        ramping_saved_fleet=150.0,
                        breakeven_machine_price=6497.0)
    doc = report_as_dict(report)
    assert doc["net_profit"] == 5.0
    table = format_report_table([report])
    lines = table.splitlines()
    assert "Machine" in lines[0]
    assert "35.00" in lines[2]
