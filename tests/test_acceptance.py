"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.

 1. Constant-scenario schedules reproduce the closed-form optimum.
 2. Periodicity residual and box violation on the full corpus.
 3. Solver-vs-discrete-oracle equivalence at N in {48, 96, 192}, with
    the oracle itself converged.
 4. Costate dynamics match the Hamiltonian gradient by finite differences.
 5. Duck-curve ramp flattening (cost ratio and flatness of generation).
 6. Optimized objective dominates constant-draw baselines.
 7. Box violations decay along the penalty-weight schedule, each weight
    solved on its own.
 8. Economics anchors (amortized MSRP, profit intercept, break-even).
 9. The price-trend fit recovers synthetic ground truth under noise.
10. Byte-identical CLI reruns.
"""

import json
import time

import numpy as np

from corpus import BINDING_NAMES, CM1, M1, build_corpus

from rampsched import (FleetSpec, ProfitModel, SampledProfile,
                       amortized_daily_msrp, breakeven_max_machine_price,
                       evaluate, fit_price_trend, hamiltonian,
                       make_scenario, pmp_rhs, profit_vs_price, solve,
                       stationary_point)
from rampsched.cli import main
from rampsched.costmodel import penalty_xi
from rampsched.oracle import solve_active_set
from rampsched.pmp import PmpState

FLEET20 = FleetSpec(M1, 20)


def _report(num: int, label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _max_violation(sol, pbar: float) -> float:
    return max(0.0, float(np.max(-sol.pm_traj)), float(np.max(sol.pm_traj - pbar)))


def test_criterion_01_explicit_constant_solution():
    t0 = time.perf_counter()
    load = SampledProfile(0.25, np.full(96, 100.0))
    sc = make_scenario(load, FLEET20, g=CM1 / 300.0, alpha_schedule=(1.0,))
    xstar = stationary_point(sc)
    assert 100.0 <= xstar <= 100.0 + sc.cost.pbar_kw
    sol = solve(sc)
    elapsed = time.perf_counter() - t0
    x_err = float(np.max(np.abs(sol.x_traj - xstar))) / xstar
    u_sup = float(np.max(np.abs(sol.u_traj)))
    lam_sup = float(np.max(np.abs(sol.lambda_traj)))
    ok = (sol.converged and x_err <= 1e-6 and u_sup <= 1e-6
          and lam_sup <= 1e-6 and elapsed < 1.0)
    _report(1, "explicit constant solution", ok,
            f"x_err={x_err:.2e}, sup|u|={u_sup:.2e}, sup|lam|={lam_sup:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_02_residuals_across_corpus():
    t0 = time.perf_counter()
    corpus = build_corpus(96)
    assert len(corpus) >= 10
    for probe in ("duck", "sinusoid", "two_peak"):
        assert probe in corpus
    worst_bc = worst_box = 0.0
    all_converged = True
    for name, sc in corpus.items():
        sol = solve(sc)
        all_converged &= sol.converged
        worst_bc = max(worst_bc, sol.periodic_residual)
        pbar = sc.cost.pbar_kw
        assert sol.box_violation_kw == _max_violation(sol, pbar), name
        assert sol.box_violation_frac == sol.box_violation_kw / pbar, name
        worst_box = max(worst_box, sol.box_violation_frac)
    elapsed = time.perf_counter() - t0
    ok = (all_converged and worst_bc <= 1e-8 and worst_box <= 0.01
          and elapsed < 30.0)
    _report(2, "optimality residuals on corpus", ok,
            f"{len(corpus)} scenarios, worst periodic={worst_bc:.2e}, "
            f"worst box violation={worst_box * 100:.3f}% of Pbar, "
            f"{elapsed:.1f}s")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst_obj = worst_pm = worst_kkt = 0.0
    count = 0
    for n in (48, 96, 192):
        for name, sc in build_corpus(n).items():
            sol = solve(sc)
            assert sol.converged, (name, n)
            ref = solve_active_set(sc)
            assert ref.grad_norm <= 1e-8 * sc.cost.pbar_kw, (name, n)
            bd = evaluate(sol, sc)
            # penalty excluded: the discrete program enforces the box exactly
            j_solver = bd.generation_usd + bd.ramping_usd - bd.revenue_usd
            obj_gap = abs(j_solver - ref.objective) / (1.0 + abs(ref.objective))
            pm_gap = float(np.max(np.abs(sol.pm_clipped - ref.pm)))
            worst_obj = max(worst_obj, obj_gap)
            worst_pm = max(worst_pm, pm_gap / sc.cost.pbar_kw)
            worst_kkt = max(worst_kkt, ref.grad_norm / sc.cost.pbar_kw)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 0.005 and worst_pm <= 0.02 and elapsed < 120.0
    _report(3, "discrete-oracle equivalence", ok,
            f"{count} solves, worst obj gap={worst_obj:.2e}, "
            f"worst pm gap={worst_pm * 100:.3f}% of Pbar, "
            f"worst oracle KKT residual={worst_kkt:.1e}*Pbar, {elapsed:.1f}s")


def test_criterion_04_costate_matches_hamiltonian_gradient():
    worst = 0.0
    for name, sc in build_corpus(96).items():
        vals = sc.load.values
        span = max(vals.max() - vals.min(), 1.0)
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            x = rng.uniform(vals.min() - span,
                            vals.max() + sc.cost.pbar_kw + span)
            lam = rng.uniform(-40.0, 40.0)
            t = rng.uniform(0.0, 24.0)
            h = 1e-4 * (1.0 + abs(x))
            pm = x - sc.load.value_at(t)
            if abs(pm) < 2 * h or abs(pm - sc.cost.pbar_kw) < 2 * h:
                continue  # finite difference must not straddle a kink
            _, dlam = pmp_rhs(PmpState(x, lam), t, sc)
            fd = -(hamiltonian(PmpState(x + h, lam), 0.0, t, sc)
                   - hamiltonian(PmpState(x - h, lam), 0.0, t, sc)) / (2 * h)
            rel = abs(dlam - fd) / (1.0 + abs(fd))
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-6
    _report(4, "costate equals Hamiltonian gradient", ok,
            f"worst relative deviation={worst:.2e} over 100 states x "
            f"{len(build_corpus(96))} scenarios")


def test_criterion_05_duck_curve_ramp_flattening():
    sc = build_corpus(96)["duck"]
    swing = float(sc.load.values.max() - sc.load.values.min())
    assert sc.cost.pbar_kw >= swing
    sol = solve(sc)
    bd = evaluate(sol, sc)
    ratio = bd.ramping_usd / bd.baseline.ramping_usd
    cv = float(np.std(sol.x_traj) / np.mean(sol.x_traj))
    ok = sol.converged and ratio <= 0.05 and cv <= 0.02
    _report(5, "duck-curve ramp flattening", ok,
            f"ramp cost ratio={ratio:.2e}, generation CV={cv:.2e}")


def test_criterion_06_objective_dominance():
    worst_excess = -np.inf
    corpus = build_corpus(96)
    for name, sc in corpus.items():
        sol = solve(sc)
        total = evaluate(sol, sc).total_usd
        dt = sc.load.dt
        pl = sc.load.values
        pl_ext = np.concatenate([pl, pl[:1]])
        fwd = (np.roll(pl, -1) - pl) / dt
        ramp = np.concatenate([fwd, fwd[:1]])
        t = np.arange(pl.size + 1) * dt
        cm_t = np.asarray(sc.cost.cm_at(t), dtype=float)
        for frac in (0.0, 1.0, 0.5):
            draw = frac * sc.cost.pbar_kw
            dens = (sc.cost.g * (pl_ext + draw) ** 2 + sc.cost.d * ramp ** 2
                    - cm_t * draw + np.asarray(penalty_xi(draw, sc.cost)))
            base = float(dt * (dens.sum() - 0.5 * (dens[0] + dens[-1])))
            excess = (total - base) / (1.0 + abs(base))
            worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-6
    _report(6, "objective dominates constant draws", ok,
            f"worst relative excess={worst_excess:.2e}")


def test_criterion_07_continuation_violation_decay():
    corpus = build_corpus(96)
    checked = []

    def stage_violations(sc):
        viols = []
        for alpha in sc.alpha_schedule:
            stage = make_scenario(sc.load, sc.fleet, g=sc.cost.g, d=sc.cost.d,
                                  cm=sc.cost.cm, alpha_schedule=(alpha,),
                                  tolerances=sc.tolerances)
            sol = solve(stage)
            assert sol.converged
            viols.append(_max_violation(sol, sc.cost.pbar_kw))
        return viols

    ok = True
    details = []
    duck = corpus["duck"]
    assert duck.alpha_schedule == (1.0, 10.0, 100.0, 1e3, 1e4)
    for name in ("duck",) + BINDING_NAMES:
        sc = corpus[name]
        viols = stage_violations(sc)
        monotone = all(b <= a + 1e-12 for a, b in zip(viols, viols[1:]))
        final_frac = viols[-1] / sc.cost.pbar_kw
        ok &= monotone and final_frac <= 0.01
        checked.append(name)
        details.append(f"{name}: final={final_frac * 100:.3f}%"
                       f"{'' if monotone else ' NON-MONOTONE'}")
    _report(7, "penalty-weight violation decay", ok, "; ".join(details))


def test_criterion_08_economics_anchors():
    msrp = [amortized_daily_msrp(p, 2.0) for p in (7400.0, 5200.0, 6500.0)]
    refs = (10.14, 7.12, 8.90)
    msrp_ok = all(abs(a - b) <= 0.01 for a, b in zip(msrp, refs))
    intercept_ok = profit_vs_price(0.0, ProfitModel()) == 14.0
    breakeven = breakeven_max_machine_price(5.0)
    breakeven_ok = abs(breakeven - 6497.0) <= 0.5
    ok = msrp_ok and intercept_ok and breakeven_ok
    _report(8, "economics anchors", ok,
            f"msrp/day={[round(v, 4) for v in msrp]}, "
            f"profit(0)={profit_vs_price(0.0, ProfitModel())}, "
            f"breakeven(5)={breakeven:.2f}")


def test_criterion_09_trend_fit_recovery():
    slope_true, intercept_true = 0.8, 30.0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(5.0, 60.0, 500)
        y_line = intercept_true + slope_true * x
        y_line = y_line + rng.normal(0.0, 0.05 * np.abs(y_line))
        fit = fit_price_trend(np.column_stack([x, y_line]))
        worst = max(worst,
                    abs(fit.price_slope - slope_true) / slope_true,
                    abs(fit.price_intercept - intercept_true) / intercept_true)
    ok = worst <= 0.05
    _report(9, "trend fit recovery", ok,
            f"worst relative coefficient error={worst * 100:.2f}% "
            f"over 20 seeds")


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


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "machine1.cfg"
    cfg.write_text(MACHINE_CFG)
    synth = tmp_path / "synth"
    assert main(["synth", "--base", "8000", "--evening-peak", "3000",
                 "--pv-peak", "9000", "--out", str(synth)]) == 0
    load = str(synth / "duck_net.csv")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["solve", "--load", load, "--machine", str(cfg),
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("solution.csv", "diagnostics.json"))
    _report(10, "byte-identical CLI reruns", identical,
            "solution.csv and diagnostics.json compared")
