"""Optimality-system integration and the multiple-shooting Newton solve."""

import dataclasses
import hashlib
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from corpus import (BINDING_NAMES, CM1, G1, M1, M3, build_corpus,
                    build_long_arc, interior_count, ladder_scenarios,
                    plant_duck_undersized, random_days)

from rampsched import (DivergenceError, FleetSpec, SampledProfile,
                       ValidationError, compute_cm, compute_g, daily_report,
                       evaluate, hamiltonian, make_scenario, pmp, pmp_rhs,
                       solve, stationary_point)
from rampsched.costmodel import box_excess, gen_cost, penalty_xi, ramp_cost
from rampsched.econ import report_as_dict
from rampsched.oracle import discretize_objective, solve_active_set
from rampsched.pmp import (SOLUTION_CSV_HEADER, PmpState, Scenario, Tolerances,
                           _condensed_table, _cyclic_thomas, _day,
                           _rk4_step_derivative, _rk4_stepper,
                           _schedule_csv, breakdown_as_dict, failure_reason,
                           read_solution_csv, resolvable_alpha,
                           solution_to_csv)

FLEET20 = FleetSpec(M1, 20)
# `random_days` seed and day count, fixed before the test first ran
RANDOM_DAYS_SEED, RANDOM_DAYS = 1, 40
# `test_random_day_ladders_pinned`'s digest
PINNED_RANDOM_LADDERS = \
    "3c051cfeb48eca384d3f4ec9cf6e04b14b1c886c0485932625e00a597e06d38d"
SOLUTION_ARRAYS = ("x_traj", "lambda_traj", "u_traj", "pm_traj", "pm_clipped")


def const_scenario(level=100.0, xstar=150.0, n=96, d=1.0):
    load = SampledProfile(24.0 / n, np.full(n, level))
    return make_scenario(load, FLEET20, g=CM1 / (2.0 * xstar), d=d,
                         alpha_schedule=(1.0,))


# ------------------------------------------------------------- hamiltonian

def test_hamiltonian_reduces_to_generation_cost_on_balance():
    sc = const_scenario()
    h = hamiltonian(PmpState(x=100.0, lam=0.0), u=0.0, t=3.0, sc=sc)
    assert h == pytest.approx(gen_cost(100.0, sc.cost), rel=1e-12)


def test_hamiltonian_is_linear_in_costate_control_product():
    sc = const_scenario()
    s0 = PmpState(x=120.0, lam=0.0)
    s1 = PmpState(x=120.0, lam=1.0)
    assert hamiltonian(s1, 2.0, 0.0, sc) - hamiltonian(s0, 2.0, 0.0, sc) \
        == pytest.approx(2.0, rel=1e-12)


def test_hamiltonian_matches_cost_components(corpus96):
    sc = corpus96["tv_cm"]
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.uniform(0.0, 300.0)
        lam = rng.uniform(-30.0, 30.0)
        u = rng.uniform(-40.0, 40.0)
        t = rng.uniform(0.0, 24.0)
        pm = x - sc.load.value_at(t)
        expected = (gen_cost(x, sc.cost) + ramp_cost(u, sc.cost)
                    - sc.cost.cm_at(t) * pm + penalty_xi(pm, sc.cost)
                    + lam * u)
        assert hamiltonian(PmpState(x, lam), u, t, sc) \
            == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- dynamics

def test_rhs_vanishes_at_stationary_point():
    sc = const_scenario(level=100.0, xstar=150.0)
    xstar = stationary_point(sc)
    dx, dlam = pmp_rhs(PmpState(x=xstar, lam=0.0), t=5.0, sc=sc)
    assert dx == 0.0
    assert dlam == pytest.approx(0.0, abs=1e-15)


def test_rhs_costate_matches_hamiltonian_gradient(corpus96):
    for name, sc in corpus96.items():
        load_vals = sc.load.values
        span = max(load_vals.max() - load_vals.min(), 1.0)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            x = rng.uniform(load_vals.min() - span, load_vals.max()
                            + sc.cost.pbar_kw + span)
            lam = rng.uniform(-40.0, 40.0)
            t = rng.uniform(0.0, 24.0)
            h = 1e-4 * (1.0 + abs(x))
            pm = x - sc.load.value_at(t)
            # central difference across a penalty kink is meaningless
            if abs(pm) < 2 * h or abs(pm - sc.cost.pbar_kw) < 2 * h:
                continue
            _, dlam = pmp_rhs(PmpState(x, lam), t, sc)
            fd = -(hamiltonian(PmpState(x + h, lam), 0.0, t, sc)
                   - hamiltonian(PmpState(x - h, lam), 0.0, t, sc)) / (2 * h)
            assert dlam == pytest.approx(fd, rel=1e-6, abs=1e-9), name
            checked += 1


def test_positive_costate_means_decreasing_state():
    sc = const_scenario(d=2.0)
    dx, _ = pmp_rhs(PmpState(x=100.0, lam=3.0), t=0.0, sc=sc)
    assert dx < 0.0


# ------------------------------------------------------------- integration

def _step_all(sc, z):
    """One `_rk4_stepper` step from the states z (shape (2, n)) at every
    node, at the scenario's weight."""
    m = sc.cost
    return _rk4_stepper(_day(sc).nodes[:, :sc.load.count], sc.load.dt, m.d,
                        m.g, m.alpha, m.pbar_kw)(z)[0]


def test_integration_holds_equilibrium_exactly():
    sc = const_scenario(level=100.0, xstar=150.0)
    z = np.array([[150.0], [0.0]]).repeat(sc.load.count, axis=1)
    end = _step_all(sc, z)
    assert np.all(end[0] == 150.0)
    assert np.all(end[1] == 0.0)


def _linear_test_setup(n):
    """Zero load keeps the penalty off while x stays within [0, Pbar].

    Returns the scenario and the exact states at every node, t = T
    included, shape (2, n + 1).
    """
    load = SampledProfile(24.0 / n, np.zeros(n))
    g, d, cm = 0.01, 1.0, 0.1166
    sc = make_scenario(load, FLEET20, g=g, d=d, cm=cm, alpha_schedule=(1.0,))
    xstar = cm / (2 * g)
    omega = np.sqrt(g / d)
    x0, lam0 = 8.0, 0.1
    a = 0.5 * ((x0 - xstar) - lam0 / (2 * d * omega))
    b = 0.5 * ((x0 - xstar) + lam0 / (2 * d * omega))
    t = np.arange(n + 1) * load.dt
    x = xstar + a * np.exp(omega * t) + b * np.exp(-omega * t)
    lam = -2 * d * omega * (a * np.exp(omega * t) - b * np.exp(-omega * t))
    return sc, np.array([x, lam])


def test_integration_matches_analytic_exponential():
    sc, exact = _linear_test_setup(96)
    end = _step_all(sc, exact[:, :-1])
    for got, want in zip(end, exact[:, 1:]):
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8


def test_integration_is_fourth_order():
    # the local error of a fourth-order step falls 2**5 = 32 times when
    # dt halves
    errors = []
    for n in (96, 192, 384):
        sc, exact = _linear_test_setup(n)
        end = _step_all(sc, exact[:, :-1])
        errors.append(np.max(np.abs(end[0] - exact[0, 1:])))
    assert 24.0 < errors[0] / errors[1] < 40.0
    assert 24.0 < errors[1] / errors[2] < 40.0


def reference_step(sc, s, i):
    """One classical RK4 step on pmp_rhs from the state s at node i."""
    dt = sc.load.dt
    t = i * dt

    def f(z, t):
        return np.array(pmp_rhs(PmpState(*z), t, sc))
    k1 = f(s, t)
    k2 = f(s + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(s + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(s + dt * k3, t + dt)
    return s + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def reference_rk4(sc, x0, lam0):
    """Classical RK4 on pmp_rhs, one step at a time, from (x0, lam0).

    Returns the (x, lam) state at every node, up to and including the
    first non-finite one.
    """
    states = [np.array([x0, lam0])]
    with np.errstate(all="ignore"):
        for i in range(sc.load.count):
            states.append(reference_step(sc, states[-1], i))
            if not np.all(np.isfinite(states[-1])):
                break
    return np.array(states)


def test_rk4_step_matches_reference_rk4(corpus96, solved96):
    # the fast kernel inlines pmp_rhs; both must give the same RK4 step
    # from every state of a reference pass
    for name in BINDING_NAMES + ("tv_cm", "duck"):
        sc, sol = corpus96[name], solved96[name]
        x0, lam0 = float(sol.x_traj[0]), float(sol.lambda_traj[0])
        ref = reference_rk4(sc, x0, lam0)
        assert ref.shape == (sc.load.count + 1, 2), name
        end = _step_all(sc, ref[:-1].T)
        for got, want in zip(end, ref[1:].T):
            assert np.max(np.abs(got - want)) \
                <= 1e-12 * np.max(np.abs(want)), name


def test_integration_divergence_error_carries_time():
    # from a constant start at every node, t_hours ends the first step
    # whose reference RK4 step is not finite: there the start lies
    # outside the box, and the penalty's huge weight overflows
    wavy = 100.0 + 10.0 * np.sin(np.arange(96))
    cases = [(np.zeros(96), 5000.0, 1.0), (wavy, 205.0, 0.0),
             (wavy, 109.5, -1.0)]
    for values, x0, lam0 in cases:
        sc = make_scenario(SampledProfile(0.25, values), FLEET20, g=1e-3,
                           d=1.0, cm=0.1, alpha_schedule=(1e300,))
        with np.errstate(all="ignore"):
            first = next(i for i in range(sc.load.count) if not np.all(
                np.isfinite(reference_step(sc, np.array([x0, lam0]), i))))
        with pytest.raises(DivergenceError) as err:
            solve(sc, PmpState(x=x0, lam=lam0))
        assert err.value.t_hours == (first + 1) * sc.load.dt
        assert err.value.initial_state == (x0, lam0)


def test_divergence_at_a_resolved_weight_is_raised_unchanged():
    """Only a weight above the grid's limit gets the limit in its message."""
    sc = plant_duck_undersized(96, alpha_schedule=(1.0,))
    assert 1.0 < resolvable_alpha(sc)
    with pytest.raises(DivergenceError) as err:
        solve(sc, PmpState(1e308, 0.0))
    assert str(err.value) == "non-finite state at t = 0.25 h"
    assert err.value.initial_state == (1e308, 0.0)


# ------------------------------------------------------------- shooting

def test_shoot_constant_converges_at_reference_guess():
    sc = const_scenario(level=100.0, xstar=150.0)
    sol = solve(sc, PmpState(x=stationary_point(sc), lam=0.0))
    assert sol.converged
    assert sol.newton_iters <= 1
    assert np.allclose(sol.x_traj, 150.0, atol=1e-9)
    assert np.allclose(sol.lambda_traj, 0.0, atol=1e-9)


def test_shoot_basin_reaches_same_fixed_point():
    sc = const_scenario(level=100.0, xstar=150.0)
    rng = np.random.default_rng(23)
    for _ in range(8):
        guess = PmpState(x=rng.uniform(110.0, 200.0), lam=rng.uniform(-2.0, 2.0))
        sol = solve(sc, guess)
        assert sol.converged
        assert sol.x_traj[0] == pytest.approx(150.0, abs=1e-6)
        assert sol.lambda_traj[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("guess", [(160.0, 0.5), (140.0, -1.0), (151.0, 0.1)])
def test_shoot_closes_in_one_step_inside_box(guess):
    # inside the box every step is affine, so exact Newton is one step
    sc = const_scenario(level=100.0, xstar=150.0)
    sol = solve(sc, PmpState(*guess))
    assert sol.converged
    assert sol.newton_iters == 1
    assert sol.periodic_residual <= 1e-12
    assert sol.rk4_passes == 2


def test_step_jacobian_matches_central_differences(solved96, corpus96):
    # each node's step depends on that node alone, so one perturbed pass
    # differences every node at once
    for name in BINDING_NAMES:
        sc = corpus96[name]
        sol = solved96[name]
        assert sol.alpha_used == sc.alpha_schedule[-1], name
        nodes, m = _day(sc).nodes, sc.cost
        step = _rk4_stepper(nodes, sc.load.dt, m.d, m.g, m.alpha, m.pbar_kw)
        z = np.array([sol.x_traj, sol.lambda_traj])
        _, excess = step(z)
        assert any(np.any(ex) for ex in excess), name  # the penalty acts
        exact = _rk4_step_derivative(excess, sc.load.dt, sc.cost.d,
                                     sc.cost.g, sc.cost.alpha)
        for j in range(2):
            h = 1e-7 * (1.0 + np.abs(z[j]))
            plus, minus = z.copy(), z.copy()
            plus[j] += h
            minus[j] -= h
            up = step(plus)[0].copy()  # the next call overwrites it
            down = step(minus)[0]
            for i in range(2):
                fd = (up[i] - down[i]) / (2.0 * h)
                blk = exact[2 * i + j]
                assert np.max(np.abs(blk - fd)) \
                    <= 1e-5 * np.max(np.abs(blk)), (name, i, j)


def test_condensed_table_is_read_only_and_keyed_on_the_cost_model():
    key = (0.25, 1.0, CM1 / 300.0, 100.0)
    table = _condensed_table(*key)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert _condensed_table(*key) is table
    for i in range(4):  # dt, d, g, alpha
        other = _condensed_table(*key[:i], 1.5 * key[i], *key[i + 1:])
        assert other is not table and not np.array_equal(other, table), i


def test_fleet_count_shares_one_condensed_table(monkeypatch):
    sc = plant_duck_undersized(96)
    bigger = make_scenario(sc.load, FleetSpec(M1, sc.fleet.count + 1), d=1.0)
    built = []
    monkeypatch.setattr(pmp, "_condensed_table",
                        lambda *key: built.append(_condensed_table(*key))
                        or built[-1])
    assert solve(sc).newton_iters and solve(bigger).newton_iters
    assert len(built) == 2 and built[0] is built[1]


def test_scenario_baseline_is_objective_of_no_mining(corpus96):
    for name, sc in corpus96.items():
        fresh = pmp.objective(sc, np.zeros(sc.load.count))
        baseline = pmp._day(sc).baseline
        assert baseline == fresh, name  # every term, bit for bit
        assert pmp._day(sc).baseline is baseline, name


@pytest.mark.parametrize("n", [4, 5, 96])
def test_cyclic_thomas_solves_dominant_system(n):
    rng = np.random.default_rng(n)
    lo, up = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    di = -(np.abs(lo) + np.abs(up) + rng.uniform(0.01, 1.0, n))
    rhs = rng.normal(size=n)
    dense = np.diag(di)
    for k in range(n):
        dense[k, (k - 1) % n] += lo[k]
        dense[k, (k + 1) % n] += up[k]
    v = _cyclic_thomas(lo.tolist(), di.tolist(), up.tolist(), rhs.tolist())
    assert np.max(np.abs(dense @ v - rhs)) <= 1e-12


def test_converged_implies_residual_within_tolerance(solved96, corpus96):
    for name, sol in solved96.items():
        tol = corpus96[name].tolerances
        assert sol.converged, name
        assert sol.periodic_residual <= tol.tol_bc, name


def test_shoot_rejects_non_finite_guess():
    sc = const_scenario()
    for x in (float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            solve(sc, PmpState(x=x, lam=0.0))


# ------------------------------------------------------------- solve

def test_solve_depends_only_on_resolved_alpha(corpus96):
    # no continuation: a longer schedule ending at the same weight gives
    # the same solve, bit for bit
    sc = corpus96["peak_touch"]
    single = make_scenario(sc.load, sc.fleet, g=sc.cost.g, d=sc.cost.d,
                           cm=sc.cost.cm, alpha_schedule=(16.0,))
    a, b = solve(sc), solve(single)
    assert np.array_equal(a.x_traj, b.x_traj)
    assert np.array_equal(a.lambda_traj, b.lambda_traj)
    assert (a.alpha_used, a.newton_iters) == (b.alpha_used, b.newton_iters)


def test_constant_scenario_objective_matches_closed_form():
    sc = const_scenario(level=100.0, xstar=150.0)
    sol = solve(sc)
    bd = evaluate(sol, sc)
    per_hour = (sc.cost.g * 150.0 ** 2 - float(sc.cost.cm) * 50.0)
    assert bd.total_usd == pytest.approx(per_hour * 24.0, rel=1e-9)
    assert bd.ramping_usd == 0.0
    assert bd.penalty_usd == 0.0


def test_solve_counts_passes_and_linear_solves(solved96):
    # one residual pass to start, then one per linear solve
    for name, sol in solved96.items():
        assert sol.rk4_passes == sol.newton_iters + 1, name
    assert max(solved96[name].newton_iters for name in BINDING_NAMES) >= 2


def test_debug_log_has_one_record_per_newton_iteration(corpus96, caplog):
    sc = corpus96["two_peak_touch"]
    with caplog.at_level(logging.DEBUG, logger="rampsched.pmp"):
        sol = solve(sc)
    records = [r for r in caplog.records if r.name == "rampsched.pmp"]
    assert len(records) == sol.newton_iters >= 2
    assert [r.iter for r in records] == list(range(1, sol.newton_iters + 1))
    assert records[-1].defect == sol.periodic_residual
    assert records[-1].penalty_stages > 0
    assert all(r.ms >= 0.0 and r.levelno == logging.DEBUG for r in records)


def test_guard_stops_at_largest_resolved_alpha(caplog):
    sc = plant_duck_undersized(96)
    assert sc.alpha_schedule == (1.0, 10.0, 100.0, 1e3, 1e4)
    assert 100.0 < resolvable_alpha(sc) < 1e3
    with caplog.at_level(logging.WARNING, logger="rampsched.pmp"):
        sol = solve(sc)
    assert not sol.converged
    assert sol.alpha_used == 100.0
    assert sol.periodic_residual <= sc.tolerances.tol_bc
    assert not caplog.records  # the stop is reported by its caller, once
    assert failure_reason(sol, sc) == (
        "the penalty acts at alpha 100; the requested alpha 10000 is above "
        "124.1, the largest alpha that dt = 0.25 h resolves")


def test_guard_schedule_within_reach_matches_oracle():
    sc = plant_duck_undersized(96, alpha_schedule=(1.0, 10.0, 100.0))
    sol = solve(sc)
    assert sol.converged and sol.alpha_used == 100.0
    ref = solve_active_set(sc)
    pm = sol.pm_clipped[:-1]
    # under the soft alpha = 100 box the raw draw leaves [0, Pbar] by
    # 0.09 % of Pbar, and with its penalty dropped it scores 2.9 % below
    # the oracle's optimum; the clipped schedule scores 0.16 % above it
    gap = discretize_objective(sc, pm) - ref.objective
    assert 0.0 <= gap <= 0.005 * (1.0 + abs(ref.objective))
    assert np.max(np.abs(pm - ref.pm)) <= 0.02 * sc.cost.pbar_kw
    assert sol.box_violation_frac <= 0.01


def test_interior_day_converges_beyond_resolved_alpha(corpus96):
    sc = corpus96["plant_duck"]
    full = make_scenario(sc.load, sc.fleet, d=1.0)
    assert resolvable_alpha(full) < 1e4
    sol = solve(full)
    assert sol.converged
    assert sol.alpha_used == 1e4
    assert sol.box_violation_kw == 0.0


@pytest.mark.parametrize("name,n", [("plant_duck_085", 1440),
                                    ("peak_touch_wide", 96)])
def test_long_arc_scenario_converges_at_final_alpha(name, n):
    sc = build_long_arc(n)[name]
    sol = solve(sc)
    assert sol.converged, sol.periodic_residual
    assert sol.alpha_used == sc.alpha_schedule[-1]
    assert sol.box_violation_frac <= 0.01


def test_solver_iterates_pinned(solved96):
    """Newton keeps its exact iterates: sha256 of x_traj and lambda_traj
    on the binding corpus at n=96, the undersized plant day stopped at
    alpha = 100 at n=96 and the long-arc plant duck day at n=1440."""
    sols = [solved96[name] for name in BINDING_NAMES]
    sols.append(solve(plant_duck_undersized(96)))
    sols.append(solve(build_long_arc(1440)["plant_duck_085"]))
    digests = []
    for sol in sols:
        h = hashlib.sha256(sol.x_traj.tobytes())
        h.update(sol.lambda_traj.tobytes())
        digests.append(h.hexdigest())
    assert digests == [
        "e0fda2fb6abeafe4af60b4b264d4c14f314127874e6a86c1565aab72e0fbe32b",
        "663583eb4ff0cebb1dd490f34815bf416ec461f93053dbabb12a8d0866dabb18",
        "5bbe2e10279d9636fb34a785a6cb16ade530882c42f04b058471e763dc85c790",
        "05db44cd385369b6dde1ec9fe8ac9fb3048bb2aaaf3996785d3875993911ce7c",
        "dff4a393e477fc528d517a854497190b98eeb419b671d58935f0dd2eafa7cbd3",
        "3d0187028f691c4931acdc95ded7a6f5851bdf3ff1ca42c7021a05104e2317d4"]


def test_stationary_point_values():
    load = SampledProfile(0.25, np.full(96, 0.3))
    sc = make_scenario(load, FLEET20, g=0.5, cm=1.0, alpha_schedule=(1.0,))
    assert stationary_point(sc) == pytest.approx(1.0)
    sc0 = make_scenario(load, FLEET20, g=0.5, cm=0.0, alpha_schedule=(1.0,))
    assert stationary_point(sc0) == 0.0


def test_stationary_point_needs_constant_cm(corpus96):
    with pytest.raises(ValidationError):
        stationary_point(corpus96["tv_cm"])


def test_solver_reaches_stationary_point_on_constant_scenarios(solved96, corpus96):
    for name in ("const_feasible", "plant_duck", "m3_sin"):
        sc = corpus96[name]
        xstar = stationary_point(sc)
        sol = solved96[name]
        assert np.max(np.abs(sol.x_traj - xstar)) <= 1e-6 * xstar, name


def test_balance_constraint_exact(solved96, corpus96):
    for name, sol in solved96.items():
        pl = corpus96[name].load.values
        pl_ext = np.concatenate([pl, pl[:1]])
        assert np.array_equal(sol.pm_traj, sol.x_traj - pl_ext), name


def test_clipped_draw_stays_in_box(solved96, corpus96):
    for name, sol in solved96.items():
        pbar = corpus96[name].cost.pbar_kw
        assert np.all(sol.pm_clipped >= 0.0), name
        assert np.all(sol.pm_clipped <= pbar), name


def test_solve_is_deterministic(corpus96):
    sc = corpus96["peak_touch"]
    a = solve(sc)
    b = solve(sc)
    assert np.array_equal(a.x_traj, b.x_traj)
    assert np.array_equal(a.lambda_traj, b.lambda_traj)
    assert a.periodic_residual == b.periodic_residual
    assert a.newton_iters == b.newton_iters


def test_rk4_stepper_results_match_fresh_steps(corpus96, solved96):
    """The stepper overwrites its result buffers on each call: stepping
    z1, then z2, then z1 again gives, bit for bit, what a fresh stepper
    gives for each state."""
    sc, sol = corpus96["peak_touch"], solved96["peak_touch"]
    nodes, m = _day(sc).nodes, sc.cost
    step = _rk4_stepper(nodes, sc.load.dt, m.d, m.g, m.alpha, m.pbar_kw)
    z1 = np.array([sol.x_traj, sol.lambda_traj])
    z2 = z1 - [[0.5 * m.pbar_kw], [0.0]]  # more stages below the box
    states = (z1, z2, z1)
    got = [[out.copy() for out in step(z)] for z in states]
    assert np.count_nonzero(got[1][1]) > np.count_nonzero(got[0][1]) > 0
    for z, (end, excess) in zip(states, got):
        want_end, want_excess = _rk4_stepper(
            nodes, sc.load.dt, m.d, m.g, m.alpha, m.pbar_kw)(z)
        assert end.tobytes() == want_end.tobytes()
        assert excess.tobytes() == want_excess.tobytes()


def _plain_rk4_step(z, nodes, dt, d, g, alpha, pbar):
    """`_rk4_stepper`'s step as plain expressions: Python-float operands,
    `box_excess(pm, pbar)` and a rate column broadcast over (lam, x)."""
    pl0, plh, pl1, cm0, cmh, cm1 = nodes
    rate = np.array([[-1.0 / (2.0 * d)], [-2.0 * g]])
    a2, h2, h6 = 2.0 * alpha, 0.5 * dt, dt / 6.0
    excess = []

    def slope(zs, pl, cm):
        excess.append(box_excess(zs[0] - pl, pbar))
        k = rate * zs[::-1]
        k[1] = k[1] + cm - a2 * excess[-1]
        return k

    k1 = slope(z, pl0, cm0)
    k2 = slope(z + h2 * k1, plh, cmh)
    k3 = slope(z + h2 * k2, plh, cmh)
    k4 = slope(z + dt * k3, pl1, cm1)
    return z + h6 * (k1 + 2.0 * (k2 + k3) + k4), np.array(excess)


@pytest.mark.parametrize("n", [48, 96, 1440])
def test_rk4_stepper_has_the_bits_of_the_plain_expressions(n):
    """Array operands change no bit of the kernel: from the solved corpus
    states, states with stages exactly on 0 and on Pbar, states far
    outside the box and -0.0 entries, the stepper's end states and
    excess equal `_plain_rk4_step`'s byte for byte."""
    on_pbar = 0
    for name, sc in build_corpus(n).items():
        m, dt = sc.cost, sc.load.dt
        nodes = _day(sc).nodes
        signed = nodes.copy()
        signed[:3, ::2] = 0.0  # p_L = 0 where the states below hold -0.0
        sol = solve(sc)
        x, lam = sol.x_traj, sol.lambda_traj
        zero = np.zeros_like(x)
        states = [(nodes, np.array(z)) for z in (
            (x, lam),
            (nodes[0], lam), (nodes[0] + m.pbar_kw, lam),  # stage 1 on 0, Pbar
            (nodes[1], zero), (nodes[1] + m.pbar_kw, zero),  # stage 2 on 0, Pbar
            (nodes[2], lam), (nodes[2] + m.pbar_kw, lam),  # near stage 4's
            (nodes[0] - 1e3 * m.pbar_kw, 1e3 * lam),  # far below, far above
            (nodes[0] + 1e3 * m.pbar_kw, -1e3 * lam))]
        states.append((signed, np.where(signed[0] == 0.0, -0.0, (x, lam))))
        on_pbar += np.count_nonzero((nodes[0] + m.pbar_kw) - nodes[0] == m.pbar_kw)
        step = _rk4_stepper(nodes, dt, m.d, m.g, m.alpha, m.pbar_kw)
        step_signed = _rk4_stepper(signed, dt, m.d, m.g, m.alpha, m.pbar_kw)
        for i, (data, z) in enumerate(states):
            end, excess = (step if data is nodes else step_signed)(z)
            want_end, want_excess = _plain_rk4_step(
                z, data, dt, m.d, m.g, m.alpha, m.pbar_kw)
            assert end.tobytes() == want_end.tobytes(), (name, i)
            assert excess.tobytes() == want_excess.tobytes(), (name, i)
    assert on_pbar > 0


def test_rk4_stepper_closure_is_not_a_20_tuple():
    """CPython 3.11 puts a freed 20-tuple on its free list and never takes
    it back, so a stepper closure of 20 cells would leave one tuple per
    solve there, up to 2,000 of them (0.37 MB of peak RSS)."""
    step = _rk4_stepper(np.zeros((6, 5)), 0.25, 1.0, 1.0, 1.0, 1.0)
    assert len(step.__closure__) != 20


def test_grids_of_one_size_share_no_operands(corpus96):
    """Solves on two grids of n nodes and different dt, in turn, give
    byte for byte what each gives on its first solve."""
    a = corpus96["peak_touch"]
    b = dataclasses.replace(
        a, load=SampledProfile(2.0 * a.load.dt, a.load.values))
    want = [_solution_bytes(solve(sc)) for sc in (a, b)]
    assert [_solution_bytes(solve(sc)) for sc in (a, b, a, b)] == want * 2


def test_solves_share_no_workspace(corpus96):
    """A solve of another scenario at another n between two solves of one
    scenario leaves the second's results byte-identical to the first's."""
    def run(sc):
        sol, ref = solve(sc), solve_active_set(sc)
        return [sol.x_traj.tobytes(), sol.lambda_traj.tobytes(),
                sol.pm_clipped.tobytes(), ref.pm.tobytes(),
                repr((sol.periodic_residual, sol.newton_iters, ref.objective,
                      ref.grad_norm, ref.iterations))]
    a = corpus96["peak_touch"]
    first = run(a)
    run(build_corpus(48)["two_peak_touch"])
    assert run(a) == first


@pytest.mark.parametrize("name", ["peak_touch", "trough_touch", "tv_cm"])
def test_fleet_ladder_shares_day_data_exactly(corpus96, name):
    """Scenarios of one load object at many fleet sizes share the day's
    node data and baseline; each point is byte-identical to a solve on a
    fresh copy of the load, which shares nothing."""
    day = corpus96[name]
    m = day.cost

    def point(load, count):
        sc = make_scenario(load, FleetSpec(M1, count), g=m.g, d=m.d,
                           cm=m.cm, alpha_schedule=day.alpha_schedule)
        sol = solve(sc)
        assert sol.converged, count
        return [sol.x_traj.tobytes(), sol.lambda_traj.tobytes(),
                sol.pm_traj.tobytes(), breakdown_as_dict(evaluate(sol, sc)),
                report_as_dict(daily_report(sol, sc, M1))]

    counts = [round(f * day.fleet.count) for f in (0.9, 1.0, 1.5, 3.0)]
    shared = [point(day.load, count) for count in counts]
    for count, want in zip(counts, shared):
        fresh = SampledProfile(day.load.dt, day.load.values.copy())
        assert point(fresh, count) == want, count
    shared = _day(day)
    for v in (shared.nodes, shared.cm):
        assert not v.flags.writeable


def _fresh(load: SampledProfile) -> SampledProfile:
    """A copy of the load, so its day shares nothing with the load's."""
    return SampledProfile(load.dt, load.values.copy())


def _solution_bytes(sol) -> list:
    """Every `PmpSolution` field: arrays as bytes, the rest as repr."""
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for v in (getattr(sol, f.name) for f in dataclasses.fields(sol))]


def test_interior_points_take_the_days_interior_pass(corpus96):
    """A day's points whose box holds every stage draw of its interior
    pass (`pmp._Day.interior`) get that pass, solved from small to large
    fleets or from large to small on a fresh copy of the load: 0 Newton
    steps, 1 RK4 pass and the pass's arrays, with the bytes of Newton
    started from `initial_guess` given as an explicit guess.  A box below
    the largest draw, a tol_bc under the pass's defect, an explicit guess
    and a weight-0 solve from a box its start leaves run Newton."""
    day = corpus96["plant_duck"]  # its optimum is the constant start

    def scenario(load, count, **kw):
        kw.setdefault("alpha_schedule", day.alpha_schedule)
        return make_scenario(load, FleetSpec(M1, count), d=1.0, **kw)

    n_star = interior_count(day.load, G1)
    counts = [n_star, n_star + 10, round(1.25 * n_star)]
    for load, order in ((_fresh(day.load), counts),
                        (_fresh(day.load), counts[::-1])):
        for count in order:
            sc = scenario(load, count)
            sol, (_, interior, _) = solve(sc), pmp._day(sc).interior
            assert (sol.newton_iters, sol.rk4_passes, sol.converged,
                    sol.alpha_used, sol.box_violation_kw) \
                == (0, 1, True, sc.cost.alpha, 0.0), count
            assert all(getattr(sol, name) is getattr(interior, name)
                       for name in SOLUTION_ARRAYS), count
            newton = solve(sc, pmp.initial_guess(sc))
            assert newton.x_traj is not interior.x_traj
            assert _solution_bytes(newton) == _solution_bytes(sol), count

    below = scenario(load, n_star - 1)
    assert below.cost.pbar_kw < pmp._day(below).interior[0]
    assert solve(below).newton_iters > 0

    tv = corpus96["tv_cm"]  # its pass stays inside, off the optimum
    least_pbar, interior, _ = pmp._day(tv).interior
    defect = interior.periodic_residual
    assert defect > 0.0 and least_pbar <= tv.cost.pbar_kw
    at = Tolerances(defect)
    assert solve(dataclasses.replace(tv, tolerances=at)).x_traj \
        is interior.x_traj
    under = Tolerances(math.nextafter(defect, 0.0))
    assert solve(dataclasses.replace(tv, tolerances=under)).newton_iters > 0

    # at weight 0 the penalty never acts, so the constant start solves
    # any box without a Newton step; from a box below its largest draw
    # the solve is Newton's, and its clipped draw reads the box
    small = scenario(load, 1000, alpha_schedule=(0.0,))
    _, interior, _ = pmp._day(small).interior
    assert pmp.initial_guess(small).x == interior.x_traj[0]
    sol = solve(small)
    assert sol.newton_iters == 0 and sol.box_violation_kw > 0.0
    assert sol.x_traj is not interior.x_traj


def test_a_day_builds_its_interior_pass_on_first_use(corpus96,
                                                     monkeypatch):
    """On a fresh load, a solve whose start leaves the box, with its
    `evaluate`, `solution_diagnostics` and `daily_report`, leaves the
    day's interior pass unbuilt.  An interior ladder builds it once, in
    the one RK4 stepper of the ladder, and every point shares it."""
    trough = corpus96["trough_touch"]  # the upper bound binds at night
    sc = dataclasses.replace(trough, load=_fresh(trough.load))
    sol = solve(sc)
    assert sol.converged and sol.newton_iters > 0
    evaluate(sol, sc)
    pmp.solution_diagnostics(sol, sc)
    daily_report(sol, sc, M1)
    assert "interior" not in vars(_day(sc))

    steppers = []
    stepper = pmp._rk4_stepper
    monkeypatch.setattr(pmp, "_rk4_stepper",
                        lambda *args: steppers.append(args) or stepper(*args))
    day = corpus96["plant_duck"]  # its optimum is the constant start
    load = _fresh(day.load)
    n_star = interior_count(load, G1)
    ladder = [make_scenario(load, FleetSpec(M1, count), d=1.0,
                            alpha_schedule=day.alpha_schedule)
              for count in (n_star, n_star + 10, round(1.25 * n_star))]
    sols = [solve(sc) for sc in ladder]
    shared = _day(ladder[0])
    assert "interior" in vars(shared) and len(steppers) == 1
    _, interior, bd = shared.interior
    for sc, sol in zip(ladder, sols):
        assert _day(sc) is shared, sc.fleet.count
        assert sol.x_traj is interior.x_traj, sc.fleet.count
        assert evaluate(sol, sc) is bd, sc.fleet.count
        daily_report(sol, sc, M1)
    assert len(steppers) == 1


def test_evaluate_prices_the_interior_draw_once_per_day(corpus96):
    """The interior pass's draw has one breakdown per day: at every box
    that holds the pass, at any weight, `evaluate` returns that object,
    with the bits of `objective`, and `daily_report` reads its ramping
    term; in a box the draw leaves it is priced afresh, with a penalty."""
    day = corpus96["plant_duck"]  # its optimum is the constant start
    load = _fresh(day.load)

    def scenario(count, schedule=day.alpha_schedule):
        return make_scenario(load, FleetSpec(M1, count), d=1.0,
                             alpha_schedule=schedule)

    n_star = interior_count(load, G1)
    sol = solve(scenario(n_star))
    bd = evaluate(sol, scenario(n_star))
    assert bd is pmp._day(scenario(n_star)).interior[2]
    for sc in (scenario(n_star), scenario(n_star + 10),
               scenario(round(1.25 * n_star)), scenario(n_star, (1.0, 1e3))):
        assert evaluate(sol, sc) is bd, sc.fleet.count
        assert repr(bd) == repr(
            pmp.objective(sc, sol.pm_traj[:-1], pmp._day(sc).baseline))
    report = daily_report(sol, scenario(n_star + 10), M1)
    assert report.ramping_saved_fleet \
        == bd.baseline.ramping_usd - bd.ramping_usd
    tight = scenario(round(0.5 * sol.pm_traj.max() / M1.demand_kw))
    got = evaluate(sol, tight)
    assert got is not bd and got.penalty_usd > 0.0
    assert repr(got) \
        == repr(pmp.objective(tight, sol.pm_traj[:-1], pmp._day(tight).baseline))


def _solve_and_price(sc) -> list:
    """`_solution_bytes` of the scenario's solve, then its `evaluate` and,
    if it converged, its `daily_report`."""
    sol = solve(sc)
    report = daily_report(sol, sc, M1) if sol.converged else None
    return [*_solution_bytes(sol), breakdown_as_dict(evaluate(sol, sc)),
            report and report_as_dict(report)]


def test_threads_sharing_a_day_get_fresh_solve_bytes():
    """Four threads solve and price one day's ladder, each in its own
    order, on a shared load while the interpreter switches threads every
    microsecond: every point has the bytes and prices of a ladder solved
    from large to small fleets on a fresh copy of the load, which solves
    every point."""
    rng = np.random.default_rng(5)
    for day in random_days(RANDOM_DAYS_SEED, 2):
        down = ladder_scenarios(day, _fresh(day[1]))[::-1]
        want = [_solve_and_price(sc) for sc in down][::-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(3):
                    scs = ladder_scenarios(day, _fresh(day[1]))
                    futures = [pool.submit(lambda order: [
                        (i, _solve_and_price(scs[i])) for i in order],
                        rng.permutation(len(scs)).tolist()) for _ in range(4)]
                    for future in futures:
                        for i, got in future.result(timeout=60):
                            assert got == want[i], i
        finally:
            sys.setswitchinterval(interval)


def test_solutions_are_read_only(solved96):
    """`solve`'s arrays refuse writes, so solutions can be shared;
    `dataclasses.replace` still builds a variant from a copy."""
    sol = solved96["peak_touch"]
    for name in SOLUTION_ARRAYS:
        with pytest.raises(ValueError):
            getattr(sol, name)[0] = 1.0
    pm = sol.pm_traj.copy()
    pm[0] = -1.0
    pushed = dataclasses.replace(sol, pm_traj=pm)
    assert pushed.pm_traj[0] == -1.0 and sol.pm_traj[0] != -1.0
    assert pushed.x_traj is sol.x_traj


def test_random_day_ladders_converge_or_name_the_limit():
    """Seeded random days of both families (`random_days`), each solved
    over the fleet ladder: every point converges within criterion 3's
    bounds against the box-exact oracle, or stops with a failure_reason
    that names the grid limit.  The ladder ascending on the load and
    the ladder descending on a fresh copy of it give the same bytes for
    every field, and both take the day's interior pass at the same
    points."""
    interior = 0
    for day in random_days(RANDOM_DAYS_SEED, RANDOM_DAYS):
        scs = ladder_scenarios(day)
        counts = [sc.fleet.count for sc in scs]
        assert counts == sorted(set(counts))
        up = [solve(sc) for sc in scs]
        fresh = ladder_scenarios(day, _fresh(day[1]))
        down = [solve(sc) for sc in fresh[::-1]][::-1]
        took = [[sol.pm_traj is pmp._day(sc).interior[1].pm_traj
                 for sc, sol in zip(ladder, sols)]
                for ladder, sols in ((scs, up), (fresh, down))]
        assert took[0] == took[1], day[0]
        interior += sum(took[0])
        for sc, sol, sol_down in zip(scs, up, down):
            where = (day[0], sc.fleet.count)
            assert _solution_bytes(sol) == _solution_bytes(sol_down), where
            if not sol.converged:
                assert "the largest alpha that dt" in failure_reason(sol, sc)
                continue
            pbar = sc.cost.pbar_kw
            ref = solve_active_set(sc)
            assert ref.grad_norm <= 1e-8 * pbar, where
            bd = evaluate(sol, sc)
            gap = bd.generation_usd + bd.ramping_usd - bd.revenue_usd \
                - ref.objective
            assert abs(gap) <= 0.005 * (1.0 + abs(ref.objective)), where
            assert np.max(np.abs(sol.pm_clipped[:-1] - ref.pm)) \
                <= 0.02 * pbar, where
    assert interior


def test_random_day_ladders_pinned():
    """The seeded random days solved and priced over the ascending
    ladder, as a sizing study runs them, keep their exact bytes: one
    sha256 over every `PmpSolution` field of every point and the
    `evaluate` and `daily_report` of every converged point."""
    h = hashlib.sha256()
    for day in random_days(RANDOM_DAYS_SEED, RANDOM_DAYS):
        for sc in ladder_scenarios(day):
            sol = solve(sc)
            for field in _solution_bytes(sol):
                h.update(field if isinstance(field, bytes) else field.encode())
            if sol.converged:
                h.update(repr((breakdown_as_dict(evaluate(sol, sc)),
                               report_as_dict(daily_report(sol, sc, M1))))
                         .encode())
    assert h.hexdigest() == PINNED_RANDOM_LADDERS


def test_report_ramping_saving_is_evaluate_saving(solved96, corpus96):
    for name, sc in corpus96.items():
        sol = solved96[name]
        bd = evaluate(sol, sc)
        saved = bd.baseline.ramping_usd - bd.ramping_usd
        assert daily_report(sol, sc, M1).ramping_saved_fleet == saved, name


def test_objective_dominates_constant_baselines(solved96, corpus96):
    for name, sc in corpus96.items():
        sol = solved96[name]
        total = evaluate(sol, sc).total_usd
        for frac in (0.0, 1.0, 0.5):
            base = _constant_draw_objective(sc, frac * sc.cost.pbar_kw)
            assert total <= base + 1e-6 * (1.0 + abs(base)), (name, frac)


def _constant_draw_objective(sc, draw):
    dt = sc.load.dt
    pl = sc.load.values
    pg = np.concatenate([pl, pl[:1]]) + draw
    fwd = (np.roll(pl, -1) - pl) / dt
    ramp = np.concatenate([fwd, fwd[:1]])
    t = np.arange(pl.size + 1) * dt
    cm_t = np.asarray(sc.cost.cm_at(t), dtype=float)
    dens = (sc.cost.g * pg ** 2 + sc.cost.d * ramp ** 2 - cm_t * draw
            + np.asarray(penalty_xi(draw, sc.cost)))
    return float(dt * (dens.sum() - 0.5 * (dens[0] + dens[-1])))


def test_unreachable_stage_flags_not_converged(monkeypatch, caplog):
    # one Newton iteration cannot close a binding scenario cold; Newton
    # stops at the cap after the pass that follows its one update
    monkeypatch.setattr(pmp, "_MAX_NEWTON_ITERS", 1)
    load = SampledProfile(0.25, 100.0 + 12.0 * np.exp(
        -((np.arange(96) * 0.25 - 19.0) ** 2) / 2.88))
    sc = make_scenario(load, FLEET20, g=CM1 / 212.0, d=1.0,
                       alpha_schedule=(0.25, 16.0))
    with caplog.at_level(logging.DEBUG, logger="rampsched.pmp"):
        sol = solve(sc)
    assert not sol.converged
    assert (sol.newton_iters, sol.rk4_passes) == (1, 2)
    assert sol.periodic_residual > sc.tolerances.tol_bc
    (record,) = [r for r in caplog.records if r.name == "rampsched.pmp"]
    assert (record.iter, record.defect) == (1, sol.periodic_residual)


# ------------------------------------------------------------- evaluation

def test_breakdown_total_is_sum_of_terms(solved96, corpus96):
    for name, sol in solved96.items():
        bd = evaluate(sol, corpus96[name])
        recon = (bd.generation_usd + bd.ramping_usd - bd.revenue_usd
                 + bd.penalty_usd)
        assert bd.total_usd == pytest.approx(recon, abs=1e-9), name


def test_duck_ramping_under_baseline(solved96, corpus96):
    bd = evaluate(solved96["duck"], corpus96["duck"])
    assert bd.baseline.ramping_usd > 0.0
    assert bd.ramping_usd < bd.baseline.ramping_usd


# ------------------------------------------------------------- validation

def test_alpha_schedule_must_increase():
    load = SampledProfile(0.25, np.full(96, 100.0))
    for schedule in ((1.0, 1.0), (1.0, float("nan"), 100.0)):
        with pytest.raises(ValidationError, match="strictly increasing"):
            make_scenario(load, FLEET20, g=1e-3, alpha_schedule=schedule)


def test_empty_alpha_schedule_is_an_input_error():
    load = SampledProfile(0.25, np.full(96, 100.0))
    for schedule in ((), []):
        with pytest.raises(ValidationError, match="must not be empty"):
            make_scenario(load, FLEET20, g=1e-3, alpha_schedule=schedule)


def test_tol_bc_must_be_positive():
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="tol_bc"):
            Tolerances(tol_bc=tol)


def test_replace_rebuilds_the_cost_model(corpus96):
    """A scenario's penalty weight is its schedule's last entry and its
    miner bound its fleet's: `dataclasses.replace` of either rebuilds
    `cost`, and solves as `make_scenario` of the same inputs does.  An
    explicit g stays; a default g follows the new fleet's machine."""
    sc = corpus96["peak_touch"]  # g = CM1 / 212, 20 machines of M1
    weights = dataclasses.replace(sc, alpha_schedule=(1.0, 4.0))
    bigger = dataclasses.replace(sc, fleet=FleetSpec(M1, 40))
    assert weights.cost.alpha == 4.0
    assert weights.cost.pbar_kw == sc.cost.pbar_kw == 20 * M1.demand_kw
    assert bigger.cost.pbar_kw == 40 * M1.demand_kw
    assert bigger.cost.alpha == sc.cost.alpha == sc.alpha_schedule[-1]
    assert bigger.cost.g == weights.cost.g == sc.g == CM1 / 212.0
    for got, fleet, schedule in ((weights, sc.fleet, (1.0, 4.0)),
                                 (bigger, FleetSpec(M1, 40), sc.alpha_schedule)):
        want = make_scenario(_fresh(sc.load), fleet, g=sc.g, d=sc.d,
                             alpha_schedule=schedule)
        assert want.cost == got.cost
        assert _solution_bytes(solve(got)) == _solution_bytes(solve(want))

    plant = corpus96["plant_duck"]  # default g and cm, machine 1
    m3 = dataclasses.replace(plant, fleet=FleetSpec(M3, 2924))
    assert plant.g is None and m3.g is None
    assert plant.cost.g == G1
    assert m3.cost.g == compute_g(M3) != G1
    assert m3.cost.cm == compute_cm(M3)
    assert make_scenario is Scenario


def test_cm_profile_must_share_grid():
    load = SampledProfile(0.25, np.full(96, 100.0))
    cm = SampledProfile(0.5, np.full(48, 0.1))
    with pytest.raises(ValidationError):
        make_scenario(load, FLEET20, g=1e-3, cm=cm, alpha_schedule=(1.0,))


# ------------------------------------------------------------- export

@pytest.mark.parametrize("times,line", [
    ((0.5, 0.75, 1.0, 1.25, 1.5), 2), ((0.0, 0.0, 0.0, 0.0, 0.0), 3),
    ((0.0, -0.25, -0.5, -0.75, -1.0), 3),
    ((0.0, 0.25, 0.5000001, 0.75, 1.0), 4),
    ((0.0, 1e308, 1.7e308, 1.7e308, 1.7e308), 4),
    ((0.0, 8e307, -1.7e308, 1.7e308, 1.7e308), 4),
], ids=["nonzero-start", "zero-dt", "negative-dt", "off-grid",
        "grid-past-float-range", "gap-past-float-range"])
def test_solution_csv_times_must_be_uniform_from_zero(times, line):
    rows = "".join(f"{t!r},1,2,3,4,5,6\n" for t in times)
    with pytest.raises(ValidationError, match=f"^line {line}: t_h "):
        read_solution_csv((SOLUTION_CSV_HEADER + "\n" + rows).encode())


@pytest.mark.parametrize("case", ["clipped_zero_sign", "column_twice"])
def test_schedule_csv_matches_row_repr_reference(case):
    """The column writer writes what the row formula ",".join(map(repr,
    row)) writes, on random columns holding -0.0, 5e-324, 1e300 and 1/3."""
    n = 36
    rng = np.random.default_rng(17)
    special = np.array([-0.0, 0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0])
    cols = rng.standard_normal((4, n + 1)) * 10.0 ** rng.integers(-300, 300,
                                                                  (4, n + 1))
    cols[:, ::5] = rng.choice(special, (4, len(range(0, n + 1, 5))))
    x, lam, u, pm = cols
    pm[1:5] = 0.0, -0.0, 0.0, -0.0
    if case == "clipped_zero_sign":
        clipped = pm.copy()
        clipped[1:5] = -0.0, 0.0, 0.0, -0.0  # bits differ at 1 and 2 only
        args = (x, lam, u, pm, clipped)
    else:
        args = (x, lam, x, pm, pm)  # oracle_to_csv passes pm twice
    load = SampledProfile(24.0 / n, rng.uniform(0.0, 1e4, n))
    sc = make_scenario(load, FLEET20, g=1e-3, d=1.0, alpha_schedule=(1.0,))
    rows = np.column_stack((np.arange(n + 1) * load.dt, *args,
                            np.append(load.values, load.values[0]))).tolist()
    expected = "\n".join([SOLUTION_CSV_HEADER,
                          *(",".join(map(repr, row)) for row in rows)]) + "\n"
    assert _schedule_csv(sc, *args) == expected


def test_solution_csv_roundtrip(solved96, corpus96):
    sc = corpus96["peak_touch"]
    sol = solved96["peak_touch"]
    text = solution_to_csv(sol, sc)
    cols = read_solution_csv(__import__("io").StringIO(text))
    assert np.array_equal(cols["t_h"], np.arange(97) * 0.25)
    assert np.array_equal(cols["x_kw"], sol.x_traj)
    assert np.array_equal(cols["lambda"], sol.lambda_traj)
    assert np.array_equal(cols["pm_clipped_kw"], sol.pm_clipped)
