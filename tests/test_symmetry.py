"""Exact symmetries of the periodic dispatch problem, which need no
reference solution: a time shift of the load, its reversal, and units
scaled by a power of two.

The days are the corpus's days with a constant revenue rate and the
fleet ladder of one random day of each family (`random_days`).  A shift
permutes the nodes of every elementwise operation, so only the order of
the linear solves' sums changes; a reversal maps the verifier's discrete
objective onto itself; and load x2, fleet x2, g/2 and d/2 double every
draw with exact float operations wherever the penalty does not act.
"""

import dataclasses

import numpy as np
import pytest

from corpus import M1, ladder_scenarios, random_days

from rampsched import (FleetSpec, SampledProfile, make_scenario, solve,
                       synth_duck_curve)
from rampsched.oracle import solve_active_set


@pytest.fixture(scope="module")
def days(corpus96):
    ladders = [sc for day in random_days(1, 2) for sc in ladder_scenarios(day)]
    return [sc for sc in corpus96.values() if sc.cost.cm_is_constant] + ladders


def _on_load(sc, values):
    return dataclasses.replace(sc, load=SampledProfile(sc.load.dt, values))


def _scaled(sc):
    """The scenario in units scaled by two: load x2, fleet x2, g/2, d/2."""
    m = sc.cost
    return dataclasses.replace(
        _on_load(sc, 2.0 * sc.load.values),
        fleet=FleetSpec(sc.fleet.machine, 2 * sc.fleet.count),
        g=m.g / 2.0, d=m.d / 2.0, cm=m.cm)


def _gap(a, b, sc) -> float:
    """Largest node gap between two draws, over Pbar."""
    return float(np.max(np.abs(a - b))) / sc.cost.pbar_kw


def _verifier_bound(sc, ref, bound: float) -> float:
    """`bound` where the verifier pins a node, else the rounding of its
    free solve, eps times the condition number 1 + 4d/(g dt^2) of the
    full cyclic system: with no node pinned, a reordered solve of the
    same problem moves its draw by up to 1.6e-11 of Pbar on the plant
    days (condition number 1.3e7), a property of that system, not of
    the symmetry."""
    if np.any((ref.pm <= 0.0) | (ref.pm >= sc.cost.pbar_kw)):
        return bound
    m = sc.cost
    return np.finfo(float).eps * (1.0 + 4.0 * m.d / (m.g * sc.load.dt ** 2))


def test_time_shift_moves_both_solutions_by_the_shift(days):
    """Rolling the load by k nodes rolls `solve`'s draw by k to 1e-12 of
    Pbar, and the verifier's to 1e-12 or its rounding (`_verifier_bound`),
    in as many Newton and active-set steps, stopped solves included."""
    for sc in days:
        values, n = sc.load.values, sc.load.count
        sol, ref = solve(sc), solve_active_set(sc)
        bound = _verifier_bound(sc, ref, 1e-12)
        for k in (1, n // 4, n // 2, 3 * n // 4 + 1):
            shifted = _on_load(sc, np.roll(values, k))
            got, got_ref = solve(shifted), solve_active_set(shifted)
            where = (sc.load.values.max(), sc.fleet.count, k)
            assert (got.newton_iters, got.converged, got.alpha_used) \
                == (sol.newton_iters, sol.converged, sol.alpha_used), where
            assert _gap(got.pm_traj, np.roll(sol.pm_traj, k),
                        sc) <= 1e-12, where
            assert got_ref.iterations == ref.iterations, where
            assert _gap(got_ref.pm, np.roll(ref.pm, k), sc) <= bound, where


def test_reversal_reverses_the_verifier_solution(days):
    """The load reversed about node 0 reverses the verifier's draw, to
    1e-13 of Pbar or its rounding (`_verifier_bound`): its discrete
    objective sums the same squared ramps."""
    for sc in days:
        ref = solve_active_set(sc)
        reversed_load = np.roll(sc.load.values[::-1], 1)
        got = solve_active_set(_on_load(sc, reversed_load))
        assert _gap(got.pm, np.roll(ref.pm[::-1], 1), sc) \
            <= _verifier_bound(sc, ref, 1e-13), (sc.load.values.max(),
                                                  sc.fleet.count)


def test_units_scaled_by_two_double_the_draw(days):
    """Load x2, fleet x2, g/2 and d/2 give exactly 2x the verifier's draw
    on every day, and exactly 2x `solve`'s on the days whose solution
    leaves the box nowhere."""
    interior = 0
    for sc in days:
        scaled = _scaled(sc)
        where = (sc.load.values.max(), sc.fleet.count)
        assert np.array_equal(solve_active_set(scaled).pm,
                              2.0 * solve_active_set(sc).pm), where
        sol = solve(sc)
        if sol.box_violation_kw == 0.0:
            interior += 1
            assert np.array_equal(solve(scaled).pm_traj, 2.0 * sol.pm_traj), where
    assert interior >= 10


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 1: on a binding day the penalty weight's cap "
    "(Z_STAR/dt)^2 d - g halves with d but the schedule does not, so solve "
    "stops at another weight; item 1 (or item 6's d-scaled weight) removes "
    "the cause")
@pytest.mark.parametrize("count", [1898, 1117])
def test_units_scaled_by_two_double_a_binding_solve(count):
    """The plant duck day at 0.85x and 0.5x the fleet that holds its
    constant optimum, where the box binds for hours: load x2, fleet x2,
    g/2 and d/2 must give `solve` the same outcome and exactly 2x the
    draw, as they give the verifier on every day."""
    net = synth_duck_curve(8000.0, 3000.0, 9000.0, dt=0.25)[2]
    sc = make_scenario(net, FleetSpec(M1, count), d=1.0)
    sol, got = solve(sc), solve(_scaled(sc))
    assert (got.converged, got.alpha_used) == (sol.converged, sol.alpha_used)
    assert np.array_equal(got.pm_traj, 2.0 * sol.pm_traj)
