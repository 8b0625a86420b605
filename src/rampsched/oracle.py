"""Exact dispatch verifier on the time-discretized problem.

Independently of the shooting solver, the dispatch objective can be
discretized on the load grid into a finite-dimensional convex quadratic
in the miner draw vector pm:

    J(pm) = sum_i ( g*pg_i^2 + d*ramp_i^2 - cm_i*pm_i ) * dt,
    pg_i  = pl_i + pm_i,
    ramp_i = (pg_{i+1 mod N} - pg_i) / dt     (periodic forward difference)

with the box 0 <= pm_i <= Pbar enforced exactly rather than by a
penalty.  The Hessian of the time-density J/dt is the cyclic
tridiagonal M-matrix H = 2g*I + (2d/dt^2)*L, L the cyclic Laplacian.
The primal-dual active-set method (semismooth Newton; Hintermueller,
Ito & Kunisch, SIAM J. Optim. 13(3), 2002) solves this program exactly
in finitely many steps, which makes it ground truth for the shooting
solver.  The objective reported is J itself.  Its result, though not
its path, is independent of the solver: a start draw (`oracle-check`
passes the solver's clipped draw) changes only how many steps it takes
to reach the final active sets, and the result depends on those sets
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RampSchedError, ValidationError
from .pmp import (Scenario, _cyclic_thomas, _day, _forward_ramp, _schedule_csv,
                  objective)
from .profiles import periodic_ext

# Step cap per grid node.  From the default start the pinned set of an
# arc shrinks by about one node at each end per step (n/4 + 1 steps on
# the corpus's longest arc), so 2n leaves room beyond the n + 1 steps
# of monotone change.
_MAX_STEPS_PER_NODE = 2
_TOL_GRAD_FRACTION = 1e-8


@dataclass(frozen=True)
class DiscreteSolution:
    """Result of one active-set solve."""

    pm: np.ndarray
    objective: float
    iterations: int
    grad_norm: float


def discretize_objective(sc: Scenario, pm: np.ndarray) -> float:
    """Discrete objective J(pm) in $ over one period: `pmp.objective`
    without its penalty term, as the box here is enforced exactly."""
    pm = np.asarray(pm, dtype=float)
    pl = sc.load.values
    if pm.shape != pl.shape:
        raise ValidationError(
            f"pm has length {pm.size}, load grid has {pl.size}")
    return objective(sc, pm).unpenalized_usd


def _gradient_density(sc: Scenario):
    """Gradient of J/dt with respect to pm (exact, from the quadratic form),
    as a function of pm; the scenario's constants are bound once."""
    pl, cm, g2 = sc.load.values, _day(sc).cm, 2.0 * sc.cost.g
    k = 2.0 * sc.cost.d / (sc.load.dt * sc.load.dt)

    def gradient(pm: np.ndarray) -> np.ndarray:
        pg = pl + pm
        wrap = np.concatenate([pg[-1:], pg, pg[:1]])  # [:-2] previous, [2:] next
        curvature = 2.0 * pg - wrap[:-2] - wrap[2:]
        return g2 * pg - cm + k * curvature
    return gradient


def _projected_residual(pm: np.ndarray, grad: np.ndarray, pbar: float) -> float:
    """Sup-norm KKT residual: gradient components pointing into the box."""
    res = np.where(pm <= 0.0, np.minimum(grad, 0.0), grad)
    res = np.where(pm >= pbar, np.maximum(grad, 0.0), res)
    return float(np.max(np.abs(res)))


def default_start(sc: Scenario) -> np.ndarray:
    """Closed-form start: the clipped pointwise revenue-optimal draw.

    clip(cm/2g - pl, 0, Pbar) is the exact optimum of the ramp-free
    problem, and for the circulant quadratic here its mean level is
    already the optimal one whenever the box stays inactive.
    """
    base = _day(sc).cm / (2.0 * sc.cost.g) - sc.load.values
    return np.clip(base, 0.0, sc.cost.pbar_kw)


def solve_active_set(sc: Scenario,
                     start: np.ndarray | None = None) -> DiscreteSolution:
    """Minimize the discrete objective over the box by primal-dual active set.

    From `start` (n finite values, clipped into [0, Pbar]; by default
    `default_start`, which owes nothing to the solver), each step
    predicts the active sets from trial = pm - y/c, with y the gradient
    of J/dt (zero on free nodes) and c = H_ii: nodes with trial <= 0
    are pinned to 0, nodes with trial >= Pbar to Pbar, and the free
    nodes take the exact minimizer given the pinned ones,
    H_FF pm_F = -(q_F + H_FA pm_A) with q the gradient at pm = 0, solved
    by `_cyclic_thomas` with identity rows at the pinned nodes (strictly
    diagonally dominant for any sets).  The
    solve ends when a step repeats the previous step's sets;
    `iterations` counts the linear solves.  The returned pm is the
    pinned values plus the free-block solve, so it, `objective` and
    `grad_norm` depend only on the final sets: the result, not its path,
    is independent of the start.  A start near the optimum, such as the
    solver's clipped draw, reaches the sets in fewer steps.

    Raises:
        ValidationError: `start` does not hold n finite values.
        RampSchedError: an earlier set pattern came back (cycling) or
            the step count reached 2n without the sets settling.
    """
    n = sc.load.count
    pbar = sc.cost.pbar_kw
    k = 2.0 * sc.cost.d / (sc.load.dt * sc.load.dt)
    c = 2.0 * sc.cost.g + 2.0 * k
    gradient = _gradient_density(sc)
    if start is None:
        pm = default_start(sc)
    else:
        pm = np.asarray(start, dtype=float)
        if pm.shape != (n,):
            raise ValidationError(
                f"start has shape {pm.shape}, load grid has {n} nodes")
        if not np.isfinite(pm).all():
            raise ValidationError("start must be finite")
        pm = np.clip(pm, 0.0, pbar)
    y = gradient(pm)
    seen: set[bytes] = set()
    prev = b""
    while True:
        trial = pm - y / c
        lo, hi = trial <= 0.0, trial >= pbar  # disjoint, as pbar > 0
        key = (hi.view(np.int8) - lo.view(np.int8)).tobytes()
        if key == prev:
            break
        if key in seen:
            raise RampSchedError(
                f"active-set cycling after {len(seen)} steps")
        if len(seen) >= _MAX_STEPS_PER_NODE * n:
            raise RampSchedError(
                f"active set not settled after {len(seen)} steps")
        seen.add(key)
        prev = key
        free = ~(lo | hi)
        pm = np.where(hi, pbar, 0.0)
        wrap = np.concatenate([free[-1:], free, free[:1]])
        lower = np.where(free & wrap[:-2], -k, 0.0)
        upper = np.where(free & wrap[2:], -k, 0.0)
        rhs = np.where(free, -gradient(pm), 0.0)
        pm += _cyclic_thomas(lower.tolist(), np.where(free, c, 1.0).tolist(),
                             upper.tolist(), rhs.tolist())
        y = gradient(pm)
        y[free] = 0.0

    pm = np.clip(pm, 0.0, pbar)
    return DiscreteSolution(
        pm=pm, objective=discretize_objective(sc, pm), iterations=len(seen),
        grad_norm=_projected_residual(pm, gradient(pm), pbar))


def oracle_diagnostics(sol: DiscreteSolution, sc: Scenario) -> dict:
    """Diagnostics document mirroring the solver's JSON export.

    `iterations` counts the steps from the start the solve was given
    (`oracle-check` gives the solver's clipped draw); the other values
    do not depend on the start."""
    tol = _TOL_GRAD_FRACTION * sc.cost.pbar_kw
    return {
        "converged": bool(sol.grad_norm <= tol),
        "iterations": sol.iterations,
        "grad_norm": sol.grad_norm,
        "objective_usd": sol.objective,
    }


def oracle_to_csv(sol: DiscreteSolution, sc: Scenario) -> str:
    """Render the discrete solution in the solver's CSV column shape.

    The ramp column is the periodic forward difference of pg and the
    costate column is the value implied by the optimal control law.
    """
    pg = sc.load.values + sol.pm
    u_ext = periodic_ext(_forward_ramp(pg, sc.load.dt))
    pm_ext = periodic_ext(sol.pm)
    return _schedule_csv(sc, periodic_ext(pg), -2.0 * sc.cost.d * u_ext,
                         u_ext, pm_ext, pm_ext)
