"""Periodic optimal-dispatch solver.

The scheduler chooses the generation trajectory x(t) (and with it the
miner draw p_m = x - p_L) minimizing the integral over one period of

    g*x^2 + d*(dx/dt)^2 - c_m(t)*(x - p_L(t)) + xi(x - p_L(t)).

First-order optimality of that problem reduces to a two-point boundary
value problem in the state x and a costate lam:

    dx/dt   = -lam / (2 d)                       (optimal ramp rate)
    dlam/dt = -2 g x + c_m(t) - xi'(x - p_L(t))  (costate dynamics)
    x(0) = x(T),  lam(0) = lam(T)                (periodicity)

which this module integrates with classical fixed-step RK4 on the load
profile grid and closes with a damped Newton shooting iteration on the
initial state (2x2 forward-difference Jacobian).  The box constraint on
p_m enters through the soft penalty xi; `solve` tightens the penalty
weight over an increasing schedule, warm-starting each stage from the
previous converged initial state, which keeps Newton inside its
convergence basin as the costate equation stiffens.

Everything here is deterministic: fixed steps, fixed iteration order,
no adaptive logic, so identical scenarios produce bit-identical results.
Each solve is single-threaded and self-contained; scenarios and
solutions are immutable, so distinct solves may run concurrently and
results can be handed between threads freely.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import costmodel as cmod
from .costmodel import CostModel, FleetSpec, compute_cm, compute_g
from .errors import DivergenceError, ValidationError
from .profiles import SampledProfile

logger = logging.getLogger("rampsched.pmp")

DEFAULT_TOL_BC = 1e-8
DEFAULT_TOL_STAT = 1e-6
DEFAULT_NEWTON_MAX_ITERS = 50
DEFAULT_ALPHA_SCHEDULE = (1.0, 10.0, 100.0, 1e3, 1e4)
_JACOBIAN_EPS = 1e-6
_MAX_HALVINGS = 8

SOLUTION_CSV_HEADER = "t_h,x_kw,lambda,u_kw_per_h,pm_kw,pm_clipped_kw,pl_kw"


class PmpState(NamedTuple):
    """State/costate pair at one instant."""

    x: float
    lam: float


class Trajectory(NamedTuple):
    """States at every grid node of one period, including t = T."""

    t: np.ndarray
    x: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class Tolerances:
    tol_bc: float = DEFAULT_TOL_BC
    tol_stat: float = DEFAULT_TOL_STAT
    newton_max_iters: int = DEFAULT_NEWTON_MAX_ITERS

    def __post_init__(self):
        if self.tol_bc <= 0 or self.tol_stat <= 0:
            raise ValidationError("tolerances must be positive")
        if self.newton_max_iters < 1:
            raise ValidationError("newton_max_iters must be >= 1")


@dataclass(frozen=True)
class Scenario:
    """Everything one solve needs: load, cost model, fleet, tolerances."""

    load: SampledProfile
    cost: CostModel
    fleet: FleetSpec
    tolerances: Tolerances = field(default_factory=Tolerances)
    alpha_schedule: tuple[float, ...] = DEFAULT_ALPHA_SCHEDULE

    def __post_init__(self):
        sched = tuple(float(a) for a in self.alpha_schedule)
        if not sched:
            raise ValidationError("alpha_schedule must not be empty")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValidationError("alpha_schedule must be strictly increasing")
        if not math.isclose(sched[-1], self.cost.alpha, rel_tol=1e-12):
            raise ValidationError(
                f"last alpha_schedule entry {sched[-1]} must equal "
                f"cost.alpha {self.cost.alpha}")
        if isinstance(self.cost.cm, SampledProfile) and \
                not self.load.same_grid(self.cost.cm):
            raise ValidationError("load and cm profiles must share one grid")
        if abs(self.cost.pbar_kw - self.fleet.pbar_kw) > 1e-9 * self.fleet.pbar_kw:
            raise ValidationError(
                f"cost.pbar_kw {self.cost.pbar_kw} disagrees with fleet bound "
                f"{self.fleet.pbar_kw}")
        object.__setattr__(self, "alpha_schedule", sched)


@dataclass(frozen=True)
class PmpSolution:
    """Trajectories plus convergence diagnostics for one scenario."""

    grid: SampledProfile
    x_traj: np.ndarray
    lambda_traj: np.ndarray
    u_traj: np.ndarray
    pm_traj: np.ndarray
    pm_clipped: np.ndarray
    converged: bool
    periodic_residual: float
    stationarity_residual: float
    newton_iters: int
    alpha_used: float


@dataclass(frozen=True)
class CostBreakdown:
    """Objective terms in $, integrated over one period."""

    generation_usd: float
    ramping_usd: float
    revenue_usd: float
    penalty_usd: float
    total_usd: float
    baseline: "CostBreakdown | None" = None


def make_scenario(load: SampledProfile, fleet: FleetSpec, *,
                  g: float | None = None, d: float = 1.0,
                  cm: Union[float, SampledProfile, None] = None,
                  alpha_schedule: Sequence[float] = DEFAULT_ALPHA_SCHEDULE,
                  tolerances: Tolerances | None = None) -> Scenario:
    """Build a scenario with the usual defaults.

    g defaults to the machine-derived generation coefficient and cm to
    the machine revenue rate; the final schedule entry becomes the cost
    model's penalty weight.
    """
    schedule = tuple(float(a) for a in alpha_schedule)
    cost = CostModel(
        g=compute_g(fleet.machine) if g is None else g,
        d=d,
        alpha=schedule[-1],
        pbar_kw=fleet.pbar_kw,
        cm=compute_cm(fleet.machine) if cm is None else cm,
    )
    return Scenario(load=load, cost=cost, fleet=fleet,
                    tolerances=tolerances or Tolerances(),
                    alpha_schedule=schedule)


def hamiltonian(s: PmpState, u: float, t: float, sc: Scenario) -> float:
    """Running cost plus lam * (state velocity) at one instant."""
    m = sc.cost
    pm = s.x - sc.load.value_at(t)
    running = (cmod.gen_cost(s.x, m) + cmod.ramp_cost(u, m)
               - m.cm_at(t) * pm + cmod.penalty_xi(pm, m))
    return float(running + s.lam * u)


def pmp_rhs(s: PmpState, t: float, sc: Scenario) -> tuple[float, float]:
    """Right-hand side (dx/dt, dlam/dt) of the optimality system."""
    m = sc.cost
    dx = cmod.control_from_costate(s.lam, m)
    pm = s.x - sc.load.value_at(t)
    dlam = -2.0 * m.g * s.x + m.cm_at(t) - cmod.penalty_xi_prime(pm, m)
    return (float(dx), float(dlam))


def _cm_nodes(sc: Scenario) -> np.ndarray:
    if isinstance(sc.cost.cm, SampledProfile):
        return np.asarray(sc.cost.cm.values, dtype=float)
    return np.full(sc.load.count, float(sc.cost.cm))


def _integrate_raw(x0: float, lam0: float, sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """RK4 over one period; profile data at half-steps by linear interpolation."""
    load = sc.load
    n = load.count
    dt = load.dt
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0

    # plain Python floats keep the step loop quick and overflow-silent
    pl_arr = load.values
    pl = pl_arr.tolist()
    pl_next = np.concatenate([pl_arr[1:], pl_arr[:1]])
    pl_half = (0.5 * (pl_arr + pl_next)).tolist()
    pl_next = pl_next.tolist()
    cm_arr = _cm_nodes(sc)
    cm = cm_arr.tolist()
    cm_next = np.concatenate([cm_arr[1:], cm_arr[:1]])
    cm_half = (0.5 * (cm_arr + cm_next)).tolist()
    cm_next = cm_next.tolist()

    g2 = 2.0 * sc.cost.g
    inv_2d = 1.0 / (2.0 * sc.cost.d)
    a2 = 2.0 * sc.cost.alpha
    pbar = sc.cost.pbar_kw

    xs = np.empty(n + 1)
    ls = np.empty(n + 1)
    x = float(x0)
    lam = float(lam0)
    xs[0] = x
    ls[0] = lam
    isfinite = math.isfinite

    for i in range(n):
        pl0 = pl[i]; plh = pl_half[i]; pl1 = pl_next[i]
        cm0 = cm[i]; cmh = cm_half[i]; cm1 = cm_next[i]

        pm = x - pl0
        over = pm - pbar
        xi_p = a2 * pm if pm < 0.0 else (a2 * over if over > 0.0 else 0.0)
        k1x = -lam * inv_2d
        k1l = -g2 * x + cm0 - xi_p

        x2 = x + half_dt * k1x; l2 = lam + half_dt * k1l
        pm = x2 - plh
        over = pm - pbar
        xi_p = a2 * pm if pm < 0.0 else (a2 * over if over > 0.0 else 0.0)
        k2x = -l2 * inv_2d
        k2l = -g2 * x2 + cmh - xi_p

        x3 = x + half_dt * k2x; l3 = lam + half_dt * k2l
        pm = x3 - plh
        over = pm - pbar
        xi_p = a2 * pm if pm < 0.0 else (a2 * over if over > 0.0 else 0.0)
        k3x = -l3 * inv_2d
        k3l = -g2 * x3 + cmh - xi_p

        x4 = x + dt * k3x; l4 = lam + dt * k3l
        pm = x4 - pl1
        over = pm - pbar
        xi_p = a2 * pm if pm < 0.0 else (a2 * over if over > 0.0 else 0.0)
        k4x = -l4 * inv_2d
        k4l = -g2 * x4 + cm1 - xi_p

        x = x + sixth_dt * (k1x + 2.0 * (k2x + k3x) + k4x)
        lam = lam + sixth_dt * (k1l + 2.0 * (k2l + k3l) + k4l)
        if not (isfinite(x) and isfinite(lam)):
            raise DivergenceError(
                f"non-finite state at t = {(i + 1) * dt:.6g} h",
                t_hours=(i + 1) * dt, initial_state=(float(x0), float(lam0)))
        xs[i + 1] = x
        ls[i + 1] = lam

    return xs, ls


def integrate(s0: PmpState, sc: Scenario) -> Trajectory:
    """Integrate the optimality system from s0 over one period.

    Classical 4th-order Runge-Kutta with the fixed grid step of the
    load profile; returns states at every grid node including t = T.

    Raises:
        DivergenceError: a non-finite state was produced, with the
            failing time attached.
    """
    if not (math.isfinite(s0.x) and math.isfinite(s0.lam)):
        raise ValidationError("initial state must be finite")
    xs, ls = _integrate_raw(s0.x, s0.lam, sc)
    t = np.arange(sc.load.count + 1) * sc.load.dt
    return Trajectory(t=t, x=xs, lam=ls)


def _solution_from(sc: Scenario, xs: np.ndarray, ls: np.ndarray,
                   iters: int, converged: bool | None = None) -> PmpSolution:
    n = sc.load.count
    pl_ext = np.concatenate([sc.load.values, sc.load.values[:1]])
    u = -ls / (2.0 * sc.cost.d) + 0.0  # +0.0 folds -0.0 into 0.0
    pm = xs - pl_ext
    residual = max(abs(xs[n] - xs[0]), abs(ls[n] - ls[0]))
    stat = float(np.max(np.abs(2.0 * sc.cost.d * u + ls)))
    if converged is None:
        converged = (residual <= sc.tolerances.tol_bc
                     and stat <= sc.tolerances.tol_stat)
    return PmpSolution(
        grid=sc.load,
        x_traj=xs, lambda_traj=ls, u_traj=u,
        pm_traj=pm, pm_clipped=np.clip(pm, 0.0, sc.cost.pbar_kw),
        converged=bool(converged),
        periodic_residual=float(residual),
        stationarity_residual=stat,
        newton_iters=int(iters),
        alpha_used=float(sc.cost.alpha),
    )


def shoot_periodic(sc: Scenario, guess: PmpState) -> PmpSolution:
    """Close the periodic boundary condition by damped Newton shooting.

    Newton iterates on the residual R(x0, lam0) = (x(T)-x0, lam(T)-lam0)
    with a 2x2 forward-difference Jacobian (re-integration with each
    initial component perturbed by 1e-6*(1+|value|)).  Steps are halved
    up to 8 times whenever the residual norm fails to decrease; running
    out of halvings or iterations returns a solution flagged
    converged=False rather than raising.
    """
    if not (math.isfinite(guess.x) and math.isfinite(guess.lam)):
        raise ValidationError("shooting guess must be finite")
    tol = sc.tolerances.tol_bc
    max_iters = sc.tolerances.newton_max_iters

    def residual(v):
        xs, ls = _integrate_raw(v[0], v[1], sc)
        return np.array([xs[-1] - v[0], ls[-1] - v[1]]), xs, ls

    v = np.array([float(guess.x), float(guess.lam)])
    r, xs, ls = residual(v)
    iters = 0
    while np.max(np.abs(r)) > tol and iters < max_iters:
        jac = np.empty((2, 2))
        for j in range(2):
            h = _JACOBIAN_EPS * (1.0 + abs(v[j]))
            vp = v.copy()
            vp[j] += h
            rp, _, _ = residual(vp)
            jac[:, j] = (rp - r) / h
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -r, rcond=None)[0]

        best = np.max(np.abs(r))
        scale = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            try:
                r_try, xs_try, ls_try = residual(v + scale * delta)
            except DivergenceError:
                scale *= 0.5
                continue
            if np.max(np.abs(r_try)) < best:
                v = v + scale * delta
                r, xs, ls = r_try, xs_try, ls_try
                accepted = True
                break
            scale *= 0.5
        iters += 1
        if not accepted:
            logger.debug("shooting stalled after %d iterations (residual %.3g)",
                         iters, best)
            break

    return _solution_from(sc, xs, ls, iters)


def initial_guess(sc: Scenario) -> PmpState:
    """Default shooting start: revenue-optimal level bounded into range."""
    x0 = sc.cost.cm_at(0.0) / (2.0 * sc.cost.g)
    lo = float(sc.load.values.min())
    hi = float(sc.load.values.max()) + sc.cost.pbar_kw
    return PmpState(x=min(max(x0, lo), hi), lam=0.0)


def solve(sc: Scenario, guess: PmpState | None = None) -> PmpSolution:
    """Solve the scenario over its full penalty-weight schedule.

    Each stage runs `shoot_periodic` at one schedule weight, warm-started
    from the previous converged initial state.  A failed stage ends the
    continuation: the last successful stage's solution is returned with
    converged=False (its alpha_used records how far the schedule got).
    A divergence in the very first stage propagates.
    """
    state = guess if guess is not None else initial_guess(sc)
    prev: PmpSolution | None = None
    for alpha in sc.alpha_schedule:
        stage = replace(sc, cost=replace(sc.cost, alpha=alpha),
                        alpha_schedule=(alpha,))
        try:
            sol = shoot_periodic(stage, state)
        except DivergenceError:
            if prev is None:
                raise
            logger.warning("stage alpha=%g diverged; keeping alpha=%g result",
                           alpha, prev.alpha_used)
            return replace(prev, converged=False)
        if not sol.converged:
            logger.warning("stage alpha=%g did not converge "
                           "(residual %.3g, %d iterations)",
                           alpha, sol.periodic_residual, sol.newton_iters)
            if prev is None:
                return sol
            return replace(prev, converged=False)
        state = PmpState(x=float(sol.x_traj[0]), lam=float(sol.lambda_traj[0]))
        prev = sol
    return prev


def stationary_point(sc: Scenario) -> float:
    """Generation level where marginal cost equals the revenue rate.

    Only defined for a constant revenue rate; with the penalty inactive
    the optimal trajectory is this constant.
    """
    if not sc.cost.cm_is_constant:
        raise ValidationError("stationary_point requires a constant cm")
    return float(sc.cost.cm) / (2.0 * sc.cost.g)


def _trapezoid(f: np.ndarray, dt: float) -> float:
    return float(dt * (f.sum() - 0.5 * (f[0] + f[-1])))


def evaluate(sol: PmpSolution, sc: Scenario) -> CostBreakdown:
    """Integrate each objective term over one period (trapezoidal rule).

    Also evaluates the no-mining baseline (p_m = 0, generation follows
    the load, ramp from periodic forward differences of the load) so
    callers can report savings.  Warns when evaluating a non-converged
    solution but still evaluates it.
    """
    if not sol.converged:
        logger.warning("evaluating a non-converged solution")
    m = sc.cost
    dt = sc.load.dt
    n = sc.load.count
    t = np.arange(n + 1) * dt
    cm_t = np.asarray(m.cm_at(t), dtype=float)

    gen = _trapezoid(m.g * sol.x_traj ** 2, dt)
    ramp = _trapezoid(m.d * sol.u_traj ** 2, dt)
    revenue = _trapezoid(cm_t * sol.pm_traj, dt)
    penalty = _trapezoid(np.asarray(cmod.penalty_xi(sol.pm_traj, m)), dt)

    pl = sc.load.values
    pl_ext = np.concatenate([pl, pl[:1]])
    fwd = (np.roll(pl, -1) - pl) / dt
    ramp_fd = np.concatenate([fwd, fwd[:1]])  # node T wraps to node 0
    base_gen = _trapezoid(m.g * pl_ext ** 2, dt)
    base_ramp = _trapezoid(m.d * ramp_fd ** 2, dt)
    baseline = CostBreakdown(
        generation_usd=base_gen, ramping_usd=base_ramp,
        revenue_usd=0.0, penalty_usd=0.0,
        total_usd=base_gen + base_ramp)

    return CostBreakdown(
        generation_usd=gen, ramping_usd=ramp, revenue_usd=revenue,
        penalty_usd=penalty,
        total_usd=gen + ramp - revenue + penalty,
        baseline=baseline)


def breakdown_as_dict(bd: CostBreakdown) -> dict:
    out = {
        "generation_usd": bd.generation_usd,
        "ramping_usd": bd.ramping_usd,
        "revenue_usd": bd.revenue_usd,
        "penalty_usd": bd.penalty_usd,
        "total_usd": bd.total_usd,
    }
    if bd.baseline is not None:
        out["baseline"] = breakdown_as_dict(bd.baseline)
    return out


def solution_diagnostics(sol: PmpSolution, sc: Scenario) -> dict:
    """Diagnostics document matching the JSON export schema."""
    return {
        "converged": sol.converged,
        "periodic_residual": sol.periodic_residual,
        "stationarity_residual": sol.stationarity_residual,
        "newton_iters": sol.newton_iters,
        "alpha_used": sol.alpha_used,
        "objective_breakdown": breakdown_as_dict(evaluate(sol, sc)),
    }


def format_solution_csv(*columns: np.ndarray) -> str:
    """CSV text under SOLUTION_CSV_HEADER from its seven node columns.

    Values are written with repr, so reading them back is exact.
    """
    rows = np.column_stack(columns).tolist()
    lines = [SOLUTION_CSV_HEADER]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def solution_to_csv(sol: PmpSolution, sc: Scenario) -> str:
    """Render the solution as CSV text (one row per grid node, t=T included)."""
    n = sc.load.count
    pl_ext = np.concatenate([sc.load.values, sc.load.values[:1]])
    return format_solution_csv(
        np.arange(n + 1) * sc.load.dt, sol.x_traj, sol.lambda_traj,
        sol.u_traj, sol.pm_traj, sol.pm_clipped, pl_ext)


def read_solution_csv(source) -> dict[str, np.ndarray]:
    """Parse a solution CSV back into column arrays keyed by header name."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    if header != SOLUTION_CSV_HEADER.split(","):
        raise ValidationError(f"unexpected solution CSV header: {lines[0]!r}")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return {name: rows[:, j] for j, name in enumerate(header)}
