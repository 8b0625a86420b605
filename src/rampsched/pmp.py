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
initial state.  The box constraint on p_m enters through the soft
penalty xi, whose derivative xi' is piecewise linear, so the system is
affine between the box edges.  Each RK4 pass therefore records which
of its stages lay outside the box, and that record gives the exact 2x2
derivative of the discrete period map (a product of per-step RK4
derivative matrices) without further integration.  `solve` tightens
the penalty weight over an increasing schedule, warm-starting each
stage from the previous converged initial state, which keeps Newton
inside its convergence basin as the costate equation stiffens.

Everything here is deterministic: fixed steps, fixed iteration order,
no adaptive logic, so identical scenarios produce bit-identical results.
Each solve is single-threaded and self-contained; scenarios and
solutions are immutable, so distinct solves may run concurrently and
results can be handed between threads freely.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import costmodel as cmod
from .costmodel import CostModel, FleetSpec, compute_cm, compute_g
from .errors import DivergenceError, ValidationError
from .profiles import SampledProfile, source_text

logger = logging.getLogger("rampsched.pmp")

DEFAULT_TOL_BC = 1e-8
DEFAULT_NEWTON_MAX_ITERS = 50
DEFAULT_ALPHA_SCHEDULE = (1.0, 10.0, 100.0, 1e3, 1e4)
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
    newton_max_iters: int = DEFAULT_NEWTON_MAX_ITERS

    def __post_init__(self):
        if self.tol_bc <= 0:
            raise ValidationError("tol_bc must be positive")
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
    rk4_passes: int = 0


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


def _integrate_raw(x0: float, lam0: float, sc: Scenario
                   ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """RK4 over one period; profile data at half-steps by linear interpolation.

    Returns the node states and the record `_period_jacobian` needs: a
    (step, pattern) pair for each step in which the penalty acts, bit s
    of pattern set when the point of RK4 stage s (0..3) lies outside
    [0, Pbar], where xi'' = 2 alpha; elsewhere xi'' = 0.

    Raises:
        DivergenceError: a node state is not finite; t_hours is the
            first such node's time.
    """
    load = sc.load
    dt = load.dt
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0

    # plain Python floats keep the step loop quick and overflow-silent
    pl_arr = load.values
    pl_next = np.concatenate([pl_arr[1:], pl_arr[:1]])
    cm_arr = _cm_nodes(sc)
    cm_next = np.concatenate([cm_arr[1:], cm_arr[:1]])
    nodes = zip(pl_arr.tolist(), (0.5 * (pl_arr + pl_next)).tolist(),
                pl_next.tolist(), cm_arr.tolist(),
                (0.5 * (cm_arr + cm_next)).tolist(), cm_next.tolist())

    g2 = 2.0 * sc.cost.g
    inv_2d = 1.0 / (2.0 * sc.cost.d)
    a2 = 2.0 * sc.cost.alpha
    pbar = sc.cost.pbar_kw

    x = float(x0)
    lam = float(lam0)
    xs = [x]
    ls = [lam]
    marks = []

    for pl0, plh, pl1, cm0, cmh, cm1 in nodes:
        pm = x - pl0
        xi1 = a2 * pm if pm < 0.0 else (a2 * (pm - pbar) if pm > pbar else 0.0)
        k1x = -lam * inv_2d
        k1l = -g2 * x + cm0 - xi1

        x2 = x + half_dt * k1x; l2 = lam + half_dt * k1l
        pm = x2 - plh
        xi2 = a2 * pm if pm < 0.0 else (a2 * (pm - pbar) if pm > pbar else 0.0)
        k2x = -l2 * inv_2d
        k2l = -g2 * x2 + cmh - xi2

        x3 = x + half_dt * k2x; l3 = lam + half_dt * k2l
        pm = x3 - plh
        xi3 = a2 * pm if pm < 0.0 else (a2 * (pm - pbar) if pm > pbar else 0.0)
        k3x = -l3 * inv_2d
        k3l = -g2 * x3 + cmh - xi3

        x4 = x + dt * k3x; l4 = lam + dt * k3l
        pm = x4 - pl1
        xi4 = a2 * pm if pm < 0.0 else (a2 * (pm - pbar) if pm > pbar else 0.0)
        k4x = -l4 * inv_2d
        k4l = -g2 * x4 + cm1 - xi4

        if xi1 or xi2 or xi3 or xi4:
            marks.append((len(xs) - 1, (xi1 != 0.0) | (xi2 != 0.0) << 1
                          | (xi3 != 0.0) << 2 | (xi4 != 0.0) << 3))
        x = x + sixth_dt * (k1x + 2.0 * (k2x + k3x) + k4x)
        lam = lam + sixth_dt * (k1l + 2.0 * (k2l + k3l) + k4l)
        xs.append(x)
        ls.append(lam)

    # checked once after the loop: inf and nan propagate without raising
    xs = np.array(xs)
    ls = np.array(ls)
    bad = np.flatnonzero(~(np.isfinite(xs[1:]) & np.isfinite(ls[1:])))
    if bad.size:
        t_fail = (int(bad[0]) + 1) * dt
        raise DivergenceError(
            f"non-finite state at t = {t_fail:.6g} h",
            t_hours=t_fail, initial_state=(float(x0), float(lam0)))
    return xs, ls, marks


def _mat_mul(p: tuple, q: tuple) -> tuple:
    """Product of two row-major 2x2 matrices held as 4-tuples."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mat_pow(m: tuple, k: int) -> tuple:
    """m**k by repeated squaring."""
    out = (1.0, 0.0, 0.0, 1.0)
    while k:
        if k & 1:
            out = _mat_mul(out, m)
        m = _mat_mul(m, m)
        k >>= 1
    return out


def _rk4_step_derivative(pattern: int, sc: Scenario) -> tuple:
    """Derivative of one RK4 step with respect to its start state.

    At stage s (0..3) the right-hand side has the Jacobian
    A_s = [[0, -1/2d], [-2g - xi''_s, 0]], with xi''_s = 2 alpha when bit
    s of pattern is set and 0 otherwise.  The chain rule through the
    stages gives I + dt/6 (K_0 + 2 K_1 + 2 K_2 + K_3) with
    K_s = A_s (I + c_s K_{s-1}), c = (0, dt/2, dt/2, dt).
    """
    dt = sc.load.dt
    a = -1.0 / (2.0 * sc.cost.d)
    b_in = -2.0 * sc.cost.g
    b_out = b_in - 2.0 * sc.cost.alpha
    k0 = k1 = k2 = k3 = 0.0
    s0 = s1 = s2 = s3 = 0.0
    for s, (c, w) in enumerate(((0.0, 1.0), (0.5 * dt, 2.0),
                                (0.5 * dt, 2.0), (dt, 1.0))):
        b = b_out if pattern >> s & 1 else b_in
        # K_s = A_s (I + c K_{s-1}) with A_s = [[0, a], [b, 0]]
        k0, k1, k2, k3 = (a * c * k2, a * (1.0 + c * k3),
                          b * (1.0 + c * k0), b * c * k1)
        s0 += w * k0; s1 += w * k1; s2 += w * k2; s3 += w * k3
    h = dt / 6.0
    return (1.0 + h * s0, h * s1, h * s2, 1.0 + h * s3)


def _period_jacobian(marks: list[tuple[int, int]], sc: Scenario) -> np.ndarray:
    """Exact Jacobian Phi - I of the shooting residual of one RK4 pass.

    `marks` is the penalty record of `_integrate_raw`; steps absent from
    it have pattern 0.  The period map's derivative Phi is the product
    of the per-step derivatives, which depend only on each step's
    pattern, so each run of equal patterns is one power by squaring.
    """
    patterns = [0] * sc.load.count
    for step, pattern in marks:
        patterns[step] = pattern
    step_derivative: dict[int, tuple] = {}
    phi = (1.0, 0.0, 0.0, 1.0)
    for pattern, run in itertools.groupby(patterns):
        m = step_derivative.get(pattern)
        if m is None:
            m = step_derivative[pattern] = _rk4_step_derivative(pattern, sc)
        phi = _mat_mul(_mat_pow(m, len(list(run))), phi)
    return np.array([[phi[0] - 1.0, phi[1]], [phi[2], phi[3] - 1.0]])


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
    xs, ls, _ = _integrate_raw(s0.x, s0.lam, sc)
    t = np.arange(sc.load.count + 1) * sc.load.dt
    return Trajectory(t=t, x=xs, lam=ls)


def _solution_from(sc: Scenario, xs: np.ndarray, ls: np.ndarray,
                   iters: int, passes: int) -> PmpSolution:
    n = sc.load.count
    pl_ext = np.concatenate([sc.load.values, sc.load.values[:1]])
    u = -ls / (2.0 * sc.cost.d) + 0.0  # +0.0 folds -0.0 into 0.0
    pm = xs - pl_ext
    residual = max(abs(xs[n] - xs[0]), abs(ls[n] - ls[0]))
    stat = float(np.max(np.abs(2.0 * sc.cost.d * u + ls)))
    return PmpSolution(
        grid=sc.load,
        x_traj=xs, lambda_traj=ls, u_traj=u,
        pm_traj=pm, pm_clipped=np.clip(pm, 0.0, sc.cost.pbar_kw),
        converged=bool(residual <= sc.tolerances.tol_bc),
        periodic_residual=float(residual),
        stationarity_residual=stat,
        newton_iters=int(iters),
        alpha_used=float(sc.cost.alpha),
        rk4_passes=int(passes),
    )


def shoot_periodic(sc: Scenario, guess: PmpState) -> PmpSolution:
    """Close the periodic boundary condition by damped Newton shooting.

    Newton iterates on the residual R(x0, lam0) = (x(T)-x0, lam(T)-lam0)
    of the discrete RK4 period map.  Its Jacobian is exact, not
    differenced: the optimality system is affine between penalty kinks,
    so the derivative of a pass follows from the pass's record of which
    RK4 stages lay outside the box (`_period_jacobian`), at no extra
    integration.  Within one such pattern the period map is affine and
    a full Newton step lands on its fixed point.  Steps are halved up to
    8 times whenever the residual norm fails to decrease; running out of
    halvings or iterations returns a solution flagged converged=False
    rather than raising.  `rk4_passes` counts every integration,
    line-search trials included.
    """
    if not (math.isfinite(guess.x) and math.isfinite(guess.lam)):
        raise ValidationError("shooting guess must be finite")
    tol = sc.tolerances.tol_bc
    max_iters = sc.tolerances.newton_max_iters

    def residual(v):
        xs, ls, marks = _integrate_raw(v[0], v[1], sc)
        return np.array([xs[-1] - v[0], ls[-1] - v[1]]), xs, ls, marks

    v = np.array([float(guess.x), float(guess.lam)])
    r, xs, ls, marks = residual(v)
    iters = 0
    passes = 1
    while np.max(np.abs(r)) > tol and iters < max_iters:
        jac = _period_jacobian(marks, sc)
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -r, rcond=None)[0]

        best = np.max(np.abs(r))
        scale = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            passes += 1
            try:
                trial = residual(v + scale * delta)
            except DivergenceError:
                scale *= 0.5
                continue
            if np.max(np.abs(trial[0])) < best:
                v = v + scale * delta
                r, xs, ls, marks = trial
                accepted = True
                break
            scale *= 0.5
        iters += 1
        if not accepted:
            logger.debug("shooting stalled after %d iterations (residual %.3g)",
                         iters, best)
            break

    return _solution_from(sc, xs, ls, iters, passes)


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
    A divergence in the very first stage propagates.  The returned
    newton_iters and rk4_passes are totals over every stage run,
    including a failed one (a diverged stage counts its one pass).
    """
    state = guess if guess is not None else initial_guess(sc)
    prev: PmpSolution | None = None
    iters = passes = 0
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
            return replace(prev, converged=False, rk4_passes=passes + 1)
        iters += sol.newton_iters
        passes += sol.rk4_passes
        if not sol.converged:
            logger.warning("stage alpha=%g did not converge "
                           "(residual %.3g, %d iterations)",
                           alpha, sol.periodic_residual, sol.newton_iters)
            last = sol if prev is None else replace(prev, converged=False)
            return replace(last, newton_iters=iters, rk4_passes=passes)
        state = PmpState(x=float(sol.x_traj[0]), lam=float(sol.lambda_traj[0]))
        prev = replace(sol, newton_iters=iters, rk4_passes=passes)
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
        "rk4_passes": sol.rk4_passes,
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
    """Parse a solution CSV back into column arrays keyed by header name.

    Raises:
        ValidationError: naming the line, for an empty file, a wrong
            header, a row whose field count differs from the header, a
            non-numeric cell, or fewer than 2 rows.
    """
    lines = [(no, ln) for no, ln in
             enumerate(source_text(source).splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != SOLUTION_CSV_HEADER:
        raise ValidationError(f"line {lines[0][0] if lines else 1}: expected "
                              f"the header {SOLUTION_CSV_HEADER!r}")
    header = SOLUTION_CSV_HEADER.split(",")
    rows = []
    for no, ln in lines[1:]:
        try:
            rows.append([float(c) for c in ln.split(",")])
        except ValueError as exc:
            raise ValidationError(f"line {no}: non-numeric cell: {exc}") from exc
        if len(rows[-1]) != len(header):
            raise ValidationError(
                f"line {no}: expected {len(header)} fields, got {len(rows[-1])}")
    if len(rows) < 2:
        raise ValidationError(f"line {lines[-1][0]}: solution CSV needs at "
                              f"least 2 rows, got {len(rows)}")
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(header)}
