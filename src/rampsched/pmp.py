"""Periodic optimal-dispatch solver.

The scheduler chooses the generation trajectory x(t) (and with it the
miner draw p_m = x - p_L) minimizing the integral over one period of

    g*x^2 + d*(dx/dt)^2 - c_m(t)*(x - p_L(t)) + xi(x - p_L(t)).

First-order optimality of that problem reduces to a two-point boundary
value problem in the state x and a costate lam:

    dx/dt   = -lam / (2 d)                       (optimal ramp rate)
    dlam/dt = -2 g x + c_m(t) - xi'(x - p_L(t))  (costate dynamics)
    x(0) = x(T),  lam(0) = lam(T)                (periodicity)

which this module discretizes with one classical RK4 step per load
grid interval and solves by multiple shooting with one node per step
(Bock & Plitt, IFAC 1984): Newton drives the defects
F_i = RK4step_i(z_i) - z_{i+1 mod n} of all node states z_i = (x_i, lam_i)
to zero at once.  The box constraint on p_m enters through the soft
penalty xi, whose derivative xi' is piecewise linear, so each step is
affine between the box edges and full-step Newton is exact semismooth
Newton.  Each Newton system is solved in O(n) as a cyclic tridiagonal
system in the state updates, diagonally dominant while the step
stiffness dt*sqrt((g + alpha)/d) stays below Z_STAR.

Everything here is deterministic: fixed steps, fixed iteration order,
no adaptive logic, so identical scenarios produce bit-identical results.
Every ufunc of the RK4 pass takes array operands shaped like its output,
filled once per solve (`_rk4_stepper`).
Each solve is single-threaded and shares with other solves only what
its day fixes, built once and never written after: the day's profile
data and baseline (`_day`) and its interior pass (`_interior`), as
read-only arrays.  Scenarios and solutions are immutable too, so
distinct solves may run concurrently and results can be handed between
threads freely.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import KW_ONLY, dataclass, replace
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from . import costmodel as cmod
from .costmodel import CostModel, FleetSpec, compute_cm, compute_g
from .errors import DivergenceError, ValidationError
from .profiles import (_MIN_SAMPLES, _NODES_PER_HOUR, SampledProfile,
                       format_table, names_path, periodic_ext, read_table,
                       refuse_negative, table_floats)

logger = logging.getLogger("rampsched.pmp")

DEFAULT_TOL_BC = 1e-8
DEFAULT_ALPHA_SCHEDULE = (1.0, 10.0, 100.0, 1e3, 1e4)
_MAX_NEWTON_ITERS = 50
# Root of R(-z) = 1, R the RK4 stability polynomial: penalty arcs at step
# stiffness z = dt*sqrt((g + alpha)/d) below it keep the Newton system
# diagonally dominant; at it the discrete periodic problem is singular.
Z_STAR = 2.785293563405289

_STAGE_BITS = np.array([1, 2, 4, 8])  # RK4 stages in a penalty pattern

SOLUTION_CSV_HEADER = "t_h,x_kw,lambda,u_kw_per_h,pm_kw,pm_clipped_kw,pl_kw"


class PmpState(NamedTuple):
    """State/costate pair at one instant."""

    x: float
    lam: float


@dataclass(frozen=True)
class Tolerances:
    tol_bc: float = DEFAULT_TOL_BC

    def __post_init__(self):
        if not 0 < self.tol_bc < math.inf:
            raise ValidationError(f"tol_bc must be finite and > 0, got {self.tol_bc}")


_DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class Scenario:
    """Everything one solve needs: the load, the fleet, the cost
    coefficients, the penalty schedule and the tolerances.

    g and cm default (None) to the fleet machine's `compute_g` and
    `compute_cm`.  `cost`, built here and not a field, takes its miner
    bound from the fleet and its penalty weight from the schedule's last
    entry, so `dataclasses.replace` with another fleet or schedule
    builds it anew.  `make_scenario` is this constructor.
    """

    load: SampledProfile
    fleet: FleetSpec
    _: KW_ONLY
    g: float | None = None
    d: float = 1.0
    cm: Union[float, SampledProfile, None] = None
    alpha_schedule: tuple[float, ...] = DEFAULT_ALPHA_SCHEDULE
    tolerances: Tolerances = _DEFAULT_TOLERANCES

    def __post_init__(self):
        sched = tuple(float(a) for a in self.alpha_schedule)
        if not sched:
            raise ValidationError("alpha_schedule must not be empty")
        if not all(b > a for a, b in zip(sched, sched[1:])):
            raise ValidationError("alpha_schedule must be strictly increasing")
        if not all(0 <= a < math.inf for a in sched):
            raise ValidationError(
                f"alpha_schedule entries must be finite and >= 0, got {sched}")
        if isinstance(self.cm, SampledProfile) and not self.load.same_grid(self.cm):
            raise ValidationError("load and cm profiles must share one grid")
        machine = self.fleet.machine
        object.__setattr__(self, "alpha_schedule", sched)
        object.__setattr__(self, "cost", CostModel(
            g=compute_g(machine) if self.g is None else self.g,
            pbar_kw=self.fleet.pbar_kw,
            cm=compute_cm(machine) if self.cm is None else self.cm,
            d=self.d, alpha=sched[-1]))

    @functools.cached_property
    def _csv_grid_cells(self) -> tuple[list[str], list[str]]:
        """The t_h and pl_kw cells of a schedule CSV, t = T included,
        formatted once: oracle-check writes two schedules on one grid."""
        t = np.arange(self.load.count + 1) * self.load.dt
        return (list(map(repr, t.tolist())),
                list(map(repr, periodic_ext(self.load.values).tolist())))


@dataclass(frozen=True)
class PmpSolution:
    """Trajectories plus convergence diagnostics for one scenario."""

    x_traj: np.ndarray
    lambda_traj: np.ndarray
    u_traj: np.ndarray
    pm_traj: np.ndarray
    pm_clipped: np.ndarray
    converged: bool
    periodic_residual: float
    newton_iters: int
    alpha_used: float
    rk4_passes: int = 0
    box_violation_kw: float = 0.0
    box_violation_frac: float = 0.0


@dataclass(frozen=True)
class CostBreakdown:
    """Objective terms in $, integrated over one period."""

    generation_usd: float
    ramping_usd: float
    revenue_usd: float
    penalty_usd: float
    total_usd: float
    baseline: "CostBreakdown | None" = None

    @property
    def unpenalized_usd(self) -> float:
        """Generation + ramping - revenue: the discrete objective that
        `oracle` solves with its box exact, so without the penalty."""
        return self.generation_usd + self.ramping_usd - self.revenue_usd


make_scenario = Scenario


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


class _Day(NamedTuple):
    """What a day fixes for every fleet size solved on it (`_day`)."""

    # p_L, then c_m, at each step's start, midpoint (linear interpolation)
    # and end, shape (6, n + 1); column n is step 0
    nodes: np.ndarray
    cm: np.ndarray            # c_m at the n grid nodes
    baseline: CostBreakdown   # `objective` of no mining (p_m = 0)


def _day(sc: Scenario) -> _Day:
    """The scenario's day, shared by every scenario with its load, c_m,
    g and d, as read-only arrays."""
    m = sc.cost
    return _build_day(sc.load, m.cm, m.g, m.d)


@functools.lru_cache(maxsize=64)
def _build_day(load: SampledProfile, cm: Union[float, SampledProfile],
               g: float, d: float) -> _Day:
    """Build a day's data once per process: a fleet-size study solves and
    prices one day at many fleet sizes, and none of this reads the fleet.

    The key is exact: `SampledProfile` is frozen and read-only and hashes
    by identity, and no mining pays exactly 0.0 revenue and penalty at
    every c_m, Pbar and alpha, so the baseline reads only load, g and d.

    Raises:
        ValidationError: a cost past float range: the baseline's
            generation or ramping, or the revenue c_m^2/2g of generating
            at the revenue-optimal level c_m/2g, which bounds the draw.
    """
    if isinstance(cm, SampledProfile):
        cm_nodes = cm.values
    else:
        cm_nodes = np.full(load.count, float(cm))
    ends = [np.concatenate([v, v[:2]]) for v in (load.values, cm_nodes)]
    nodes = np.array([row for v in ends
                      for row in (v[:-1], 0.5 * (v[:-1] + v[1:]), v[1:])])
    for v in (cm_nodes, nodes):
        v.setflags(write=False)
    day_cost = CostModel(g=g, pbar_kw=1.0, cm=cm, d=d)  # Pbar, alpha unread
    with np.errstate(over="ignore"):
        baseline = _objective(load, day_cost, cm_nodes, np.zeros(load.count))
    cm_peak = float(cm_nodes.max())
    # a node sum, then dt times it, of the revenue at c_m/2g
    revenue = cm_peak * cm_peak / (2.0 * g) * load.count * max(load.dt, 1.0)
    for usd, cost, coefficient in (
            (baseline.generation_usd, "load's no-mining generation cost",
             f"g = {g:.4g}"),
            (baseline.ramping_usd, "load's no-mining ramping cost",
             f"d = {d:.4g}"),
            (revenue, "revenue of generating at c_m/2g",
             f"c_m = {cm_peak:.4g}")):
        if not math.isfinite(usd):
            raise ValidationError(
                f"the {cost} is past float range at {coefficient}")
    return _Day(nodes, cm_nodes, baseline)


def _rk4_stepper(nodes: np.ndarray, dt: float, d: float, g: float,
                 alpha: float, pbar: float):
    """step(z): one classical RK4 step from the stacked states z = (x, lam),
    shape (2, m), on the profile data `nodes` (m of `_Day.nodes`'s columns).
    It returns the end states and the four stage points' excess draw over
    the box [0, Pbar] (0 inside), one (4, m) buffer: xi' = 2 alpha * excess.
    Both results are buffers of the stepper, overwritten by its next call;
    every ufunc writes into them with `out=`, in the operand order of the
    plain expressions, so the bits do not depend on the buffering.  Every
    operand is an array shaped like its output, filled once per stepper,
    so no call converts a float or broadcasts a column."""
    pl0, plh, pl1, cm0, cmh, cm1 = nodes
    m = nodes.shape[1]
    # the steps dt/2, dt and weights 2, dt/6, each (2, m); rate_lam * lam
    # and rate_x * x + c_m - xi' are the right-hand side; the box is
    # [zero, pbar]; each of these last five is (m,)
    ops = np.repeat([0.5 * dt, dt, 2.0, dt / 6.0, -1.0 / (2.0 * d), -2.0 * g,
                     2.0 * alpha, pbar, 0.0], 2 * m).reshape(9, 2, m)
    h2, h1, two, h6 = ops[:4]
    rate_lam, rate_x, a2, pbar, zero = ops[4:, 0]
    excess = np.empty((4, m))
    k1, k2, k3, k4 = np.empty((4, 2, m))  # the four slopes
    zs, acc, res = np.empty((3, 2, m))    # stage point, sum of slopes, result
    pm = np.empty(m)                      # stage draw, then xi'
    box_excess = cmod.box_excess
    # per stage: the step c along the previous slope that leads from z to
    # its point (None: z itself), its slope and that slope's two rows, its
    # excess row and its profile data
    stages = [(c, k, k[0], k[1], ex, pl, cm) for c, k, ex, pl, cm in zip(
        (None, h2, h2, h1), (k1, k2, k3, k4), excess,
        (pl0, plh, plh, pl1), (cm0, cmh, cmh, cm1))]
    zs_rows = zs[0], zs[1]  # one cell: CPython 3.11 never reuses freed 20-tuples

    def step(z):
        x, lam, k_prev = z[0], z[1], None
        for c, k, kx, kl, ex, pl, cm in stages:
            if c is not None:
                np.add(z, np.multiply(c, k_prev, out=zs), out=zs)
                x, lam = zs_rows
            np.subtract(x, pl, out=pm)
            box_excess(pm, pbar, ex, zero)
            np.multiply(rate_lam, lam, out=kx)
            np.multiply(rate_x, x, out=kl)
            np.add(kl, cm, out=kl)
            np.subtract(kl, np.multiply(a2, ex, out=pm), out=kl)
            k_prev = k
        np.add(k2, k3, out=acc)
        np.multiply(two, acc, out=acc)
        np.add(k1, acc, out=acc)
        np.add(acc, k4, out=acc)
        np.multiply(h6, acc, out=acc)
        return np.add(z, acc, out=res), excess
    return step


def _rk4_step_derivative(excess: np.ndarray, dt: float, d: float, g: float,
                         alpha: float) -> tuple:
    """Blocks (A, B, C, D) of each node's RK4 step derivative d z_{i+1} / d z_i.

    At stage s the right-hand side has the Jacobian
    A_s = [[0, -1/2d], [-2g - xi''_s, 0]], with xi''_s = 2 alpha where
    the stage's excess (row s of `_rk4_stepper`'s, or of a mask) is nonzero
    and 0 elsewhere.  The chain rule through the stages gives
    I + dt/6 (K_0 + 2 K_1 + 2 K_2 + K_3) with K_s = A_s (I + c_s K_{s-1}),
    c = (0, dt/2, dt/2, dt).
    """
    a = -1.0 / (2.0 * d)
    b_in = -2.0 * g
    b_out = b_in - 2.0 * alpha
    k0 = k1 = k2 = k3 = 0.0
    s0 = s1 = s2 = s3 = 0.0
    for ex, (c, w) in zip(excess, ((0.0, 1.0), (0.5 * dt, 2.0),
                                   (0.5 * dt, 2.0), (dt, 1.0))):
        b = np.where(ex != 0.0, b_out, b_in)
        # K_s = A_s (I + c K_{s-1}) with A_s = [[0, a], [b, 0]]
        k0, k1, k2, k3 = (a * c * k2, a * (1.0 + c * k3),
                          b * (1.0 + c * k0), b * c * k1)
        s0 += w * k0; s1 += w * k1; s2 += w * k2; s3 += w * k3
    h = dt / 6.0
    return 1.0 + h * s0, h * s1, h * s2, 1.0 + h * s3


@functools.lru_cache(maxsize=64)
def _condensed_table(dt: float, d: float, g: float, alpha: float) -> np.ndarray:
    """Rows -(AD - BC)/B, -1/B, D/B, A/B, D, 1/B, A of the step derivative
    (A, B, C, D) for each of the 16 patterns of stages outside the box,
    built once per cost model and process as a read-only array."""
    a, b, c, dd = _rk4_step_derivative(
        (np.arange(16) >> np.arange(4)[:, None]) & 1, dt, d, g, alpha)
    inv_b = 1.0 / b
    table = np.array([-((a * dd - b * c) * inv_b), -inv_b, dd * inv_b,
                      a * inv_b, dd, inv_b, a])
    table.setflags(write=False)
    return table


def _cyclic_thomas(lo: list, di: list, up: list, r: list) -> np.ndarray:
    """Solve lo_k v_{k-1} + di_k v_k + up_k v_{k+1} = r_k, indices mod n.

    Thomas elimination of the tridiagonal part plus a Sherman-Morrison
    correction for the two corners (Numerical Recipes, 2.7), in plain
    floats; stable when the system is diagonally dominant.  Overwrites di.
    """
    n = len(di)
    beta, alpha, gamma = lo[0], up[-1], -di[0]
    di[0] -= gamma
    di[-1] -= alpha * beta / gamma
    u = [gamma] + [0.0] * (n - 2) + [alpha]
    cp, y, z = [], [], []
    c = y_k = z_k = 0.0
    for lo_k, di_k, up_k, r_k, u_k in zip(lo, di, up, r, u):
        m = di_k - lo_k * c
        c = up_k / m
        y_k = (r_k - lo_k * y_k) / m
        z_k = (u_k - lo_k * z_k) / m
        cp.append(c); y.append(y_k); z.append(z_k)
    for k in range(n - 2, -1, -1):
        y_k = y[k] = y[k] - cp[k] * y_k
        z_k = z[k] = z[k] - cp[k] * z_k
    f = (y[0] + beta * y[-1] / gamma) / (1.0 + z[0] + beta * z[-1] / gamma)
    return np.array(y, dtype=float) - f * np.array(z, dtype=float)


def _newton_step(table: np.ndarray, pattern: np.ndarray, f: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Newton update (dx, dlam) of the node states from the defects f =
    (fx, fl) and the penalty patterns, which index `_condensed_table`, of
    the steps n - 1, 0, ..., n - 1 (column 0 wraps).  Step i's rows read
    A_i dx_i + B_i dl_i - dx_{i+1} = -fx_i and
    C_i dx_i + D_i dl_i - dl_{i+1} = -fl_i.  The first gives
    dl_i = (dx_{i+1} - A_i dx_i - fx_i) / B_i; substituted into the
    second, it leaves a cyclic tridiagonal system in dx whose row k is
    step k - 1's costate row.
    """
    n = pattern.size - 1
    lower, upper, d_b, a_b, d, inv_b, a = table.take(pattern, axis=1)
    fx, fl = f
    rhs = (d * fx * inv_b - fl)[:n] - fx[1:] * inv_b[1:]
    dx = _cyclic_thomas(lower[:n].tolist(), (d_b[:n] + a_b[1:]).tolist(),
                        upper[1:].tolist(), rhs.tolist())
    dx_next = np.concatenate((dx[1:], dx[:1]))
    return dx, (dx_next - a[1:] * dx - fx[1:]) * inv_b[1:]


def _newton(sc: Scenario, alpha: float, start: PmpState,
            nodes: np.ndarray) -> tuple:
    """Full-step semismooth Newton on the node defects at penalty weight
    alpha, from `start` at every node, on the day's `nodes`.

    The node states are one (2, n + 1) array whose last column mirrors
    the first, so the next node's state is a view.  A step's condensed
    system depends only on which of its stages lie outside the box:
    every iteration gathers from `_condensed_table`'s 16 patterns.  The
    RK4 pass and the defect bookkeeping write into buffers made once per
    solve, which no other solve sees.

    Stops when the defect max |F_i| (wrap step included) is within
    tol_bc or after _MAX_NEWTON_ITERS linear solves.  Returns (z, defect,
    penalty stages, Newton iterations), z the node states with t = T
    mirrored; each iteration and the start cost one residual pass.

    Raises:
        DivergenceError: a defect is not finite, at the end time of the
            first such step.
    """
    n = sc.load.count
    dt, d, g = sc.load.dt, sc.cost.d, sc.cost.g
    step = _rk4_stepper(nodes, dt, d, g, alpha, sc.cost.pbar_kw)
    z = np.empty((2, n + 1))
    z[0] = float(start.x)
    z[1] = float(start.lam)
    f = np.empty((2, n + 1))
    abs_f = np.empty((2, n + 1))
    outside = np.empty((4, n), dtype=bool)
    # f and pattern hold step i in column i + 1 and step n - 1 again in
    # column 0, the layout `_newton_step` reads
    pattern = np.empty(n + 1, dtype=_STAGE_BITS.dtype)
    z_x, z_lam, z_next = z[0, :n], z[1, :n], z[:, 1:]
    z_first, z_last = z[:, 0], z[:, n]
    f_steps, f_first, f_last = f[:, 1:], f[:, 0], f[:, n]
    pattern_steps = pattern[1:]
    zeros = np.zeros((4, n))
    tol = sc.tolerances.tol_bc
    debug = logger.isEnabledFor(logging.DEBUG)

    def defects() -> float:
        """max |F| of the last pass; writes F into f, the stages outside
        the box into `outside` and each step's penalty pattern into `pattern`."""
        np.subtract(zn_steps, z_next, out=f_steps)
        f_first[:] = f_last
        defect = np.abs(f, out=abs_f).max()
        if not math.isfinite(defect):  # step i ends at t_{i+1}
            bad = np.flatnonzero(~np.isfinite(f_steps).all(axis=0))[0]
            t_fail = float((bad + 1) * dt)
            raise DivergenceError(
                f"non-finite state at t = {t_fail:.6g} h", t_hours=t_fail,
                initial_state=(float(start.x), float(start.lam)))
        np.not_equal(excess_steps, zeros, out=outside)
        np.dot(_STAGE_BITS, outside, out=pattern_steps)
        pattern[0] = pattern[n]
        return defect

    iters = 0
    with np.errstate(all="ignore"):
        table = _condensed_table(float(dt), float(d), float(g), float(alpha))
        zn, excess = step(z)  # every pass writes these two buffers
        zn_steps, excess_steps = zn[:, :n], excess[:, :n]
        defect = defects()
        while defect > tol and iters < _MAX_NEWTON_ITERS:
            t0 = time.perf_counter() if debug else 0.0
            dx, dl = _newton_step(table, pattern, f)
            z_x += dx
            z_lam += dl
            z_last[:] = z_first
            step(z)
            defect = defects()
            iters += 1
            if debug:
                ms = 1e3 * (time.perf_counter() - t0)
                stages = int(np.count_nonzero(outside))
                logger.debug("newton iter %d: defect %.3g, %d penalty stages, "
                             "%.3f ms", iters, defect, stages, ms,
                             extra={"iter": iters, "defect": float(defect),
                                    "penalty_stages": stages, "ms": ms})
    return z, float(defect), int(np.count_nonzero(outside)), iters


def box_violation(pm: np.ndarray, pbar: float) -> float:
    """Largest excursion of the draw pm outside [0, Pbar], in kW."""
    return float(np.abs(cmod.box_excess(pm, pbar)).max())


def initial_guess(sc: Scenario) -> PmpState:
    """Default start: the revenue-optimal level c_m(0)/2g bounded into
    [min p_L, max p_L + Pbar]."""
    hi = float(sc.load.values.max()) + sc.cost.pbar_kw
    return PmpState(x=min(_level(sc.load, sc.cost), hi), lam=0.0)


def _level(load: SampledProfile, m: CostModel) -> float:
    """`initial_guess`'s level before its upper bound, which reads Pbar."""
    return max(m.cm_at(0.0) / (2.0 * m.g), float(load.values.min()))


def _solution(z: np.ndarray, load: SampledProfile, m: CostModel,
              pbar: float, **diagnostics) -> PmpSolution:
    """The read-only solution of the node states z (made read-only) in [0, pbar]."""
    z.setflags(write=False)
    xs, ls = z
    u = cmod.control_from_costate(ls, m) + 0.0  # folds -0.0 into 0.0
    pm = xs - periodic_ext(load.values)
    clipped = np.clip(pm, 0.0, pbar)
    for v in (u, pm, clipped):
        v.setflags(write=False)
    violation = box_violation(pm, pbar)
    return PmpSolution(
        x_traj=xs, lambda_traj=ls, u_traj=u, pm_traj=pm, pm_clipped=clipped,
        box_violation_kw=violation, box_violation_frac=violation / pbar,
        **diagnostics)


def _interior(sc: Scenario) -> tuple:
    """The scenario's interior pass, shared as `_day` is."""
    m = sc.cost
    return _build_interior(sc.load, m.cm, m.g, m.d)


@functools.lru_cache(maxsize=64)
def _build_interior(load: SampledProfile, cm: Union[float, SampledProfile],
                    g: float, d: float) -> tuple:
    """Run a day's first RK4 pass once per process, keyed like `_build_day`:
    from `_level` and lam = 0 at every node, at alpha = 0 and Pbar = 0,
    where the pass's excess output is each stage's draw.  In a box holding
    every stage draw the excess is 0.0 at any weight, and Pbar enters the
    pass only through it, so Newton's first pass from that start has these
    bits, and the draw's penalty there is 0.0.  Returns (the least Pbar
    whose box holds every stage draw, inf if one is below 0; the pass as
    `solve` returns it, at weight 0; `objective` of its draw there)."""
    day = _build_day(load, cm, g, d)
    m = CostModel(g=g, pbar_kw=np.finfo(float).max, cm=cm, d=d)  # holds all pm >= 0
    z = np.repeat([[_level(load, m)], [0.0]], load.count + 1, axis=1)
    with np.errstate(all="ignore"):
        zn, draws = _rk4_stepper(day.nodes, load.dt, d, g, 0.0, 0.0)(z)
        defect = float(np.abs(zn[:, :-1] - z[:, 1:]).max())
    sol = _solution(z, load, m, math.inf, converged=True, newton_iters=0,
                    periodic_residual=defect, alpha_used=0.0, rk4_passes=1)
    least_pbar = float(draws.max()) if draws.min() >= 0.0 else math.inf
    return (least_pbar, sol,
            _objective(load, m, day.cm, sol.pm_traj[:-1], day.baseline))


def resolvable_alpha(sc: Scenario) -> float:
    """Largest penalty weight the grid resolves: a penalty arc steps at
    stiffness z = dt*sqrt((g + alpha)/d), and this weight puts z at Z_STAR."""
    return (Z_STAR / sc.load.dt) ** 2 * sc.cost.d - sc.cost.g


def failure_reason(sol: PmpSolution, sc: Scenario) -> str:
    """Why `solve` returned sol with converged=False."""
    if sol.periodic_residual > sc.tolerances.tol_bc:
        reason = (f"residual {sol.periodic_residual:.3g} after "
                  f"{sol.newton_iters} Newton iterations")
    else:
        reason = "the penalty acts"
    reason += f" at alpha {sol.alpha_used:g}"
    if sc.cost.alpha >= resolvable_alpha(sc):
        reason += f"; {_resolution_limit(sc)}"
    return reason


def _resolution_limit(sc: Scenario) -> str:
    """Names the requested weight and the largest weight dt resolves, or,
    where dt resolves none, the fewest nodes per period that resolve it."""
    m, dt, limit = sc.cost, sc.load.dt, resolvable_alpha(sc)
    if limit > 0.0:
        return (f"the requested alpha {m.alpha:g} is above {limit:.4g}, "
                f"the largest alpha that dt = {dt:g} h resolves")
    # the least n with alpha < (Z_STAR * n / T)^2 * d - g, and the most
    # nodes a grid holds, one per second
    period = sc.load.period_T
    n = math.floor(period / Z_STAR * math.sqrt((m.g + m.alpha) / m.d)) + 1
    finest = _NODES_PER_HOUR * period
    grid = (f"--n {n} is the fewest nodes per period that resolve" if n <= finest
            else f"no grid of at most one node per second (--n {finest:.0f}) resolves")
    return (f"dt = {dt:g} h resolves no penalty weight at g = {m.g:g} and "
            f"d = {m.d:g}; {grid} alpha {m.alpha:g}")


def solve(sc: Scenario, guess: PmpState | None = None) -> PmpSolution:
    """Solve the scenario at the final weight of its schedule.

    Newton runs once, from the constant start `guess` (default
    `initial_guess`) at every node, at the largest schedule weight the
    grid resolves (`resolvable_alpha`), or at the first weight if it
    resolves none.  Below the final weight, a solution with no RK4
    stage outside the box solves every larger weight too, as the
    penalty never acts, and is returned at the final weight.  Otherwise
    the solve stops there: the solution comes back with converged=False
    and alpha_used set to that weight; `failure_reason` names the
    requested weight, dt and the largest weight dt resolves.

    Without a guess, where the start is the level of its day's interior
    pass (`_interior`), the box holds the pass and tol_bc its defect, the
    pass is the solution at the final weight: 0 Newton steps, 1 RK4 pass,
    the bits Newton from that start would give.

    Raises:
        ValidationError: the guess is not finite, or the day's costs
            leave float range (`_build_day`).
        DivergenceError: a Newton iterate is not finite; at a weight
            the grid does not resolve, the message names the limit.
    """
    pbar, tol = sc.cost.pbar_kw, sc.tolerances.tol_bc
    start = guess if guess is not None else initial_guess(sc)
    # the start's largest draw: past the box, no pass stays inside it
    if guess is None and start.x - float(sc.load.values.min()) <= pbar:
        least_pbar, interior, _ = _interior(sc)
        if (interior.x_traj[0] == start.x and least_pbar <= pbar
                and interior.periodic_residual <= tol):
            return replace(interior, alpha_used=sc.cost.alpha)
    if not (math.isfinite(start.x) and math.isfinite(start.lam)):
        raise ValidationError("solve guess must be finite")
    limit = resolvable_alpha(sc)
    alpha = max((a for a in sc.alpha_schedule if a < limit),
                default=sc.alpha_schedule[0])
    try:
        z, defect, stages, iters = _newton(sc, alpha, start, _day(sc).nodes)
    except DivergenceError as exc:
        if alpha < limit:
            raise
        raise DivergenceError(f"{exc}; {_resolution_limit(sc)}", exc.t_hours,
                              exc.initial_state) from exc
    # below the final weight, only a solve the penalty never acts on holds
    converged = defect <= tol and (alpha == sc.cost.alpha or not stages)
    return _solution(z, sc.load, sc.cost, pbar, converged=converged,
                     periodic_residual=defect, newton_iters=iters,
                     alpha_used=sc.cost.alpha if converged else alpha,
                     rk4_passes=iters + 1)


def stationary_point(sc: Scenario) -> float:
    """Generation level where marginal cost equals the revenue rate.

    Only defined for a constant revenue rate; with the penalty inactive
    the optimal trajectory is this constant.
    """
    if not sc.cost.cm_is_constant:
        raise ValidationError("stationary_point requires a constant cm")
    return float(sc.cost.cm) / (2.0 * sc.cost.g)


def _forward_ramp(pg: np.ndarray, dt: float) -> np.ndarray:
    """Ramp rate at each node: the periodic forward difference of pg."""
    return (periodic_ext(pg)[1:] - pg) / dt


def revenue(sc: Scenario, pm: np.ndarray) -> float:
    """Revenue term of `objective` in $: dt times the node sum of c_m * pm."""
    return _revenue(sc.load, _day(sc).cm, pm)


def _revenue(load: SampledProfile, cm: np.ndarray, pm: np.ndarray) -> float:
    return load.dt * float(cm @ pm)


def objective(sc: Scenario, pm: np.ndarray,
              baseline: CostBreakdown | None = None) -> CostBreakdown:
    """Objective terms in $ of the draw pm at the n grid nodes, with
    `baseline` attached as given.

    Each term is dt times the node sum of its density: generation and
    ramping of pg = p_L + pm (ramp by `_forward_ramp`), revenue c_m * pm
    (`revenue`) and the box penalty.
    """
    return _objective(sc.load, sc.cost, _day(sc).cm, pm, baseline)


def _objective(load: SampledProfile, m: CostModel, cm: np.ndarray,
               pm: np.ndarray, baseline: CostBreakdown | None = None
               ) -> CostBreakdown:
    """`objective` on the pieces of a scenario it reads."""
    dt = load.dt
    pg = load.values + pm
    gen = dt * float(cmod.gen_cost(pg, m).sum())
    ramp = dt * float(cmod.ramp_cost(_forward_ramp(pg, dt), m).sum())
    rev = _revenue(load, cm, pm)
    penalty = dt * float(cmod.penalty_xi(pm, m).sum())
    return CostBreakdown(
        generation_usd=gen, ramping_usd=ramp, revenue_usd=rev,
        penalty_usd=penalty, total_usd=gen + ramp - rev + penalty,
        baseline=baseline)


def evaluate(sol: PmpSolution, sc: Scenario) -> CostBreakdown:
    """`objective` of the solution's draw, with the no-mining baseline
    (p_m = 0, generation follows the load) attached so callers can
    report savings.

    The day's interior draw (`_interior`) comes priced: in a box holding
    the pass, its penalty is 0.0 at any weight, and the rest reads the day.
    """
    m = sc.cost
    if not sol.newton_iters:  # as the pass; binding solves never build it
        least_pbar, interior, bd = _interior(sc)
        if sol.pm_traj is interior.pm_traj and least_pbar <= m.pbar_kw:
            return bd
    day = _day(sc)
    return _objective(sc.load, m, day.cm, sol.pm_traj[:-1], day.baseline)


def breakdown_as_dict(bd: CostBreakdown) -> dict:
    out = {k: v for k, v in vars(bd).items() if k != "baseline"}
    if bd.baseline is not None:
        out["baseline"] = breakdown_as_dict(bd.baseline)
    return out


# Each reader takes a JSON value as it is: bool("false") would be True,
# int(2.7) 2, int(true) 1, float("100") 100.0 and float("nan") NaN.  No
# solve writes a negative number.
def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _at_least_zero(value):
    if value < 0:
        raise ValueError(f"expected a value >= 0, got {value!r}")
    return value


def _json_float(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return _at_least_zero(float(value))


def _json_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return _at_least_zero(value)


# diagnostics.json keys restoring PmpSolution fields, and their types
_DIAGNOSTICS_FIELDS = {"converged": _json_bool,
                       "periodic_residual": _json_float,
                       "newton_iters": _json_int, "alpha_used": _json_float,
                       "rk4_passes": _json_int}


def solution_diagnostics(sol: PmpSolution, sc: Scenario) -> dict:
    """Diagnostics document matching the JSON export schema."""
    return {**{key: getattr(sol, key) for key in _DIAGNOSTICS_FIELDS},
            "box_violation_kw": sol.box_violation_kw,
            "box_violation_frac": sol.box_violation_frac,
            "objective_breakdown": breakdown_as_dict(evaluate(sol, sc))}


@names_path
def read_diagnostics(path: Path) -> dict:
    """The `PmpSolution` fields of a diagnostics.json, typed."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("expected a JSON object")
    doc.setdefault("rk4_passes", 0)  # older files lack it
    try:
        return {key: kind(doc[key]) for key, kind in _DIAGNOSTICS_FIELDS.items()}
    except KeyError as exc:
        raise ValidationError(f"missing key {exc}") from exc
    # a mistyped value, one below 0, or an integer past float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad value: {exc}") from exc


def _schedule_csv(sc: Scenario, x, lam, u, pm, pm_clipped) -> str:
    """Solution CSV of the node columns given, t = T included."""
    t_cells, pl_cells = sc._csv_grid_cells
    return format_table(SOLUTION_CSV_HEADER, (
        t_cells, *(np.asarray(v, dtype=float).tolist()
                   for v in (x, lam, u, pm, pm_clipped)), pl_cells))


def solution_to_csv(sol: PmpSolution, sc: Scenario) -> str:
    """Render the solution as CSV text (one row per grid node, t=T included)."""
    return _schedule_csv(sc, sol.x_traj, sol.lambda_traj, sol.u_traj,
                         sol.pm_traj, sol.pm_clipped)


@names_path
def read_solution_csv(source) -> dict[str, np.ndarray]:
    """Parse a solution CSV into read-only column arrays keyed by name.

    Raises:
        ValidationError: naming the line, for an empty file, a wrong
            header, a row whose field count differs from the header, a
            cell that is not a finite number, fewer than 4 nodes and
            t = T, a negative ``pl_kw``, a ``t_h`` off the grid 0,
            dt, 2·dt, ... (dt = t_h[1] > 0, to 1e-9 of the period), or
            a t = T row whose other cells differ from row 0's.
    """
    header, rows = read_table(source)
    if header != SOLUTION_CSV_HEADER.split(","):
        raise ValidationError(f"line 1: expected the header {SOLUTION_CSV_HEADER!r}")
    data = table_floats(header, rows, header)
    if len(rows) <= _MIN_SAMPLES:
        raise ValidationError(
            f"line {rows[-1][0] if rows else 1}: solution CSV needs at least "
            f"{_MIN_SAMPLES + 1} rows ({_MIN_SAMPLES} nodes and t = T), "
            f"got {len(rows)}")
    refuse_negative(rows, data[:, -1:], header[-1:])  # pl_kw
    t = data[:, 0]
    grid = float(t[1]) * np.arange(len(t))
    off = np.abs(t - grid) > 1e-9 * grid[-1]
    off[:2] = t[0] != 0.0, not t[1] > 0.0
    if off.any():
        i = int(np.argmax(off))
        raise ValidationError(
            f"line {rows[i][0]}: t_h {float(t[i])!r} is off the uniform grid "
            f"0, dt, 2*dt, ... with dt = t_h[1] = {float(t[1])!r} > 0")
    unequal = np.flatnonzero(data[-1, 1:] != data[0, 1:]) + 1
    if unequal.size:
        first, last = data[[0, -1], unequal[0]].tolist()
        raise ValidationError(
            f"line {rows[-1][0]}: the t = T row must repeat row 0: column "
            f"{header[unequal[0]]!r} holds {last!r}, row 0 holds {first!r}")
    data.setflags(write=False)
    return {name: data[:, j] for j, name in enumerate(header)}
