"""The three benchmark workloads: inputs, one op, its output checks, a replay.

Every workload draws its inputs from the seed alone, writes the files it
hands to the program under its own work directory, and exposes:

    prepare(i)     untimed housekeeping before op i
    run(i)         op i, the timed part; returns what the check needs
    check(i, res)  (ok, solves attempted, solves converged) for op i
    replay(i, tr)  op i as traced public-function calls, in CLI order
    probe(i, tr)   traced layer probes that are not part of an op
    peak_rss_mb()  peak resident set of the processes that ran the ops

End-to-end ops use only CLI argv and the package-level API of
``rampsched``.  Replays resolve module functions by name through the
tracer, so a function a later version drops is reported as absent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import rampsched as rs
from rampsched import cli

from layers import OFF, run_child

M1 = rs.MACHINE_PRESETS["1"]
CM1 = rs.compute_cm(M1)
G1 = rs.compute_g(M1)

# Sweep ladder: fleet sizes as fractions of the size at which the optimum
# becomes interior, from undersized (the miner bound binds) to oversized.
LADDER = (0.85, 0.93, 0.97, 1.0, 1.1, 1.25)
TROUGH_SCHEDULE = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
SWEEP_POOL = 1024         # days per sweep run, half of each family
SWEEP_REPEAT = 8          # every 8th sweep op repeats the study two before
CLI_DAYS = 4              # distinct days per cli_day run
CLI_N = 1440              # 1-minute resolution
VERIFY_INPUTS = 8         # distinct binding inputs per verify run
VERIFY_N = 48
CLI_FLEET_MARGIN = 1.25   # cli_day fleet over the interior size
VERIFY_FLEET_FRACTION = 0.93
OP_TIMEOUT_S = 60.0
MAX_BOX_VIOLATION = 0.01  # share of Pbar a converged pm_traj may leave the box


def strata(rng: np.random.Generator, count: int) -> list[list[float]]:
    """``count`` points of [0, 1)^3, one in each of ``count`` equal slices
    of every axis (a Latin hypercube), in random order.

    Every seed's days then cover the parameter ranges evenly, so the
    seed moves a run's cost mix, and its p90 above all, much less than
    independent draws would.
    """
    slices = np.stack([rng.permutation(count) for _ in range(3)], axis=1)
    return ((slices + rng.random((count, 3))) / count).tolist()


def duck_day(u, dt: float) -> rs.SampledProfile:
    """Plant-scale duck day; PV above base load floors midday net load at 0.

    ``u`` in [0, 1)^3 places base load, evening peak and PV in their ranges.
    """
    base = 6500.0 + 2000.0 * u[0]
    peak = 1500.0 + 1500.0 * u[1]
    pv = base * (1.05 + 0.25 * u[2])
    return rs.synth_duck_curve(base, peak, pv, dt=dt)[2]


def trough_day(u, n: int = 96):
    """Small-scale day in the regime of the corpus's trough_touch scenario.

    Returns (load, g): the revenue-optimal level cm/2g sits at 2.4x the
    mean load, so an undersized fleet touches its upper bound at night.
    """
    t = np.arange(n) * (24.0 / n)
    mean = 90.0 + 20.0 * u[0]
    amp = 20.0 + 10.0 * u[1]
    peak_hour = 17.0 + 4.0 * u[2]
    load = mean + amp * np.sin(2.0 * np.pi * (t - peak_hour + 6.0) / 24.0)
    return rs.SampledProfile(24.0 / n, load), CM1 / (4.8 * mean)


def interior_count(load: rs.SampledProfile, g: float) -> int:
    """Smallest fleet of machine 1 whose box holds the constant optimum."""
    level = CM1 / (2.0 * g)
    if level < load.values.max():
        raise ValueError("revenue-optimal level below peak load")
    return math.ceil((level - load.values.min()) / M1.demand_kw)


def machine_cfg(path: Path, **extra) -> None:
    """Write machine 1 as a flat key = value config, plus extra keys."""
    keys = {"name": M1.name, "demand_w": M1.demand_w,
            "hashrate_ths": M1.hashrate_ths, "income_usd_day": M1.income_usd_day,
            "elec_cost": M1.elec_cost_coeff, "price_usd": M1.price_usd,
            "lifespan_years": M1.lifespan_years, "k": M1.k_const, **extra}
    path.write_text("".join(f"{k} = {v!r}\n" if not isinstance(v, str)
                            else f"{k} = {v}\n" for k, v in keys.items()),
                    encoding="utf-8")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""

    def prepare(self, i: int) -> None:
        pass

    def probe(self, i: int, tr) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliDay(Workload):
    """One operator's day: fresh `solve` then `econ --solution` processes."""

    name = "cli_day"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        self.work = work
        self.days = []
        for k, u in enumerate(strata(rng, CLI_DAYS)):
            load = duck_day(u, dt=24.0 / CLI_N)
            csv, cfg = work / f"day{k}.csv", work / f"day{k}.cfg"
            rs.write_csv(csv, load=load)
            count = math.ceil(CLI_FLEET_MARGIN * interior_count(load, G1))
            machine_cfg(cfg, count=count, d=1.0)
            self.days.append((csv, cfg))
        src = str(Path(rs.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src if not path else src + os.pathsep + path)
        self.refs: dict[int, tuple[bytes, ...]] = {}

    def _dirs(self, k: int) -> tuple[Path, Path]:
        return self.work / f"run{k}", self.work / f"econ{k}"

    def prepare(self, i: int) -> None:
        for d in self._dirs(i % CLI_DAYS):
            fresh_dir(d)

    def _cli(self, args: list[str], log: Path) -> int:
        with open(log, "wb") as fh:
            return run_child([sys.executable, "-m", "rampsched.cli", *args],
                             OP_TIMEOUT_S, env=self.env, stdout=fh,
                             stderr=subprocess.STDOUT)

    def run(self, i: int) -> tuple[int, int]:
        k = i % CLI_DAYS
        csv, cfg = self.days[k]
        run_dir, econ_dir = self._dirs(k)
        rc_solve = self._cli(["solve", "--load", str(csv), "--machine", str(cfg),
                              "--out", str(run_dir)], run_dir / "solve.log")
        rc_econ = self._cli(["econ", "--machine", str(cfg), "--solution",
                             str(run_dir), "--out", str(econ_dir)],
                            econ_dir / "econ.log")
        return rc_solve, rc_econ

    def check(self, i: int, res: tuple[int, int]) -> tuple[bool, int, int]:
        """Exit 0 twice, converged, sane report, bytes equal to the first op."""
        k = i % CLI_DAYS
        run_dir, econ_dir = self._dirs(k)
        try:
            outputs = tuple((d / f).read_bytes() for d, f in (
                (run_dir, "solution.csv"), (run_dir, "diagnostics.json"),
                (econ_dir, "econ_report.json")))
            diag = json.loads(outputs[1])
            report = json.loads(outputs[2])
        except (OSError, ValueError):
            return False, 1, 0
        converged = diag.get("converged") is True
        ok = (res == (0, 0) and converged
              and outputs[0].count(b"\n") == CLI_N + 2  # header, t=0..T
              and math.isfinite(report.get("net_profit", math.nan))
              and self.refs.setdefault(k, outputs) == outputs)
        return ok, 1, int(converged)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def replay(self, i: int, tr) -> None:
        k = i % CLI_DAYS
        csv, cfg_path = self.days[k]
        out = self.work / f"replay{k}"
        out.mkdir(exist_ok=True)
        with tr.op(self.name):
            cols = tr.call("profiles.load_csv", csv, attrs={"n": CLI_N})
            cfg = tr.call("costmodel.load_config", cfg_path)
            fleet = tr.call("costmodel.fleet_from_config", cfg)
            if cols is None or fleet is None:
                return
            sc = tr.call("pmp.make_scenario", cols["load"], fleet,
                         d=cfg.get("d", 1.0))
            with tr.span("pmp.solve", n=CLI_N) as rec:
                sol = rs.solve(sc)
            rec.update(converged=sol.converged, newton_iters=sol.newton_iters)
            diag = tr.call("pmp.solution_diagnostics", sol, sc,
                           attrs={"n": CLI_N})
            text = tr.call("pmp.solution_to_csv", sol, sc, attrs={"n": CLI_N})
            with tr.span("cli.write_outputs"):
                (out / "solution.csv").write_text(text or "", encoding="utf-8")
                (out / "diagnostics.json").write_text(
                    json.dumps(diag, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
            cfg = tr.call("costmodel.load_config", cfg_path)
            machine = tr.call("costmodel.machine_from_config", cfg)
            tr.call("pmp.read_solution_csv", out / "solution.csv",
                    attrs={"n": CLI_N})
            report = tr.call("econ.daily_report", sol, sc, machine,
                             attrs={"n": CLI_N})
            with tr.span("econ.report_render"):
                as_dict = tr.fn("econ.report_as_dict")
                table = tr.fn("econ.format_report_table")
                if as_dict and table:
                    json.dumps(as_dict(report), indent=2, sort_keys=True)
                    table([report])

    def probe(self, i: int, tr) -> None:
        csv, cfg_path = self.days[i % CLI_DAYS]
        load = rs.load_csv(csv)["load"]
        fleet = rs.FleetSpec(M1, rs.load_config(cfg_path)["count"])
        sc = rs.make_scenario(load, fleet, d=1.0)
        tr.call("pmp.integrate", rs.PmpState(CM1 / (2.0 * G1), 0.0), sc,
                attrs={"n": sc.load.count})


class Sweep(Workload):
    """Sizing studies: one day solved over the fleet-size ladder per op."""

    name = "sweep"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        # Undersized plant points fail by design of the solver; their
        # warnings would flood stderr, the failures are counted instead.
        logging.getLogger("rampsched").setLevel(logging.ERROR)
        self.pool = []
        half = SWEEP_POOL // 2
        for u_plant, u_trough in zip(strata(rng, half), strata(rng, half)):
            load = duck_day(u_plant, dt=0.25)
            self.pool.append(("plant", load, G1, 1.0, None))
            load, g = trough_day(u_trough)
            self.pool.append(("trough", load, g, 4.0, TROUGH_SCHEDULE))
        self.refs: dict[int, list] = {}

    @staticmethod
    def day_index(i: int) -> int:
        """Pool day of op i.

        A plant day's ladder costs 10-120 ms with no relation to the
        day's parameters, so the p90 is set by how many distinct days a
        run sees; a run of ~850 ops sees each of them once.  Every
        SWEEP_REPEAT-th op repeats the study of op i - 2, of the same
        family, so that the determinism check runs in every run.
        """
        return (i - 2 if i % SWEEP_REPEAT == SWEEP_REPEAT - 1 else i) % SWEEP_POOL

    def _scenario(self, day, count: int) -> rs.Scenario:
        _, load, g, d, schedule = day
        kw = {} if schedule is None else {"alpha_schedule": schedule}
        return rs.make_scenario(load, rs.FleetSpec(M1, count), g=g, d=d, **kw)

    def replay(self, i: int, tr) -> list:
        """One ladder study; returns (sc, sol or None, refused) per point."""
        day = self.pool[self.day_index(i)]
        n_star = interior_count(day[1], day[2])
        points = []
        with tr.op(self.name):
            for frac in LADDER:
                with tr.span("pmp.make_scenario"):
                    sc = self._scenario(day, max(1, round(frac * n_star)))
                with tr.span("pmp.solve", n=96) as rec:
                    try:
                        sol = rs.solve(sc)
                    except rs.DivergenceError:
                        sol = None
                converged = sol is not None and sol.converged
                rec.update(converged=converged,
                           newton_iters=sol.newton_iters if sol else 0,
                           kind=("failed" if not converged else
                                 "interior" if frac >= 1.0 else "touch"))
                refused = sol is None  # diverged in stage one: no schedule
                if converged:
                    with tr.span("pmp.evaluate", n=96):
                        rs.evaluate(sol, sc)
                    with tr.span("econ.daily_report", n=96):
                        rs.daily_report(sol, sc, M1)
                elif sol is not None:
                    with tr.span("econ.daily_report.refused"):
                        try:
                            rs.daily_report(sol, sc, M1)
                        except rs.ReportOnUnconvergedError:
                            refused = True
                points.append((sc, sol, refused))
        return points

    def run(self, i: int) -> list:
        return self.replay(i, OFF)

    def check(self, i: int, points: list) -> tuple[bool, int, int]:
        """Converged points are closed and inside the box, the rest are
        refused, and a repeated study reproduces the first bit for bit."""
        ok = True
        fingerprint = []
        for sc, sol, refused in points:
            if sol is not None and sol.converged:
                pbar = sc.cost.pbar_kw
                violation = max(0.0, float(-sol.pm_traj.min()),
                                float(sol.pm_traj.max()) - pbar)
                ok &= (sol.periodic_residual <= sc.tolerances.tol_bc
                       and violation <= MAX_BOX_VIOLATION * pbar)
            else:
                ok &= refused
            fingerprint.append(None if sol is None else (
                sol.converged, sol.periodic_residual,
                hashlib.sha256(sol.pm_traj.tobytes()).digest()))
        ok &= self.refs.setdefault(self.day_index(i), fingerprint) == fingerprint
        converged = sum(1 for _, sol, _ in points
                        if sol is not None and sol.converged)
        return bool(ok), len(points), converged

    def probe(self, i: int, tr) -> None:
        day = self.pool[self.day_index(i)]
        sc = self._scenario(day, interior_count(day[1], day[2]))
        tr.call("pmp.integrate", rs.PmpState(CM1 / (2.0 * day[2]), 0.0), sc,
                attrs={"n": 96})


class Verify(Workload):
    """`oracle-check --n 48` on binding inputs, served in process."""

    name = "verify"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 3])
        self.work = work
        self.inputs = []
        for k, u in enumerate(strata(rng, VERIFY_INPUTS)):
            load, g = trough_day(u)
            csv, cfg = work / f"verify{k}.csv", work / f"verify{k}.cfg"
            rs.write_csv(csv, load=load)
            count = round(VERIFY_FLEET_FRACTION * interior_count(load, g))
            machine_cfg(cfg, g_override=g, d=4.0, count=count)
            self.inputs.append((csv, cfg))
        self.schedule = ",".join(repr(a) for a in TROUGH_SCHEDULE)

    def _out(self, k: int) -> Path:
        return self.work / f"check{k}"

    def prepare(self, i: int) -> None:
        fresh_dir(self._out(i % VERIFY_INPUTS))

    def run(self, i: int) -> int:
        k = i % VERIFY_INPUTS
        csv, cfg = self.inputs[k]
        argv = ["oracle-check", "--load", str(csv), "--machine", str(cfg),
                "--n", str(VERIFY_N), "--alpha-schedule", self.schedule,
                "--out", str(self._out(k))]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, rc: int) -> tuple[bool, int, int]:
        out = self._out(i % VERIFY_INPUTS)
        try:
            oracle = json.loads((out / "oracle_diagnostics.json").read_bytes())
            comparison = json.loads((out / "comparison.json").read_bytes())
        except (OSError, ValueError):
            return False, 1, 0
        solved = comparison.get("solver_converged") is True
        return rc == 0 and oracle.get("converged") is True, 1, int(solved)

    def replay(self, i: int, tr) -> None:
        csv, cfg_path = self.inputs[i % VERIFY_INPUTS]
        with tr.op(self.name):
            cfg = tr.call("costmodel.load_config", cfg_path)
            fleet = tr.call("costmodel.fleet_from_config", cfg)
            cols = tr.call("profiles.load_csv", csv, attrs={"n": 96})
            if cols is None or fleet is None:
                return
            load = cols["load"]
            tr.call("pmp.make_scenario", load, fleet, g=cfg["g_override"],
                    d=cfg["d"], alpha_schedule=TROUGH_SCHEDULE)
            load = tr.call("profiles.resample_periodic", load,
                           load.period_T / VERIFY_N)
            sc = tr.call("pmp.make_scenario", load, fleet, g=cfg["g_override"],
                         d=cfg["d"], alpha_schedule=TROUGH_SCHEDULE)
            with tr.span("pmp.solve", n=VERIFY_N) as rec:
                sol = rs.solve(sc)
            rec.update(converged=sol.converged, newton_iters=sol.newton_iters)
            pg = tr.fn("oracle.solve_projected_gradient")
            if pg is None:
                return
            with tr.span("oracle.solve_projected_gradient", n=VERIFY_N) as rec:
                ref = pg(sc)
            tr.call("pmp.evaluate", sol, sc, attrs={"n": VERIFY_N})
            tr.call("oracle.oracle_to_csv", ref, sc)
            diag = tr.call("oracle.oracle_diagnostics", ref, sc) or {}
            rec.update(iterations=ref.iterations,
                       converged=diag.get("converged") is True)
            tr.call("pmp.solution_to_csv", sol, sc, attrs={"n": VERIFY_N})
            tr.call("pmp.solution_diagnostics", sol, sc)


WORKLOADS = {w.name: w for w in (CliDay, Sweep, Verify)}
