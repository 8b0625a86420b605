"""Command-line surface: solve schedules, verify, report economics.

Exit codes: 0 success, 1 input error (usage errors included), 2 solver
non-convergence, 3 verification gap or failed verifier.  Outputs are
written to temp names and renamed on success, so a crashed run never
leaves partial files.  Verbosity comes from the RAMP_SCHED_LOG
environment variable (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import logging
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import costmodel as cmod
from . import econ, oracle, pmp, profiles
from .errors import DivergenceError, RampSchedError, ValidationError

logger = logging.getLogger("rampsched.cli")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFICATION = 3

DEFAULT_OBJECTIVE_GAP = 0.005     # relative objective tolerance for checks
DEFAULT_PM_GAP_FRACTION = 0.02    # trajectory gap tolerance as share of Pbar

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("RAMP_SCHED_LOG", "warn").lower(),
                            logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_atomic(path: Path, text: str) -> None:
    data = memoryview(text.encode("utf-8"))
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        try:
            while data:  # os.write may write less than it was given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(out: Path, files: dict[str, str]) -> None:
    """Create the output directory once, then write each file atomically."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write_atomic(out / name, text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _within(kind, lo, hi=math.inf, *, above=False):
    """argparse type: `kind` of the text, refused outside [lo, hi], or
    outside (lo, hi] if `above`."""
    def parse(text: str):
        value = kind(text)
        if not (lo < value if above else lo <= value) or value > hi:
            bound = (f"{'>' if above else '>='} {lo}" if hi == math.inf else
                     f"within {'(' if above else '['}{lo}, {hi}]")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


def _schedule(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated finite weights >= 0, increasing."""
    weights = tuple(map(_within(_finite_float, 0), text.split(",")))
    if not all(b > a for a, b in zip(weights, weights[1:])):
        raise argparse.ArgumentTypeError(
            f"must be strictly increasing, got {text}")
    return weights


def _spacing(period: float, n: int) -> float:
    """The spacing of --n nodes per period, the one grid flag."""
    # an n past float range is refused downstream, as too fine a grid
    return period / min(n, sys.float_info.max)


def _config_scenario(cfg, args, load, **kw) -> pmp.Scenario:
    fleet = cmod.fleet_from_config(cfg, count_override=args.fleet_count)
    return pmp.Scenario(load, fleet, g=cfg.get("g_override"),
                        d=cfg.get("d", 1.0), **kw)


def _build_scenario(args) -> pmp.Scenario:
    cfg = cmod.load_config(args.machine)
    cols = profiles.load_csv(args.load, scale=args.load_scale)
    if "load" not in cols:
        raise ValidationError(f"{args.load}: no load_kw column")
    load = cols["load"]
    if "pv" in cols:  # the dispatch load is net of PV
        load = profiles.SampledProfile(
            load.dt, np.maximum(load.values - cols["pv"].values, 0.0))
    if args.n is not None:
        load = profiles.resample_periodic(load,
                                          _spacing(load.period_T, args.n))
    return _config_scenario(cfg, args, load,
                            alpha_schedule=args.alpha_schedule,
                            tolerances=pmp.Tolerances(tol_bc=args.tol_bc))


def _solution_files(sol: pmp.PmpSolution, sc: pmp.Scenario,
                    diagnostics: dict) -> dict[str, str]:
    return {"solution.csv": pmp.solution_to_csv(sol, sc),
            "diagnostics.json": _json_text(diagnostics)}


def cmd_solve(args) -> int:
    sc = _build_scenario(args)
    sol = pmp.solve(sc)
    files = _solution_files(sol, sc, pmp.solution_diagnostics(sol, sc))
    _write_outputs(Path(args.out), files)
    if args.format == "json":
        print(files["diagnostics.json"], end="")
    if not sol.converged:
        print(f"not converged: {pmp.failure_reason(sol, sc)}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    logger.info("converged in %d Newton iterations at alpha %g",
                sol.newton_iters, sol.alpha_used)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    sc = _build_scenario(args)
    sol = pmp.solve(sc)
    try:
        ref = oracle.solve_active_set(sc, start=sol.pm_clipped[:-1])
    except RampSchedError as exc:
        print(f"verification failed: oracle error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    ref_diagnostics = oracle.oracle_diagnostics(ref, sc)

    diagnostics = pmp.solution_diagnostics(sol, sc)
    terms = diagnostics["objective_breakdown"]  # the draw priced once
    j_pmp_cmp = terms["generation_usd"] + terms["ramping_usd"] - terms["revenue_usd"]
    obj_gap = abs(j_pmp_cmp - ref.objective) / (1.0 + abs(ref.objective))
    pm_gap = float(np.max(np.abs(sol.pm_clipped[:-1] - ref.pm)))
    pm_gap_frac = pm_gap / sc.cost.pbar_kw
    ok = (sol.converged and ref_diagnostics["converged"]
          and obj_gap <= args.obj_tol and pm_gap_frac <= args.pm_tol)

    doc = {
        "n": sc.load.count,
        "solver_converged": sol.converged,
        "objective_solver_usd": j_pmp_cmp,
        "objective_oracle_usd": ref.objective,
        "objective_gap_rel": obj_gap,
        "pm_gap_linf_kw": pm_gap,
        "pm_gap_fraction_of_pbar": pm_gap_frac,
        "oracle_iterations": ref.iterations,
        "oracle_grad_norm": ref.grad_norm,
        "tolerances": {"objective_gap_rel": args.obj_tol,
                       "pm_gap_fraction_of_pbar": args.pm_tol},
        "within_tolerance": ok,
    }
    _write_outputs(Path(args.out), {
        "comparison.json": _json_text(doc),
        "oracle_solution.csv": oracle.oracle_to_csv(ref, sc),
        "oracle_diagnostics.json": _json_text(ref_diagnostics),
        **_solution_files(sol, sc, diagnostics)})
    if not ok:
        if not sol.converged:
            print(f"not converged: {pmp.failure_reason(sol, sc)}", file=sys.stderr)
        print(f"verification gap: objective {obj_gap:.3%}, "
              f"pm {pm_gap_frac:.3%} of Pbar, oracle KKT residual "
              f"{ref.grad_norm:.3g}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _solution_csv(args) -> Path:
    path = Path(args.solution)
    return path / "solution.csv" if path.is_dir() else path


def _scenario_from_solution(args, cfg) -> tuple[pmp.PmpSolution, pmp.Scenario]:
    csv_path = _solution_csv(args)
    cols = pmp.read_solution_csv(csv_path)
    diag = pmp.read_diagnostics(csv_path.parent / "diagnostics.json")

    t = cols["t_h"]
    dt = float(t[1] - t[0])
    load = profiles.SampledProfile(dt, cols["pl_kw"][:-1])
    sc = _config_scenario(cfg, args, load, alpha_schedule=(diag["alpha_used"],))
    pbar, clipped = sc.cost.pbar_kw, cols["pm_clipped_kw"]
    if pmp.box_violation(clipped, pbar) > 1e-9 * pbar:
        raise ValidationError(
            f"{csv_path}: pm_clipped_kw spans {clipped.min():.6g} to "
            f"{clipped.max():.6g} kW, outside [0, {pbar:.6g}] kW for "
            f"{sc.fleet.count} machines")
    violation = pmp.box_violation(cols["pm_kw"], pbar)
    sol = pmp.PmpSolution(
        x_traj=cols["x_kw"], lambda_traj=cols["lambda"],
        u_traj=cols["u_kw_per_h"], pm_traj=cols["pm_kw"],
        pm_clipped=cols["pm_clipped_kw"], box_violation_kw=violation,
        box_violation_frac=violation / pbar, **diag)
    return sol, sc


def _solution_report(args, cfg, machine, **kw) -> econ.EconReport:
    """`econ.daily_report` of the --solution run.  A report that
    overflows float range is refused without numpy's warnings, naming
    the two files its numbers come from."""
    sol, sc = _scenario_from_solution(args, cfg)
    with np.errstate(all="ignore"):
        try:
            return econ.daily_report(sol, sc, machine, **kw)
        except ValidationError as exc:
            raise ValidationError(f"{_solution_csv(args)} on {args.machine}: "
                                  f"{exc}") from exc


def cmd_econ(args) -> int:
    cfg = cmod.load_config(args.machine)
    machine = cmod.machine_from_config(cfg)
    report = _solution_report(args, cfg, machine, attribution=args.attribution)
    files = {"econ_report.json": _json_text(econ.report_as_dict(report)),
             "econ_report.txt": econ.format_report_table([report])}
    _write_outputs(Path(args.out), files)
    print(files["econ_report.txt" if args.format == "table"
                else "econ_report.json"], end="")
    return EXIT_OK


def cmd_project(args) -> int:
    if args.fleet_count is not None and args.solution is None:
        raise ValidationError("--fleet-count requires --solution")
    cfg = cmod.load_config(args.machine)
    machine = cmod.machine_from_config(cfg)
    saved = 0.0
    if args.solution is not None:
        saved = _solution_report(args, cfg, machine).ramping_saved
    points = econ.read_trend_csv(args.price_trend)
    try:
        trend = econ.fit_price_trend(points)
    except ValidationError as exc:  # read, but no line fits the points
        raise ValidationError(f"{args.price_trend}: {exc}") from exc
    series = econ.project_net_profit(
        machine, trend, args.years, share0_pct=args.share0,
        share_per_year=args.share_per_year, ramp_saved_usd_day=saved,
        profit=econ.ProfitModel(a=args.profit_a, b=args.profit_b))
    _write_outputs(Path(args.out), {"projection.csv": profiles.format_table(
        "year,net_usd_day,mining_usd_day,ramping_saved_usd_day",
        (series.years, series.net, series.mining, series.ramping_saved))})
    return EXIT_OK


def cmd_breakeven(args) -> int:
    print(f"{econ.breakeven_max_machine_price(args.daily_profit):.10g}")
    return EXIT_OK


def cmd_synth(args) -> int:
    load, pv, net = profiles.synth_duck_curve(
        args.base, args.evening_peak, args.pv_peak, dt=_spacing(24.0, args.n))
    files = {}
    for name, columns in (("duck_profiles.csv", {"load": load, "pv": pv}),
                          ("duck_net.csv", {"load": net})):
        buf = io.StringIO()
        profiles.write_csv(buf, **columns)
        files[name] = buf.getvalue()
    _write_outputs(Path(args.out), files)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as `ValidationError`; subparsers share the class."""

    def error(self, message: str):
        raise ValidationError(message)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--load", required=True, help="load CSV (timestamp,load_kw[,pv_kw])")
    p.add_argument("--machine", required=True, help="machine key=value config file")
    p.add_argument("--fleet-count", type=_within(int, 1), default=None)
    p.add_argument("--alpha-schedule", type=_schedule,
                   default=pmp.DEFAULT_ALPHA_SCHEDULE,
                   help="comma-separated increasing penalty weights")
    p.add_argument("--n", type=_within(int, 4), default=None,
                   help="resample the load to N nodes per period")
    positive = _within(_finite_float, 0, above=True)
    p.add_argument("--load-scale", type=positive, default=1.0,
                   help="multiply ingested power columns by this factor")
    p.add_argument("--tol-bc", type=positive, default=pmp.DEFAULT_TOL_BC)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: `main` may serve many requests, and each then pays only for
    `parse_args`.  Callers must not add to it."""
    parser = _Parser(
        prog="rampsched",
        description="Miner-dispatch schedules that flatten generation ramps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one scheduling scenario")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="with json, also print the diagnostics document")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle-check", help="cross-check the solver against "
                                            "the discrete-oracle solution")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True)
    for flag, default in (("--obj-tol", DEFAULT_OBJECTIVE_GAP),
                          ("--pm-tol", DEFAULT_PM_GAP_FRACTION)):
        p.add_argument(flag, type=_within(_finite_float, 0), default=default)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("econ", help="daily economics of a solved schedule")
    p.add_argument("--machine", required=True)
    p.add_argument("--solution", required=True,
                   help="solution directory or solution.csv path")
    p.add_argument("--fleet-count", type=_within(int, 1), default=None)
    p.add_argument("--attribution", choices=("marginal", "average"),
                   default="marginal")
    p.add_argument("--format", choices=("json", "table"), default="json",
                   help="the report printed on stdout")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_econ)

    p = sub.add_parser("project", help="multi-year net-profit projection")
    p.add_argument("--machine", required=True)
    p.add_argument("--price-trend", required=True, help="share_pct,value CSV")
    p.add_argument("--years", type=_within(int, 1, econ.MAX_PROJECTION_YEARS),
                   required=True,
                   help=f"projection years, 1 to {econ.MAX_PROJECTION_YEARS}")
    p.add_argument("--solution", default=None,
                   help="solution whose ramping saving enters every year; "
                        "without it the saving is 0")
    p.add_argument("--fleet-count", type=_within(int, 1), default=None,
                   help="needs --solution")
    defaults = econ.project_net_profit.__kwdefaults__
    p.add_argument("--share0", type=_within(_finite_float, 0, 100),
                   default=defaults["share0_pct"],
                   help="[%%], default %(default)s")
    p.add_argument("--share-per-year", type=_finite_float,
                   default=defaults["share_per_year"],
                   help="default %(default)s")
    p.add_argument("--profit-a", type=_finite_float,
                   default=econ.ProfitModel.a, help="default %(default)s")
    p.add_argument("--profit-b", type=_finite_float,
                   default=econ.ProfitModel.b, help="default %(default)s")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("breakeven", help="print the break-even machine price")
    p.add_argument("--daily-profit", type=_finite_float, required=True)
    p.set_defaults(func=cmd_breakeven)

    p = sub.add_parser("synth", help="write synthetic duck-curve profiles")
    p.add_argument("--base", type=_finite_float, required=True)
    p.add_argument("--evening-peak", type=_finite_float, required=True)
    p.add_argument("--pv-peak", type=_finite_float, required=True)
    p.add_argument("--n", type=_within(int, 4), default=96, help="nodes per day")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"not converged: integration diverged: {exc}; initial state "
              f"(x, lambda) = {exc.initial_state}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (OSError, RampSchedError) as exc:  # usage, input or file error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
