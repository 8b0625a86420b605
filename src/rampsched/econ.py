"""Monetary analysis: profit models, amortization, break-even, projections.

Prices fed to the linear profit model keep whatever unit the ingested
price data carries; the slope coefficient is unit-coupled to that choice.
Reports state their basis explicitly: all figures are per machine and per
day unless a field name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .costmodel import MachineSpec
from .errors import ReportOnUnconvergedError, ValidationError
from .pmp import PmpSolution, Scenario, evaluate, revenue
from .profiles import names_path, read_table, table_floats

DAYS_PER_YEAR = 365.0

# Break-even rule calibration: a machine pays for itself while the daily
# mining profit clears the profit floor by at least the amortization gap,
# i.e. C / 730 - BREAKEVEN_MSRP_OFFSET <= V - BREAKEVEN_PROFIT_FLOOR.
BREAKEVEN_PROFIT_FLOOR = 5.0
BREAKEVEN_MSRP_OFFSET = 8.9
BREAKEVEN_AMORT_DAYS = 2.0 * DAYS_PER_YEAR

# longest projection horizon; each year is one row of the series
MAX_PROJECTION_YEARS = 100


@dataclass(frozen=True)
class ProfitModel:
    """Daily mining profit, linear in the electricity price."""

    a: float = 14.0   # $/day at zero electricity price
    b: float = 0.1    # $/day per price unit

    def __post_init__(self):
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ValidationError("profit model coefficients must be finite "
                                  "and >= 0")


@dataclass(frozen=True)
class TrendModel:
    """Least-squares line of the electricity price over renewable share (%)."""

    price_intercept: float
    price_slope: float


@dataclass(frozen=True)
class EconReport:
    """Daily per-machine economics of one converged schedule."""

    machine_name: str
    msrp_per_day: float
    operating_cost: float
    gross_mining: float
    net_profit: float
    ramping_saved: float          # per machine, $/day
    ramping_saved_fleet: float    # whole fleet, $/day
    breakeven_machine_price: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        numbers = fields(self)[1:-1]  # every field between name and flags
        if not all(math.isfinite(getattr(self, f.name)) for f in numbers):
            raise ValidationError("report fields must be finite")
        composed = self.gross_mining - self.operating_cost - self.msrp_per_day
        if abs(self.net_profit - composed) > 1e-9 * (1.0 + abs(composed)):
            raise ValidationError("net_profit must equal gross - operating - msrp")


@dataclass(frozen=True)
class ProjectionSeries:
    """Year-by-year projection of daily net profit."""

    years: tuple[int, ...]
    net: tuple[float, ...]
    mining: tuple[float, ...]
    ramping_saved: tuple[float, ...]
    first_loss_year: int | None


def profit_vs_price(price: float, pm: ProfitModel) -> float:
    """Daily profit a - b*price; may be negative, callers decide flooring."""
    return pm.a - pm.b * price


def amortized_daily_msrp(price_usd: float, lifespan_years: float) -> float:
    """Purchase price spread linearly over the machine lifespan, $/day."""
    if lifespan_years <= 0:
        raise ValidationError("lifespan_years must be > 0")
    return price_usd / (DAYS_PER_YEAR * lifespan_years)


def breakeven_max_machine_price(v_daily: float) -> float:
    """Highest machine price for which daily profit V still breaks even."""
    price = BREAKEVEN_AMORT_DAYS * (v_daily - BREAKEVEN_PROFIT_FLOOR
                                    + BREAKEVEN_MSRP_OFFSET)
    if not math.isfinite(price):
        raise ValidationError(f"the break-even price for a daily profit of "
                              f"{v_daily!r} is not finite")
    return price


def fit_price_trend(points) -> TrendModel:
    """OLS line through (share %, price) points.

    Raises ValidationError when fewer than two distinct shares exist, or
    when the fitted slope or intercept is not finite, as points near the
    ends of float range give.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("need at least two (share, price) points")
    x, y = pts[:, 0], pts[:, 1]
    if np.unique(x).size < 2:
        raise ValidationError("all shares identical; line fit is degenerate")
    with np.errstate(all="ignore"):  # a non-finite fit is refused below
        xm, ym = x.mean(), y.mean()
        slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
        intercept = float(ym - slope * xm)
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValidationError(f"the fitted price line is not finite: slope "
                              f"{slope}, intercept {intercept}")
    return TrendModel(price_intercept=intercept, price_slope=slope)


def project_net_profit(machine: MachineSpec, trend: TrendModel, years: int, *,
                       share0_pct: float = 10.0, share_per_year: float = 0.0,
                       ramp_saved_usd_day: float = 0.0,
                       profit: ProfitModel = ProfitModel()) -> ProjectionSeries:
    """Project daily net profit per machine over a horizon of years.

    Per year y (1-based): the renewable share, share0_pct today, moves by
    share_per_year and is held within [0, 100] %; the electricity price
    follows the fitted line; the mining component follows the linear
    profit model; the schedule's ramping saving is added unchanged; the
    amortized purchase price is subtracted.  No re-solve per year: the
    projection extrapolates the price trend only.  The horizon is 1 to
    MAX_PROJECTION_YEARS years and share0_pct is within [0, 100]; a
    year whose profit is not finite is refused.
    """
    if not 1 <= years <= MAX_PROJECTION_YEARS:
        raise ValidationError(f"years must be within 1 to "
                              f"{MAX_PROJECTION_YEARS}, got {years}")
    if not 0.0 <= share0_pct <= 100.0:
        raise ValidationError("share0_pct must be within [0, 100]")
    msrp = amortized_daily_msrp(machine.price_usd, machine.lifespan_years)

    nets, minings = [], []
    first_loss = None
    for y in range(1, years + 1):
        share = min(max(share0_pct + y * share_per_year, 0.0), 100.0)
        price = trend.price_intercept + trend.price_slope * share
        mining = profit_vs_price(price, profit)
        net = mining + ramp_saved_usd_day - msrp
        if not math.isfinite(net):  # so is every non-finite mining profit
            raise ValidationError(f"year {y}: the projected net profit of "
                                  f"{net} $/day is not finite")
        nets.append(net)
        minings.append(mining)
        if first_loss is None and net < 0.0:
            first_loss = y
    return ProjectionSeries(years=tuple(range(1, years + 1)), net=tuple(nets),
                            mining=tuple(minings),
                            ramping_saved=(ramp_saved_usd_day,) * years,
                            first_loss_year=first_loss)


def daily_report(sol: PmpSolution, sc: Scenario, machine: MachineSpec,
                 attribution: str = "marginal") -> EconReport:
    """Assemble the daily per-machine economics of a converged schedule.

    Gross mining revenue is `revenue`, the objective's term, over one
    machine's share of the clipped miner draw (the physical machine
    cannot exceed its rating).  Operating cost attributes generation
    cost to mining energy of the clipped draw at the scheduled operating
    point: marginal attribution prices it at 2*g*x, average attribution
    at g*x.  The fleet's ramping saving is the no-mining baseline's
    ramping term less the schedule's, both from `evaluate`, which prices
    the raw draw `pm_traj`, not the clipped one, and returns the day's
    interior draw already priced once the day has built its pass.
    """
    if not sol.converged:
        raise ReportOnUnconvergedError(
            "refusing to report economics for a non-converged solution")
    if attribution not in ("marginal", "average"):
        raise ValidationError(f"unknown attribution {attribution!r}")

    n_machines = sc.fleet.count
    pm_c = sol.pm_clipped
    gross = revenue(sc, pm_c) / n_machines
    price_factor = 2.0 if attribution == "marginal" else 1.0
    operating = (price_factor * sc.cost.g * sc.load.dt
                 * float(sol.x_traj @ pm_c) / n_machines)

    bd = evaluate(sol, sc)
    saved_fleet = bd.baseline.ramping_usd - bd.ramping_usd
    msrp = amortized_daily_msrp(machine.price_usd, machine.lifespan_years)
    net = gross - operating - msrp

    flags = []
    if not pm_c.any():  # every clipped draw is 0.0 or -0.0
        flags.append("no-mining")
    if saved_fleet <= 0.0:
        flags.append("no-ramping-savings")

    return EconReport(
        machine_name=machine.name,
        msrp_per_day=msrp,
        operating_cost=operating,
        gross_mining=gross,
        net_profit=net,
        ramping_saved=saved_fleet / n_machines,
        ramping_saved_fleet=saved_fleet,
        breakeven_machine_price=breakeven_max_machine_price(gross - operating),
        flags=tuple(flags),
    )


def report_as_dict(report: EconReport) -> dict:
    return {**vars(report), "flags": list(report.flags)}


_TABLE_COLUMNS = (
    ("Machine", "machine_name", "{}"),
    ("MSRP [$/day]", "msrp_per_day", "{:.2f}"),
    ("Operating [$/day]", "operating_cost", "{:.2f}"),
    ("Gross [$/day]", "gross_mining", "{:.2f}"),
    ("Net [$/day]", "net_profit", "{:.2f}"),
    ("Ramp saved [$/day]", "ramping_saved", "{:.2f}"),
)


def format_report_table(reports) -> str:
    """Aligned-column text table, one row per machine report."""
    rows = [[fmt.format(getattr(r, attr)) for _, attr, fmt in _TABLE_COLUMNS]
            for r in reports]
    headers = [h for h, _, _ in _TABLE_COLUMNS]
    widths = [max(len(h), *(len(row[j]) for row in rows)) if rows else len(h)
              for j, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


@names_path
def read_trend_csv(source) -> list[tuple[float, float]]:
    """Read `share_pct,value` rows (header required)."""
    header, rows = read_table(source)
    if len(header) != 2 or header[0] != "share_pct":
        raise ValidationError("trend CSV must start with a 'share_pct,value' header")
    return [tuple(row) for row in table_floats(header, rows, header).tolist()]
