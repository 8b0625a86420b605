"""Miner-dispatch scheduling that flattens grid generation ramps.

The package solves a periodic optimal-control problem: given a daily
load profile and a fleet of cryptocurrency miners acting as flexible
load, it schedules the miner draw so that generation ramps (and their
quadratic cost) are minimized while mining revenue is collected, then
prices the result (daily profit, break-even machine price, multi-year
projections).
"""

from .costmodel import (CostModel, FleetSpec, MachineSpec, MACHINE_PRESETS,
                        compute_cm, compute_g, control_from_costate, gen_cost,
                        load_config, penalty_xi, penalty_xi_prime, ramp_cost)
from .econ import (EconReport, ProfitModel, ProjectionSeries, TrendModel,
                   amortized_daily_msrp, breakeven_max_machine_price,
                   daily_report, fit_price_trend, profit_vs_price,
                   project_net_profit)
from .errors import (DivergenceError, RampSchedError, ReportOnUnconvergedError,
                     ValidationError)
from .oracle import DiscreteSolution, discretize_objective, solve_active_set
from .pmp import (CostBreakdown, PmpSolution, PmpState, Scenario, Tolerances,
                  evaluate, hamiltonian, make_scenario, objective, pmp_rhs,
                  solve, stationary_point)
from .profiles import (SampledProfile, load_csv, resample_periodic,
                       synth_duck_curve, write_csv)

__version__ = "0.1.0"
