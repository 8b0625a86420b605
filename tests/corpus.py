"""Shared scenario corpus for the test suite.

Twelve scenarios spanning the regimes the solver must handle: constant
and shaped loads whose optimum is interior (the exact solution is a
constant generation level), a time-varying revenue rate (genuinely
dynamic costate), four scenarios where the miner box binds on brief
smooth arcs (penalty machinery active, violations decaying over the
weight schedule), and plant-scale configurations using the preset
machine data unmodified.

The binding scenarios keep their arcs short and smooth, so their
violations decay cleanly over each schedule.  `build_long_arc` adds
scenarios whose bound binds for hours: a plant-scale duck day with an
undersized fleet and a wide evening bump.  `random_days` draws seeded
days of two families, plant-scale duck days and small-scale trough
days, to solve over the fleet-size ladder `LADDER`.
"""

from __future__ import annotations

import math

import numpy as np

from rampsched import (FleetSpec, MACHINE_PRESETS, SampledProfile, compute_cm,
                       compute_g, make_scenario, synth_duck_curve)
from rampsched.pmp import DEFAULT_ALPHA_SCHEDULE
from rampsched.pmp import Scenario

M1 = MACHINE_PRESETS["1"]
M3 = MACHINE_PRESETS["3"]
CM1 = compute_cm(M1)
G1 = compute_g(M1)

# Fleet sizes as fractions of `interior_count`, from undersized (the
# miner bound binds) to oversized, and the trough family's schedule.
LADDER = (0.85, 0.93, 0.97, 1.0, 1.1, 1.25)
TROUGH_SCHEDULE = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# Scenarios with a constant revenue rate and the revenue-optimal level
# interior to the reachable band; their exact solution is constant.
CONSTANT_SOLUTION_NAMES = ("const_feasible", "duck", "sinusoid", "two_peak",
                           "flat_pv", "plant_duck", "m3_sin")
# Scenarios whose optimum touches the miner box on brief arcs.
BINDING_NAMES = ("peak_touch", "trough_touch", "two_peak_touch",
                 "partial_margin")
ALL_NAMES = CONSTANT_SOLUTION_NAMES + BINDING_NAMES + ("tv_cm",)


def _grid(n: int) -> np.ndarray:
    return np.arange(n) * (24.0 / n)


def _wrapped_gauss(t: np.ndarray, center: float, sigma: float) -> np.ndarray:
    out = np.zeros_like(t)
    for wrap in (-24.0, 0.0, 24.0):
        out += np.exp(-((t - center + wrap) ** 2) / (2.0 * sigma * sigma))
    return out


def _sin_day(t: np.ndarray, mean: float, amp: float, peak_hour: float) -> np.ndarray:
    return mean + amp * np.sin(2.0 * np.pi * (t - peak_hour + 6.0) / 24.0)


def _geom(lo: float, hi: float, ratio: float = 2.0) -> tuple[float, ...]:
    steps = [lo]
    while steps[-1] * ratio < hi * 0.999:
        steps.append(steps[-1] * ratio)
    steps.append(hi)
    return tuple(steps)


def build_corpus(n: int = 96) -> dict[str, Scenario]:
    """Build all corpus scenarios on an n-node daily grid."""
    dt = 24.0 / n
    t = _grid(n)
    fleet20 = FleetSpec(M1, 20)
    fleet40 = FleetSpec(M1, 40)

    scenarios: dict[str, Scenario] = {}

    scenarios["const_feasible"] = make_scenario(
        SampledProfile(dt, np.full(n, 100.0)), fleet20,
        g=CM1 / 300.0, d=1.0, alpha_schedule=(1.0,))

    _, _, duck_net = synth_duck_curve(100.0, 50.0, 120.0, dt=dt)
    scenarios["duck"] = make_scenario(
        duck_net, fleet40, g=CM1 / 340.0, d=2.0,
        alpha_schedule=(1.0, 10.0, 100.0, 1e3, 1e4))

    scenarios["sinusoid"] = make_scenario(
        SampledProfile(dt, _sin_day(t, 100.0, 20.0, 19.0)), fleet20,
        g=CM1 / 280.0, d=1.0, alpha_schedule=(1.0,))

    two_peak = (100.0 + 25.0 * _wrapped_gauss(t, 8.0, 1.5)
                + 35.0 * _wrapped_gauss(t, 19.0, 2.0))
    scenarios["two_peak"] = make_scenario(
        SampledProfile(dt, two_peak), fleet20,
        g=CM1 / 300.0, d=1.5, alpha_schedule=(1.0, 10.0, 100.0))

    _, _, flat_net = synth_duck_curve(80.0, 0.0, 200.0, dt=dt)
    scenarios["flat_pv"] = make_scenario(
        flat_net, fleet40, g=CM1 / 240.0, d=2.0,
        alpha_schedule=(1.0, 10.0, 100.0))

    tv_load = SampledProfile(dt, _sin_day(t, 100.0, 20.0, 19.0))
    cm_profile = SampledProfile(
        dt, CM1 * (1.0 + 0.3 * np.sin(2.0 * np.pi * (t - 13.0) / 24.0)))
    scenarios["tv_cm"] = make_scenario(
        tv_load, fleet20, g=CM1 / 280.0, d=0.5, cm=cm_profile,
        alpha_schedule=(1.0,))

    # Evening peak pokes just above the revenue-optimal level: the lower
    # miner bound binds for roughly three hours around 19:00.
    scenarios["peak_touch"] = make_scenario(
        SampledProfile(dt, 100.0 + 12.0 * _wrapped_gauss(t, 19.0, 1.2)),
        fleet20, g=CM1 / 212.0, d=1.0, alpha_schedule=_geom(0.25, 16.0))

    # Revenue-optimal level sits just above what the fleet can absorb at
    # the load trough: the upper bound binds briefly each night.
    scenarios["trough_touch"] = make_scenario(
        SampledProfile(dt, _sin_day(t, 100.0, 25.0, 19.0)),
        FleetSpec(M1, 30), g=CM1 / 480.0, d=4.0,
        alpha_schedule=_geom(0.25, 8.0))

    # Two separate brief lower-bound touches (morning and evening peaks).
    scenarios["two_peak_touch"] = make_scenario(
        SampledProfile(dt, 100.0 + 10.0 * _wrapped_gauss(t, 8.0, 1.3)
                       + 12.0 * _wrapped_gauss(t, 19.0, 1.3)),
        fleet20, g=CM1 / 210.0, d=1.0, alpha_schedule=_geom(0.5, 8.0))

    # Mining marginally unprofitable at the load peak: the heavy ramp
    # coefficient keeps generation nearly flat, touching pm = 0 there.
    scenarios["partial_margin"] = make_scenario(
        SampledProfile(dt, _sin_day(t, 100.0, 20.0, 19.0)), fleet20,
        g=CM1 / 194.0, d=8.0, alpha_schedule=(0.5, 1.0, 2.0, 4.0))

    _, _, plant_net = synth_duck_curve(8000.0, 3000.0, 9000.0, dt=dt)
    scenarios["plant_duck"] = make_scenario(
        plant_net, FleetSpec(M1, 2853), d=1.0, alpha_schedule=(1.0,))

    scenarios["m3_sin"] = make_scenario(
        SampledProfile(dt, _sin_day(t, 3500.0, 400.0, 19.0)),
        FleetSpec(M3, 2924), d=1.0, alpha_schedule=(1.0,))

    return scenarios


def interior_count(load: SampledProfile, g: float) -> int:
    """Smallest fleet of machine 1 whose box holds the constant optimum
    cm/2g over the load."""
    return math.ceil((CM1 / (2.0 * g) - load.values.min()) / M1.demand_kw)


def plant_duck_undersized(n: int, alpha_schedule=DEFAULT_ALPHA_SCHEDULE
                          ) -> Scenario:
    """The corpus plant duck day with a fleet at 0.85x `interior_count`:
    the miner bound binds for hours around the midday trough."""
    _, _, net = synth_duck_curve(8000.0, 3000.0, 9000.0, dt=24.0 / n)
    fleet = FleetSpec(M1, round(0.85 * interior_count(net, G1)))
    return make_scenario(net, fleet, d=1.0, alpha_schedule=alpha_schedule)


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` points of [0, 1)^3, one in each of `count` equal slices of
    every axis (a Latin hypercube), in random order."""
    slices = np.stack([rng.permutation(count) for _ in range(3)], axis=1)
    return (slices + rng.random((count, 3))) / count


def random_days(seed: int, count: int, n: int = 96) -> list[tuple]:
    """`count` seeded days, half of each family, as (family, load, g, d,
    alpha_schedule) for `make_scenario`; the family parameters are a
    Latin hypercube per family.

    plant: a duck day at plant scale, base load 6.5-8.5 MW, evening peak
    1.5-3 MW and PV 1.05-1.3x the base, so midday net load floors at 0;
    machine 1's g and the default schedule.  trough: a sine day of mean
    90-110 kW, amplitude 20-30 kW and peak at 17-21 h whose revenue-
    optimal level sits at 2.4x the mean, so an undersized fleet touches
    its upper bound at night."""
    rng = np.random.default_rng(seed)
    plant, trough = _strata(rng, count // 2), _strata(rng, count - count // 2)
    days = []
    for u in plant:
        base = 6500.0 + 2000.0 * u[0]
        load = synth_duck_curve(base, 1500.0 + 1500.0 * u[1],
                                base * (1.05 + 0.25 * u[2]), dt=24.0 / n)[2]
        days.append(("plant", load, G1, 1.0, DEFAULT_ALPHA_SCHEDULE))
    for u in trough:
        mean = 90.0 + 20.0 * u[0]
        load = _sin_day(_grid(n), mean, 20.0 + 10.0 * u[1], 17.0 + 4.0 * u[2])
        days.append(("trough", SampledProfile(24.0 / n, load),
                     CM1 / (4.8 * mean), 4.0, TROUGH_SCHEDULE))
    return days


def ladder_scenarios(day: tuple, load: SampledProfile | None = None
                     ) -> list[Scenario]:
    """A `random_days` day at each `LADDER` fleet size, smallest first,
    on `load` (default the day's own load object)."""
    _, day_load, g, d, schedule = day
    n_star = interior_count(day_load, g)
    return [make_scenario(day_load if load is None else load,
                          FleetSpec(M1, max(1, round(f * n_star))), g=g, d=d,
                          alpha_schedule=schedule) for f in LADDER]


def build_long_arc(n: int = 96) -> dict[str, Scenario]:
    """Scenarios whose miner bound binds on arcs hours long."""
    # peak_touch with a 3-hour instead of a 1.2-hour evening bump
    wide = 100.0 + 12.0 * _wrapped_gauss(_grid(n), 19.0, 3.0)
    return {
        "plant_duck_085": plant_duck_undersized(n),
        "peak_touch_wide": make_scenario(
            SampledProfile(24.0 / n, wide), FleetSpec(M1, 20), g=CM1 / 212.0,
            d=1.0, alpha_schedule=_geom(0.25, 16.0)),
    }
