"""Quadratic cost primitives, the soft box penalty, and machine conversions.

Canonical units everywhere: kW, hours, $.  All unit conversions happen at
type construction (machine demand is given in watts and stored alongside
its kW view).  Generation cost is g*x^2 and ramping cost is d*u^2, both
strictly convex for g, d > 0; the miner bound 0 <= p_m <= Pbar is relaxed
by the penalty
    xi(p_m) = alpha * (min(p_m, 0)^2 + max(p_m - Pbar, 0)^2),
which is zero exactly on [0, Pbar] and C1 everywhere (the derivative at
both kinks is 0 from each side).

Note on the machine "electricity cost" coefficient: vendor tables quote
it with ambiguous units, so it is treated here as a unitless coefficient
feeding the g formula g = k * cost / demand_kw^2; callers that disagree
with that reading can bypass it via an explicit g override.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import ValidationError
from .profiles import SampledProfile, names_path, source_text

HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class MachineSpec:
    """Per-unit miner parameters as quoted by vendors."""

    name: str
    demand_w: float
    hashrate_ths: float
    income_usd_day: float
    elec_cost_coeff: float
    price_usd: float
    lifespan_years: float
    k_const: float

    def __post_init__(self):
        for f in fields(self)[1:]:  # every field after the name is a number
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if not self.demand_w > 0:
            raise ValidationError(f"demand_w must be > 0, got {self.demand_w}")
        if not self.income_usd_day >= 0:
            raise ValidationError("income_usd_day must be >= 0")
        if not self.price_usd >= 0:
            raise ValidationError("price_usd must be >= 0")
        if not self.lifespan_years > 0:
            raise ValidationError("lifespan_years must be > 0")
        if not self.k_const > 0:
            raise ValidationError("k_const must be > 0")

    @property
    def demand_kw(self) -> float:
        return self.demand_w / 1000.0


@dataclass(frozen=True)
class FleetSpec:
    """A count of identical machines; the aggregate bound is count * demand."""

    machine: MachineSpec
    count: int

    def __post_init__(self):
        # the upper bound comes first: float() of a larger int overflows
        if not (1 <= self.count <= sys.float_info.max
                and float(self.count).is_integer()):
            raise ValidationError(f"count must be a positive integer within "
                                  f"float range, got {self.count}")

    @property
    def pbar_kw(self) -> float:
        return self.count * self.machine.demand_kw


@dataclass(frozen=True)
class CostModel:
    """Coefficients of the dispatch objective.

    g: $/(kW^2 h) generation coefficient, > 0.
    d: $/((kW/h)^2 h) ramping coefficient, > 0 (default 1, the standard
       unit-coefficient quadratic ramp cost).
    alpha: penalty weight, >= 0.
    pbar_kw: aggregate miner bound, > 0.
    cm: miner revenue rate in $/kWh, a constant or a profile.
    """

    g: float
    pbar_kw: float
    cm: Union[float, SampledProfile]
    d: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 < self.g < np.inf:
            raise ValidationError(f"g must be finite and > 0, got {self.g}")
        if not 0 < self.d < np.inf:
            raise ValidationError(f"d must be finite and > 0, got {self.d}")
        if not 0 <= self.alpha < np.inf:
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.pbar_kw < np.inf:
            raise ValidationError(f"pbar_kw must be finite and > 0, got {self.pbar_kw}")
        if isinstance(self.cm, SampledProfile):
            return  # profile construction already guarantees non-negativity
        if not 0 <= self.cm < np.inf:
            raise ValidationError(f"cm must be finite and >= 0, got {self.cm}")

    @property
    def cm_is_constant(self) -> bool:
        return not isinstance(self.cm, SampledProfile)

    def cm_at(self, t):
        """Revenue rate at time t hours (scalar or array)."""
        if isinstance(self.cm, SampledProfile):
            return self.cm.value_at(t)
        if np.ndim(t) == 0:
            return float(self.cm)
        return np.full(np.shape(t), float(self.cm))


def gen_cost(x, m: CostModel):
    """Generation cost g*x^2 in $/h."""
    return m.g * np.square(x)


def ramp_cost(u, m: CostModel):
    """Ramping cost d*u^2 in $/h."""
    return m.d * np.square(u)


def box_excess(pm, pbar, out=None, zero=0.0):
    """Excess draw over the box [0, Pbar], pm - clip(pm, 0, Pbar): pm
    below the box, pm - Pbar above it and 0 on it (both kinks included).
    `out`, if given, also holds the clipped draw on the way, so it must
    not share memory with pm.  The bounds pbar and `zero` may be arrays."""
    return np.subtract(pm, np.minimum(np.maximum(pm, zero, out=out), pbar, out=out),
                       out=out)


def penalty_xi(pm, m: CostModel):
    """Soft box penalty: 0 on [0, Pbar], quadratic outside."""
    return m.alpha * np.square(box_excess(pm, m.pbar_kw))


def penalty_xi_prime(pm, m: CostModel):
    """Derivative of the penalty; 0 on the closed band including both kinks."""
    return 2.0 * m.alpha * box_excess(pm, m.pbar_kw)


def control_from_costate(lam, m: CostModel):
    """Ramp rate minimizing the pointwise cost for a given costate.

    The minimizer of d*u^2 + lam*u over all u; for the quadratic ramp
    cost the inverse of its derivative is available in closed form.
    """
    return -lam / (2.0 * m.d)


def compute_g(machine: MachineSpec) -> float:
    """Generation coefficient from machine data: k * cost / demand_kw^2.

    Raises ValidationError when demand_kw^2 is 0.0 or past float range."""
    try:
        return machine.k_const * machine.elec_cost_coeff / machine.demand_kw ** 2
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"demand_w = {machine.demand_w!r} puts "
                              "demand_kw^2 outside float range") from exc


def compute_cm(machine: MachineSpec) -> float:
    """Revenue per kWh: daily income over daily energy (demand_kw * 24)."""
    return machine.income_usd_day / (machine.demand_kw * HOURS_PER_DAY)


# Vendor machine presets.
MACHINE_PRESETS = {
    "1": MachineSpec(name="antminer-s21", demand_w=5360.0, hashrate_ths=335.0,
                     income_usd_day=15.0, elec_cost_coeff=0.1, price_usd=7400.0,
                     lifespan_years=2.0, k_const=0.0014),
    "2": MachineSpec(name="whatsminer-m63", demand_w=7283.0, hashrate_ths=334.0,
                     income_usd_day=14.49, elec_cost_coeff=0.1, price_usd=5200.0,
                     lifespan_years=2.0, k_const=0.0012),
    "3": MachineSpec(name="antminer-s19", demand_w=3250.0, hashrate_ths=110.0,
                     income_usd_day=5.05, elec_cost_coeff=0.06, price_usd=6500.0,
                     lifespan_years=2.0, k_const=0.0014),
}

_CONFIG_KEYS = {
    "name", "demand_w", "hashrate_ths", "income_usd_day", "elec_cost",
    "price_usd", "lifespan_years", "k", "count", "g_override", "d",
}
_REQUIRED_MACHINE_KEYS = ("demand_w", "income_usd_day", "elec_cost", "k")


@names_path
def load_config(source) -> dict:
    """Parse a flat ``key = value`` config file (UTF-8, '#' comments);
    each key at most once."""
    cfg: dict = {}
    first_line: dict = {}
    for line_no, raw in enumerate(source_text(source).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"line {line_no}: unknown key {key!r}")
        if key in first_line:
            raise ValidationError(f"line {line_no}: repeated key {key!r}, "
                                  f"first set on line {first_line[key]}")
        first_line[key] = line_no
        if key == "name":
            cfg[key] = value
        elif key == "count":
            try:
                cfg[key] = int(value)
            except ValueError as exc:
                raise ValidationError(
                    f"line {line_no}: count must be an integer") from exc
        else:
            try:
                cfg[key] = float(value)
            except ValueError as exc:
                raise ValidationError(
                    f"line {line_no}: value {value!r} for {key!r} is not numeric"
                ) from exc
            if not np.isfinite(cfg[key]):
                raise ValidationError(
                    f"line {line_no}: value {value!r} for {key!r} is not finite")
    return cfg


def machine_from_config(cfg: dict) -> MachineSpec:
    missing = [k for k in _REQUIRED_MACHINE_KEYS if k not in cfg]
    if missing:
        raise ValidationError(f"machine config missing keys: {missing}")
    return MachineSpec(
        name=str(cfg.get("name", "custom")),
        demand_w=cfg["demand_w"],
        hashrate_ths=cfg.get("hashrate_ths", 0.0),
        income_usd_day=cfg["income_usd_day"],
        elec_cost_coeff=cfg["elec_cost"],
        price_usd=cfg.get("price_usd", 0.0),
        lifespan_years=cfg.get("lifespan_years", 2.0),
        k_const=cfg["k"],
    )


def fleet_from_config(cfg: dict, count_override: int | None = None) -> FleetSpec:
    machine = machine_from_config(cfg)
    count = count_override if count_override is not None else cfg.get("count", 1)
    return FleetSpec(machine=machine, count=int(count))
