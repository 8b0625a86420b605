"""Uniformly sampled periodic profiles (load, PV) and their CSV I/O.

A profile stores one period of a uniformly sampled series together with
the sample spacing and is treated as periodic everywhere: index
arithmetic wraps modulo the sample count.  Power values are kW, revenue
rates are $/kWh, time is in hours.  All values are validated
non-negative at construction, which is the domain contract for every
series the scheduler consumes.

Resampling uses periodic linear interpolation rather than splines: the
solver only needs continuous data of bounded variation, and linear
interpolation is cheap and never overshoots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import ValidationError

DEFAULT_DT_HOURS = 0.25  # 96 samples per day, typical operator telemetry

# Synthetic duck-curve shape parameters.
EVENING_PEAK_HOUR = 19.0
EVENING_PEAK_SIGMA_H = 2.0
PV_SUNRISE_HOUR = 6.0
PV_DAYLIGHT_HOURS = 12.0

# CSV schema timestamp,load_kw[,pv_kw]: power column -> profile role.
_POWER_COLUMNS = {"load_kw": "load", "pv_kw": "pv"}

_SPACING_JITTER = 0.01     # max fractional deviation of a gap from the median
_DIVISOR_TOL = 1e-6        # "new_dt divides period_T" tolerance, fractional
_NODES_PER_HOUR = 3600.0   # a grid holds at most one node per second
_CSV_EPOCH = datetime(2000, 1, 1)
_MIN_SAMPLES = 4


@dataclass(frozen=True, eq=False)
class SampledProfile:
    """One period of a uniformly sampled, periodic, non-negative series.

    Attributes:
        dt: hours per sample (> 0).
        values: read-only float array, length >= 4, all entries >= 0.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self):
        dt = float(self.dt)
        if not math.isfinite(dt) or dt <= 0.0:
            raise ValidationError(f"sample spacing must be positive, got {dt}")
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValidationError("profile values must be a one-dimensional sequence")
        if vals.size < _MIN_SAMPLES:
            raise ValidationError(
                f"profile needs at least {_MIN_SAMPLES} samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("profile values must be finite")
        if np.any(vals < 0.0):
            raise ValidationError(
                f"profile values must be non-negative, min is {vals.min()}")
        vals.setflags(write=False)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def period_T(self) -> float:
        """Period in hours; exactly dt * count by construction."""
        return self.dt * self.values.size

    def value_at(self, t):
        """Periodic linear interpolation at time ``t`` hours (scalar or array)."""
        grid = np.arange(self.values.size + 1) * self.dt  # 0 ... period_T
        out = np.interp(np.mod(t, self.period_T), grid, periodic_ext(self.values))
        return float(out) if np.ndim(t) == 0 else out

    def same_grid(self, other: "SampledProfile") -> bool:
        return (self.values.size == other.values.size
                and abs(self.dt - other.dt) <= 1e-12 * self.dt)


def _iso_seconds(text: str, line_no: int) -> float:
    """Seconds from 2000-01-01 UTC of an ISO-8601 timestamp."""
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValidationError(
            f"line {line_no}: unparseable timestamp {text!r}") from exc
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return (stamp - _CSV_EPOCH).total_seconds()


def _parse_timestamp(cell: str, line_no: int) -> float:
    """Parse an ISO-8601 or epoch-seconds timestamp cell into seconds: a
    cell that float() accepts is epoch seconds."""
    text = cell.strip()
    if ":" in text or (text[4:5] == "-" and text[:4].isdigit()):
        seconds = _iso_seconds(text, line_no)  # float() refuses both
    else:
        try:
            seconds = float(text)
        except ValueError:
            seconds = _iso_seconds(text, line_no)
    if not math.isfinite(seconds):
        raise ValidationError(f"line {line_no}: non-finite timestamp {text!r}")
    return seconds


def source_text(source) -> str:
    """The whole text of a UTF-8 file path, bytes, or open text stream,
    without the byte-order mark that spreadsheets write first."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8-sig")
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    return source.read().removeprefix("\ufeff")


def names_path(read):
    """Decorate a reader whose first argument is a path, bytes or stream:
    a `ValidationError` it raises reading a path starts with `{path}: `."""
    @functools.wraps(read)
    def reader(source, *args, **kwargs):
        try:
            return read(source, *args, **kwargs)
        except ValidationError as exc:
            if not isinstance(source, (str, Path)):
                raise
            raise ValidationError(f"{source}: {exc}") from exc
    return reader


def read_table(source) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The stripped header cells (line 1) and the non-blank data rows of CSV
    text, each row a (file line number, cells) pair of the header's width."""
    lines = source_text(source).splitlines()
    if not lines:
        raise ValidationError("line 1: expected the header, got an empty file")
    header = [h.strip() for h in lines[0].split(",")]
    rows = [(no, line.split(",")) for no, line in enumerate(lines[1:], start=2)
            if line.strip()]
    for no, cells in rows:
        if len(cells) != len(header):
            raise ValidationError(
                f"line {no}: expected {len(header)} fields, got {len(cells)}")
    return header, rows


def table_floats(header: list[str], rows, columns) -> np.ndarray:
    """The named columns of `read_table` rows as one (rows, columns) float
    array; a cell that is not a finite number raises, naming line and column."""
    idx = [header.index(name) for name in columns]
    try:
        data = np.array([cells[j] for _, cells in rows for j in idx], dtype=float)
        finite = bool(np.isfinite(data).all())
    except ValueError:
        finite = False
    if not finite:  # a second pass names the first bad cell
        for no, cells in rows:
            for j in idx:
                try:
                    kind = "" if math.isfinite(float(cells[j])) else "non-finite"
                except ValueError:
                    kind = "non-numeric"
                if kind:
                    raise ValidationError(f"line {no}: {kind} cell "
                                          f"{cells[j]!r} in column {header[j]!r}")
    return data.reshape(len(rows), len(idx))


def refuse_negative(rows, data: np.ndarray, columns) -> None:
    """Raise, naming line and column, at the first negative cell of the
    named columns' `table_floats` array."""
    if np.any(data < 0.0):
        i, j = np.argwhere(data < 0.0)[0]
        raise ValidationError(f"line {rows[i][0]}: negative value {data[i, j]} "
                              f"in column {columns[j]!r}")


def format_table(header: str, columns) -> str:
    """CSV text of a header line and equal-length columns whose cells are
    written with str: a text cell verbatim, a Python float as its repr, so
    reading it back is exact."""
    rows = map(",".join, zip(*(map(str, col) for col in columns)))
    return "\n".join([header, *rows]) + "\n"


@names_path
def load_csv(source, scale: float = 1.0) -> dict[str, SampledProfile]:
    """Read uniformly spaced profiles from a CSV file, text stream, or bytes.

    The header is ``timestamp,load_kw[,pv_kw]`` in any column order: one
    timestamp column (ISO-8601 or epoch seconds) and at least one power
    column; any other column is rejected.  Timestamps must be strictly
    increasing with uniform spacing within 1% jitter of the median gap;
    the sample spacing is inferred from the median gap.

    Args:
        source: path, bytes, or open text stream.
        scale: multiplier applied to every power column.  Operator
            telemetry is normalized to the plant under study by this
            explicit factor; no normalization is ever guessed.

    Returns:
        One profile per power column, keyed by role ("load", "pv").

    Raises:
        ValidationError: non-uniform or non-increasing timestamps, fewer
            than 4 data rows, an unknown or repeated column, malformed
            cells or negative values.
    """
    if scale <= 0.0 or not math.isfinite(scale):
        raise ValidationError(f"scale must be finite and > 0, got {scale}")
    header, rows = read_table(source)
    for name in header:
        if name != "timestamp" and name not in _POWER_COLUMNS:
            raise ValidationError(f"line 1: unknown column {name!r}, expected "
                                  "timestamp,load_kw[,pv_kw]")
        if header.count(name) > 1:
            raise ValidationError(f"line 1: repeated column {name!r}")
    if "timestamp" not in header:
        raise ValidationError("line 1: no timestamp column")
    power = [name for name in header if name != "timestamp"]
    if not power:
        raise ValidationError("line 1: no power column")

    values = table_floats(header, rows, power)
    refuse_negative(rows, values, power)
    ts_idx = header.index("timestamp")
    ts = np.array([_parse_timestamp(cells[ts_idx], no) for no, cells in rows])
    if len(rows) < _MIN_SAMPLES:
        raise ValidationError(
            f"need at least {_MIN_SAMPLES} data rows, got {len(rows)}")

    with np.errstate(over="ignore"):  # a gap past float range is inf
        gaps = np.diff(ts)
    for bad, what in ((gaps <= 0.0, "timestamps not strictly increasing"),
                      (gaps == math.inf, "timestamp gap past float range")):
        if bad.any():
            raise ValidationError(f"line {rows[int(np.argmax(bad)) + 1][0]}: {what}")
    # np.median would import numpy.ma; halved first, as a sum may overflow
    ordered = np.sort(gaps).tolist()
    median_gap = ordered[(gaps.size - 1) // 2] / 2.0 + ordered[gaps.size // 2] / 2.0
    off = np.abs(gaps - median_gap) > _SPACING_JITTER * median_gap
    if np.any(off):
        bad = int(np.argmax(off))
        raise ValidationError(
            f"line {rows[bad + 1][0]}: gap {gaps[bad]:.6g}s deviates more than "
            f"{_SPACING_JITTER:.0%} from median {median_gap:.6g}s")

    dt_hours = median_gap / 3600.0
    with np.errstate(over="ignore"):  # SampledProfile refuses an overflow
        return {_POWER_COLUMNS[name]: SampledProfile(dt_hours, values[:, j] * scale)
                for j, name in enumerate(power)}


def write_csv(dest, load: SampledProfile | None = None,
              pv: SampledProfile | None = None) -> None:
    """Write profiles to CSV in the canonical column schema.

    All given profiles must share one grid.  Timestamps are ISO-8601
    starting 2000-01-01 when the spacing is a whole number of seconds,
    epoch seconds otherwise.  The text comes from `format_table`, so
    `load_csv` reads the values back exactly.
    """
    present = [(name, p) for name, p in (("load_kw", load), ("pv_kw", pv))
               if p is not None]
    if not present:
        raise ValidationError("write_csv needs at least one profile")
    base = present[0][1]
    for _, p in present[1:]:
        if not base.same_grid(p):
            raise ValidationError("profiles written together must share one grid")

    step_s = base.dt * 3600.0
    stamps = [i * step_s for i in range(base.count)]
    if abs(step_s - round(step_s)) < 1e-9:
        stamps = [(_CSV_EPOCH + timedelta(seconds=round(s))).isoformat()
                  for s in stamps]
    text = format_table("timestamp," + ",".join(name for name, _ in present),
                        [stamps, *(p.values.tolist() for _, p in present)])

    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8", newline="")
    else:
        dest.write(text)


def _grid(name: str, dt: float, period: float) -> tuple[int, float]:
    """The node count n of spacing dt over the period, and the spacing
    period / n that keeps the period exact.  Refused before any grid is
    allocated: a dt finer than one node per second, or one that does not
    divide the period, to one part in 1e6, into at least 4 nodes."""
    ratio = period / dt if dt > 0.0 else 0.0  # also refuses NaN
    limit = _NODES_PER_HOUR * period
    if ratio > limit * (1.0 + _DIVISOR_TOL):
        raise ValidationError(
            f"{name}={dt!r} h is finer than one node per second: the "
            f"{period:g} h period holds at most {limit:.0f} nodes")
    n = int(round(ratio))
    if n < _MIN_SAMPLES or abs(ratio - n) > _DIVISOR_TOL * max(1.0, ratio):
        raise ValidationError(
            f"{name}={dt} must divide {period:g} h into >= {_MIN_SAMPLES} samples")
    return n, period / n


def periodic_ext(v: np.ndarray) -> np.ndarray:
    """Node values v_0..v_{n-1} extended by v_n = v_0, the value at t = T."""
    return np.concatenate([v, v[:1]])


def resample_periodic(p: SampledProfile, new_dt: float) -> SampledProfile:
    """Resample onto a new uniform grid by periodic linear interpolation.

    The mean of the input is restored exactly afterwards (a uniform
    shift), so resampling never drifts the energy content of a profile.

    Args:
        p: input profile.
        new_dt: target spacing in hours; must divide the period to
            within one part in 1e6, into 4 nodes to one node per second.

    Raises:
        ValidationError: ``new_dt`` does not divide the period into 4 to
            one node per second.
    """
    n_new, dt_used = _grid("new_dt", new_dt, p.period_T)
    out = p.value_at(np.arange(n_new) * dt_used)
    target = p.values.mean()
    out += target - out.mean()
    if out.min() < 0.0:
        # The zero floor would eat mean mass; mean(max(out+s, 0)) is
        # continuous and nondecreasing in s, so bisect the extra shift
        # until the floored profile lands exactly on the original mean.
        lo, hi = -float(out.max()), 0.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if np.maximum(out + mid, 0.0).mean() >= target:
                hi = mid
            else:
                lo = mid
        out += hi
    np.maximum(out, 0.0, out=out)
    return SampledProfile(dt_used, out)


def synth_duck_curve(base_kw: float, evening_peak_kw: float, pv_peak_kw: float,
                     dt: float = DEFAULT_DT_HOURS,
                     ) -> tuple[SampledProfile, SampledProfile, SampledProfile]:
    """Generate one day of synthetic load, PV, and net-load profiles.

    Load is a base level plus a Gaussian evening bump (center 19:00,
    sigma 2 h, periodically wrapped); PV is a half-sine arc between
    06:00 and 18:00; net load is load minus PV floored at zero.  dt must
    divide 24 h into 4 to 86 400 samples (at most one per second).

    Returns:
        (load, pv, net) profiles over 24 h.
    """
    for name, v in (("base_kw", base_kw), ("evening_peak_kw", evening_peak_kw),
                    ("pv_peak_kw", pv_peak_kw)):
        if v < 0.0 or not math.isfinite(v):
            raise ValidationError(f"{name} must be finite and >= 0, got {v}")
    n, dt_used = _grid("dt", dt, 24.0)
    t = np.arange(n) * dt_used

    two_sigma_sq = 2.0 * EVENING_PEAK_SIGMA_H ** 2
    bump = np.zeros(n)
    for wrap in (-24.0, 0.0, 24.0):  # keep the bump C0-periodic at midnight
        bump += np.exp(-((t - EVENING_PEAK_HOUR + wrap) ** 2) / two_sigma_sq)

    arc = np.sin(np.pi * (t - PV_SUNRISE_HOUR) / PV_DAYLIGHT_HOURS)
    daylight = (t >= PV_SUNRISE_HOUR) & (t <= PV_SUNRISE_HOUR + PV_DAYLIGHT_HOURS)
    # SampledProfile refuses what overflows near the top of float range
    with np.errstate(over="ignore", invalid="ignore"):
        load = base_kw + evening_peak_kw * bump
        pv = pv_peak_kw * np.where(daylight, np.maximum(arc, 0.0), 0.0)
        net = np.maximum(load - pv, 0.0)
        return (SampledProfile(dt_used, load), SampledProfile(dt_used, pv),
                SampledProfile(dt_used, net))
