"""Profile construction, CSV round-trips, resampling, and synthesis."""

import codecs
import gc
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rampsched
from rampsched import (SampledProfile, ValidationError, load_csv,
                       resample_periodic, synth_duck_curve, write_csv)
from rampsched.costmodel import load_config
from rampsched.econ import read_trend_csv
from rampsched.pmp import SOLUTION_CSV_HEADER, read_solution_csv
from rampsched.profiles import _parse_timestamp, format_table


def _csv_text(times, cols):
    header = "timestamp," + ",".join(cols)
    rows = [header]
    for i, t in enumerate(times):
        rows.append(str(t) + "," + ",".join(str(c[i]) for c in cols.values()))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------- profiles

def test_profile_requires_four_samples():
    with pytest.raises(ValidationError):
        SampledProfile(1.0, [1.0, 2.0, 3.0])


def test_profile_rejects_negative_values():
    with pytest.raises(ValidationError):
        SampledProfile(1.0, [1.0, -0.5, 2.0, 3.0])


def test_profile_rejects_bad_dt():
    with pytest.raises(ValidationError):
        SampledProfile(0.0, [1.0, 2.0, 3.0, 4.0])


FOUR = SampledProfile(1.0, [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("build,message", [
    (lambda: SampledProfile(1.0, np.ones((2, 4))), "one-dimensional"),
    (lambda: SampledProfile(1.0, [1.0, np.inf, 3.0, 4.0]),
     "profile values must be finite"),
    (lambda: write_csv(io.StringIO()), "write_csv needs at least one profile"),
    (lambda: write_csv(io.StringIO(), load=FOUR,
                       pv=SampledProfile(2.0, [1.0, 2.0, 3.0, 4.0])),
     "must share one grid"),
    (lambda: resample_periodic(FOUR, 0.0),
     "new_dt=0.0 must divide 4 h into >= 4 samples"),
    (lambda: resample_periodic(FOUR, -1.0),
     "new_dt=-1.0 must divide 4 h into >= 4 samples"),
    (lambda: read_solution_csv(io.StringIO("t_h,x_kw\n0,1\n")),
     "line 1: expected the header"),
    (lambda: read_trend_csv(io.StringIO("year,value\n10,40\n")),
     "must start with a 'share_pct,value' header"),
], ids=["profile-2d", "profile-inf", "write-nothing", "write-two-grids",
        "resample-zero", "resample-negative", "solution-header",
        "trend-header"])
def test_profile_and_table_inputs_are_refused(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_period_is_dt_times_count():
    p = SampledProfile(0.25, np.arange(96, dtype=float))
    assert p.period_T == 0.25 * 96
    assert p.count == 96


def test_value_at_wraps_periodically():
    p = SampledProfile(1.0, [1.0, 2.0, 3.0, 4.0])
    assert p.value_at(0.5) == pytest.approx(1.5)
    assert p.value_at(3.5) == pytest.approx(2.5)  # wraps toward sample 0
    assert p.value_at(4.5) == pytest.approx(p.value_at(0.5))
    assert p.value_at(0.0) == 1.0 and p.value_at(4.0) == 1.0
    assert p.value_at(-0.5) == pytest.approx(2.5)
    assert p.value_at(9.25) == pytest.approx(2.25)
    assert type(p.value_at(np.float64(-0.5))) is float
    mixed = p.value_at([-0.5, 4.0, 9.25, 1.0])
    assert type(mixed) is np.ndarray
    np.testing.assert_allclose(mixed, [2.5, 1.0, 2.25, 2.0])


def test_values_are_read_only():
    p = SampledProfile(1.0, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        p.values[0] = 9.0


# ---------------------------------------------------------------- load_csv

def test_load_csv_constant_series():
    times = [900 * i for i in range(96)]
    text = _csv_text(times, {"load_kw": [100.0] * 96})
    got = load_csv(text.encode())
    assert set(got) == {"load"}
    p = got["load"]
    assert p.dt == pytest.approx(0.25)
    assert p.count == 96
    assert p.period_T == pytest.approx(24.0)
    assert np.all(p.values == 100.0)


def test_load_csv_iso_timestamps():
    times = [f"2024-03-01T{h:02d}:00:00" for h in range(24)]
    text = _csv_text(times, {"load_kw": list(range(24))})
    p = load_csv(text.encode())["load"]
    assert p.dt == pytest.approx(1.0)


def test_load_csv_gap_raises_spacing_error():
    hours = list(range(12)) + [13 + h for h in range(12)]  # one 2 h gap
    times = [3600 * h for h in hours]
    text = _csv_text(times, {"load_kw": [1.0] * 24})
    with pytest.raises(ValidationError, match="line 14: gap 7200s deviates"):
        load_csv(text.encode())


@pytest.mark.parametrize("rows", [96, 97])
def test_load_csv_spacing_is_the_median_gap(rows):
    rng = np.random.default_rng(rows)
    times = np.cumsum(900.0 * (1.0 + rng.uniform(-0.004, 0.004, rows)))
    text = _csv_text(times.tolist(), {"load_kw": [1.0] * rows})
    p = load_csv(text.encode())["load"]
    assert p.dt == float(np.median(np.diff(times))) / 3600.0


def test_load_csv_gap_past_float_range_names_line():
    text = _csv_text([-1.7e308, 1.7e308, 1.75e308, 1.79e308],
                     {"load_kw": [1.0] * 4})
    with pytest.raises(ValidationError,
                       match="^line 3: timestamp gap past float range$"):
        load_csv(text.encode())


def test_load_csv_median_of_gaps_past_half_float_range():
    """Two middle gaps whose sum leaves float range still give their mean."""
    times = [-1.5e308, -0.5e308, 0.5e308, 1.5e308]
    text = _csv_text(times, {"load_kw": [1.0] * 4})
    assert load_csv(text.encode())["load"].dt == 1e308 / 3600.0


def test_load_csv_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma, 14 ms of every CLI process that reads a CSV
    path = tmp_path / "day.csv"
    path.write_text(_csv_text([900 * i for i in range(96)],
                              {"load_kw": [1.0] * 96}))
    src = str(Path(rampsched.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from rampsched import load_csv; "
            "load_csv(sys.argv[1]); assert 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                   check=True)


def test_load_csv_non_increasing_raises():
    times = [0, 900, 900, 1800]
    text = _csv_text(times, {"load_kw": [1.0] * 4})
    with pytest.raises(ValidationError, match="not strictly increasing"):
        load_csv(text.encode())


def test_load_csv_too_short():
    text = _csv_text([0, 900, 1800], {"load_kw": [1.0] * 3})
    with pytest.raises(ValidationError, match="at least 4 data rows, got 3"):
        load_csv(text.encode())


def test_load_csv_negative_value_names_line():
    text = _csv_text([0, 900, 1800, 2700], {"load_kw": [1.0, 2.0, -3.0, 4.0]})
    with pytest.raises(ValidationError, match="line 4"):
        load_csv(text.encode())


def test_load_csv_non_numeric_names_line():
    text = "timestamp,load_kw\n0,1.0\n900,oops\n1800,2.0\n2700,3.0\n"
    with pytest.raises(ValidationError, match="line 3"):
        load_csv(text.encode())


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_load_csv_non_finite_timestamp_names_line(stamp):
    text = _csv_text([0, 900, stamp, 2700, 3600], {"load_kw": [1.0] * 5})
    with pytest.raises(ValidationError,
                       match=f"line 4: non-finite timestamp '{stamp}'"):
        load_csv(text.encode())


@pytest.mark.parametrize("cell,seconds", [
    ("2000-01-01T00:15:00", 900.0),
    ("2000-01-01 00:15:00", 900.0),
    (" 2000-01-02 ", 86400.0),
    ("2000-01-01T02:15:00+02:00", 900.0),
    ("2000-01-01T00:15:00.25", 900.25),
    ("900", 900.0), ("900.5", 900.5), ("9e2", 900.0), ("1.5e-3", 1.5e-3),
    ("123e-5", 123e-5), ("-900", -900.0),
    ("20000101", 20000101.0),  # also an ISO basic date: float() comes first
    ("INFINITY", "non-finite"), ("nan", "non-finite"),
    ("abc", "unparseable"), ("2000-13-01", "unparseable"),
    ("12:00", "unparseable"),
])
def test_timestamp_cell_semantics(cell, seconds):
    """ISO-8601 cells are seconds from 2000-01-01 UTC; a cell float()
    accepts is epoch seconds; errors name the line."""
    if isinstance(seconds, str):
        with pytest.raises(ValidationError, match=re.escape(
                f"line 7: {seconds} timestamp {cell.strip()!r}")):
            _parse_timestamp(cell, 7)
    else:
        assert _parse_timestamp(cell, 7) == seconds


def test_load_csv_missing_value_rejected_not_imputed():
    text = "timestamp,load_kw\n0,1.0\n900,\n1800,2.0\n2700,3.0\n"
    with pytest.raises(ValidationError, match="line 3"):
        load_csv(text.encode())


# Each reader's file: header, two data rows, two blank lines, then the
# row holding {bad} on file line 6, and a last row.
_READER_FILES = {
    "load_csv": (load_csv, "load_kw", "timestamp,load_kw\n0,1\n900,1\n\n\n"
                 "1800,{bad}\n2700,1\n3600,1\n"),
    "read_solution_csv": (read_solution_csv, "pm_kw", SOLUTION_CSV_HEADER
                          + "\n0,1,2,3,4,5,6\n1,1,2,3,4,5,6\n\n\n"
                          "2,1,2,3,{bad},5,6\n3,1,2,3,4,5,6\n"),
    "read_trend_csv": (read_trend_csv, "value", "share_pct,value\n10,40\n"
                       "20,45\n\n\n30,{bad}\n40,55\n"),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "oops", ""])
@pytest.mark.parametrize("reader", sorted(_READER_FILES))
def test_reader_names_line_and_column_of_bad_cell(reader, bad):
    read, column, text = _READER_FILES[reader]
    with pytest.raises(ValidationError,
                       match=f"^line 6: .* cell '{bad}' in column '{column}'$"):
        read(text.format(bad=bad).encode())


_BOM_FILES = {
    "load_csv": (load_csv, "timestamp,load_kw\n0,1\n900,2\n1800,3\n2700,4\n"),
    "load_config": (load_config, "demand_w = 5360\nk = 0.0014\n"),
    "read_solution_csv": (read_solution_csv, SOLUTION_CSV_HEADER + "\n"
                          + "".join(f"{t},1,2,3,4,5,6\n" for t in range(5))),
    "read_trend_csv": (read_trend_csv, "share_pct,value\n10,40\n20,45\n"),
}


def _plain(value):
    """A reader's result as comparable Python values."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, SampledProfile):
        return value.dt, value.values.tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@pytest.mark.parametrize("form", ["path", "bytes", "stream"])
@pytest.mark.parametrize("reader", sorted(_BOM_FILES))
def test_reader_accepts_utf8_byte_order_mark(tmp_path, reader, form):
    """A file saved as Excel's "CSV UTF-8" starts with U+FEFF."""
    read, text = _BOM_FILES[reader]
    data = codecs.BOM_UTF8 + text.encode()
    if form == "path":
        source = tmp_path / "bom.csv"
        source.write_bytes(data)
    elif form == "bytes":
        source = data
    else:
        source = io.StringIO(data.decode("utf-8"))
    assert _plain(read(source)) == _plain(read(text.encode()))


def test_load_csv_repeated_stamp_after_blank_lines_names_its_line():
    text = "timestamp,load_kw\n0,1\n900,1\n\n\n1800,1\n1800,1\n2700,1\n"
    with pytest.raises(ValidationError,
                       match="line 7: timestamps not strictly increasing"):
        load_csv(text.encode())


@pytest.mark.parametrize("header,message", [
    ("timestamp,load_kw,price_usd_kwh", "unknown column 'price_usd_kwh'"),
    ("when,load_kw", "unknown column 'when'"),
    ("timestamp,load_kw,load_kw", "repeated column 'load_kw'"),
    ("load_kw,pv_kw", "no timestamp column"),
    ("timestamp", "no power column"),
])
def test_load_csv_rejects_header_outside_schema(header, message):
    fields = header.count(",") + 1
    text = header + "\n" + "".join(
        ",".join([str(900 * i)] + ["1.0"] * (fields - 1)) + "\n"
        for i in range(4))
    with pytest.raises(ValidationError, match=f"line 1: {message}"):
        load_csv(text.encode())


def test_load_csv_closes_its_file(tmp_path):
    path = tmp_path / "load.csv"
    write_csv(path, load=SampledProfile(1.0, [1.0, 2.0, 3.0, 4.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_csv(path)
        gc.collect()
    assert not [w for w in caught if w.category is ResourceWarning]


def test_roundtrip_write_read_sinusoid():
    t = np.arange(96) * 0.25
    vals = 120.0 + 30.0 * np.sin(2.0 * np.pi * t / 24.0)
    p = SampledProfile(0.25, vals)
    buf = io.StringIO()
    write_csv(buf, load=p)
    back = load_csv(buf.getvalue().encode())["load"]
    assert back.dt == pytest.approx(p.dt, rel=1e-12)
    assert np.max(np.abs(back.values - p.values)) < 1e-9


def test_load_csv_scale_applies_to_power_not_price():
    text = ("timestamp,load_kw,pv_kw\n"
            "0,1.0,0.5\n900,2.0,0.5\n1800,3.0,0.5\n2700,4.0,0.5\n")
    got = load_csv(text.encode(), scale=1000.0)
    assert np.array_equal(got["load"].values, [1000.0, 2000.0, 3000.0, 4000.0])
    assert np.all(got["pv"].values == 500.0)
    with pytest.raises(ValidationError):
        load_csv(text.encode(), scale=0.0)
    # a price column is refused rather than read
    with pytest.raises(ValidationError, match="price_usd_kwh"):
        load_csv(text.replace("pv_kw", "price_usd_kwh").encode(), scale=1000.0)


def test_roundtrip_non_integer_second_spacing():
    p = SampledProfile(24.0 / 7.0, [1.0, 2.5, 3.25, 4.0, 5.5, 6.0, 7.75])
    buf = io.StringIO()
    write_csv(buf, load=p)
    back = load_csv(buf.getvalue().encode())["load"]
    assert back.dt == pytest.approx(p.dt, rel=1e-9)
    assert np.max(np.abs(back.values - p.values)) < 1e-9


def test_format_table_writes_text_verbatim_and_floats_as_repr():
    floats = [0.1, 1.0 / 3.0, 1e-300, -2.5e17, 5e-324]
    rows = [("2000-01-01T00:15:00", *floats), ("x y", 7, 0.0, -0.0, 1e16, 2.0)]
    text = format_table("stamp,a,b,c,d,e", list(zip(*rows)))  # by column
    assert text.splitlines() == [
        "stamp,a,b,c,d,e",
        "2000-01-01T00:15:00," + ",".join(map(repr, floats)),
        "x y,7,0.0,-0.0,1e+16,2.0"]
    assert text.endswith("\n")


@pytest.mark.parametrize("dt,first_stamps", [
    (0.25, ["2000-01-01T00:00:00", "2000-01-01T00:15:00"]),
    (24.0 / 7.0, ["0.0", repr(24.0 / 7.0 * 3600.0)])])
def test_write_csv_reads_back_bit_exact(dt, first_stamps):
    n = round(24.0 / dt)
    rng = np.random.default_rng(n)
    load = SampledProfile(dt, rng.uniform(0.0, 1e4, n) / 3.0)
    pv = SampledProfile(dt, rng.uniform(0.0, 1e-3, n))
    buf = io.StringIO()
    write_csv(buf, load=load, pv=pv)
    lines = buf.getvalue().splitlines()
    assert [line.split(",")[0] for line in lines[1:3]] == first_stamps
    got = load_csv(buf.getvalue().encode())
    assert np.array_equal(got["load"].values, load.values)
    assert np.array_equal(got["pv"].values, pv.values)


def test_roundtrip_multi_column():
    load, pv, _ = synth_duck_curve(100.0, 50.0, 120.0)
    buf = io.StringIO()
    write_csv(buf, load=load, pv=pv)
    got = load_csv(buf.getvalue().encode())
    assert np.max(np.abs(got["load"].values - load.values)) < 1e-9
    assert np.max(np.abs(got["pv"].values - pv.values)) < 1e-9


# ---------------------------------------------------------------- resample

def test_resample_constant_is_fixed_point():
    p = SampledProfile(0.25, np.full(96, 42.0))
    for new_dt in (0.25, 0.5, 1.0, 0.1):
        q = resample_periodic(p, new_dt)
        assert np.allclose(q.values, 42.0, atol=1e-12)
        assert q.period_T == pytest.approx(24.0)


def test_resample_sinusoid_matches_analytic():
    t = np.arange(96) * 0.25
    p = SampledProfile(0.25, 100.0 + 10.0 * np.sin(2.0 * np.pi * t / 24.0))
    q = resample_periodic(p, 0.125)
    t_new = np.arange(192) * 0.125
    exact = 100.0 + 10.0 * np.sin(2.0 * np.pi * t_new / 24.0)
    assert np.max(np.abs(q.values - exact) / np.abs(exact)) < 1e-3


def test_resample_preserves_mean_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(8, 200))
        vals = rng.uniform(0.5, 500.0, n)
        p = SampledProfile(24.0 / n, vals)
        divisors = [k for k in range(4, 400) if abs(24.0 / k) > 0]
        k = int(rng.choice(divisors))
        q = resample_periodic(p, 24.0 / k)
        mean = p.values.mean()
        assert abs(q.values.mean() - mean) <= 1e-9 * mean


@pytest.mark.parametrize("new_dt", [1e-300, 5e-324, 24.0 / 1e24, 24.0 / 86401])
def test_resample_rejects_more_than_one_node_per_second(new_dt):
    p = SampledProfile(0.25, np.full(96, 1.0))
    with pytest.raises(ValidationError,
                       match=f"new_dt={new_dt!r} h is finer than one node "
                             "per second: the 24 h period holds at most "
                             "86400 nodes"):
        resample_periodic(p, new_dt)


def test_resample_rejects_non_divisor():
    p = SampledProfile(0.25, np.full(96, 1.0))
    with pytest.raises(ValidationError,
                       match="new_dt=0.7 must divide 24 h into >= 4 samples"):
        resample_periodic(p, 0.7)


# ---------------------------------------------------------------- synthesis

def test_synth_zero_pv_net_equals_load():
    load, pv, net = synth_duck_curve(100.0, 50.0, 0.0)
    assert np.all(pv.values == 0.0)
    assert np.array_equal(net.values, load.values)


def test_synth_all_zero_inputs():
    load, pv, net = synth_duck_curve(0.0, 0.0, 0.0)
    for p in (load, pv, net):
        assert np.all(p.values == 0.0)


def test_synth_duck_shape():
    load, pv, net = synth_duck_curve(100.0, 50.0, 120.0, dt=0.25)
    t = np.arange(net.count) * net.dt
    midday = (t > 10.0) & (t < 14.0)
    outside = (t > 4.0) & (t < 6.0)
    assert net.values[midday].min() == net.values.min()
    assert net.values[midday].max() < net.values[outside].min()

    ramp = np.abs(np.diff(np.concatenate([net.values, net.values[:1]]))) / net.dt
    t_peak_ramp = t[int(np.argmax(ramp))]
    assert 16.0 <= t_peak_ramp <= 20.0


def test_synth_is_periodic_at_midnight():
    load, _, _ = synth_duck_curve(100.0, 50.0, 120.0, dt=0.25)
    # evening bump is wrapped, so midnight is continuous
    assert abs(load.values[0] - load.values[-1]) < 1.0


def test_synth_rejects_negative_magnitude():
    with pytest.raises(ValidationError):
        synth_duck_curve(-1.0, 0.0, 0.0)


@pytest.mark.parametrize("dt", [1e-300, 5e-324, 24.0 / 86401])
def test_synth_rejects_more_than_one_node_per_second(dt):
    with pytest.raises(ValidationError,
                       match=f"dt={dt!r} h is finer than one node per second"):
        synth_duck_curve(1.0, 1.0, 1.0, dt=dt)


def test_synth_rejects_bad_dt():
    for dt in (0.7, 0.0, float("nan")):
        with pytest.raises(ValidationError, match=re.escape(
                f"dt={dt} must divide 24 h into >= 4 samples")):
            synth_duck_curve(1.0, 1.0, 1.0, dt=dt)
