"""Tracing and the per-layer metrics of the traced run.

The tracer records one span per call into a layer, from outside the
program: name, start, end, parent span and the op it belongs to, plus
counts attached at the same boundary.  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration
minus the time its children cover; a layer is the first dotted part of
a span name (``pmp.solve`` belongs to ``pmp``, an ``op.*`` span's self
time to the benchmark's own glue).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "profiles", "costmodel", "pmp", "oracle", "econ")
ABSENT = -1.0

# Per-layer metric -> unit, in the order they are printed.
PER_LAYER = {
    "bench.host_calib_ms": "ms",
    "bench.tracing_overhead_frac": "1",
    "repo.src_lines": "count",
    "cli.interp_start_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.import_ms": "ms",
    "cli.solve_request_ms": "ms",
    "cli.econ_request_ms": "ms",
    "cli.bytes_written": "B/op",
    "profiles.load_csv_ms.n1440": "ms",
    "profiles.resample_periodic_ms": "ms",
    "costmodel.load_config_ms": "ms",
    "pmp.solve_ms.interior": "ms",
    "pmp.solve_ms.touch": "ms",
    "pmp.solve_ms.failed": "ms",
    "pmp.solve_ms.n1440": "ms",
    "pmp.integrate_ms.n96": "ms",
    "pmp.integrate_ms.n1440": "ms",
    "pmp.rk4_pass_equiv.touch": "passes",
    "pmp.rk4_pass_equiv.failed": "passes",
    "pmp.newton_iters": "iters/solve",
    "pmp.converged": "count/op",
    "pmp.attempted": "count/op",
    "pmp.evaluate_ms": "ms",
    "pmp.solution_diagnostics_ms": "ms",
    "pmp.solution_to_csv_ms.n1440": "ms",
    "pmp.read_solution_csv_ms.n1440": "ms",
    "oracle.pg_ms": "ms",
    "oracle.iterations": "iters/op",
    "oracle.us_per_iter": "us",
    "oracle.bytes_per_iter_computed": "B/iter",
    "oracle.converged_frac": "1",
    "oracle.oracle_to_csv_ms": "ms",
    "econ.daily_report_ms": "ms",
    "econ.report_render_ms": "ms",
    **{f"share.{layer}": "1"
       for layer in ("startup", *LAYERS, "bench", "other")},
}

# Timed metrics: median duration of the spans with this name and attributes.
SPAN_TIMES = {
    "cli.solve_request_ms": ("cli.main", {"cmd": "solve"}),
    "cli.econ_request_ms": ("cli.main", {"cmd": "econ"}),
    "profiles.load_csv_ms.n1440": ("profiles.load_csv", {"n": 1440}),
    "profiles.resample_periodic_ms": ("profiles.resample_periodic", {}),
    "costmodel.load_config_ms": ("costmodel.load_config", {}),
    "pmp.solve_ms.interior": ("pmp.solve", {"kind": "interior"}),
    "pmp.solve_ms.touch": ("pmp.solve", {"kind": "touch"}),
    "pmp.solve_ms.failed": ("pmp.solve", {"kind": "failed"}),
    "pmp.solve_ms.n1440": ("pmp.solve", {"n": 1440}),
    "pmp.integrate_ms.n96": ("pmp.integrate", {"n": 96}),
    "pmp.integrate_ms.n1440": ("pmp.integrate", {"n": 1440}),
    "pmp.evaluate_ms": ("pmp.evaluate", {"n": 96}),
    "pmp.solution_diagnostics_ms": ("pmp.solution_diagnostics", {"n": 1440}),
    "pmp.solution_to_csv_ms.n1440": ("pmp.solution_to_csv", {"n": 1440}),
    "pmp.read_solution_csv_ms.n1440": ("pmp.read_solution_csv", {"n": 1440}),
    "oracle.pg_ms": ("oracle.solve_projected_gradient", {}),
    "oracle.oracle_to_csv_ms": ("oracle.oracle_to_csv", {}),
    "econ.daily_report_ms": ("econ.daily_report", {"n": 96}),
    "econ.report_render_ms": ("econ.report_render", {}),
}

# Float64 array passes (reads plus writes) of length n in one projected-
# gradient iteration, counted from the oracle's loop body: the step and
# clip (7), the gradient (24) and the projected residual (9).
PG_ARRAY_PASSES = 40


@functools.cache
def resolve(ref: str):
    """``"pmp.solve"`` -> ``rampsched.pmp.solve``, or None if it is gone."""
    module, _, name = ref.rpartition(".")
    try:
        return getattr(importlib.import_module("rampsched." + module), name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span recorder; with ``record=False`` the same calls go straight through."""

    def __init__(self, record: bool = True):
        self.record = record
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.record:
            yield attrs
            return
        rec = {"name": name, "op": self._op,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["t0"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, workload: str):
        self._ops += 1
        self._op = self._ops
        try:
            with self.span("op." + workload):
                yield
        finally:
            self._op = None

    def fn(self, ref: str):
        found = resolve(ref)
        if found is None:
            self.absent.add(ref)
        return found

    def call(self, ref: str, *args, attrs: dict | None = None, **kwargs):
        """Call a layer function by name inside a span of that name."""
        found = self.fn(ref)
        if found is None:
            return None
        with self.span(ref, **(attrs or {})):
            return found(*args, **kwargs)


OFF = Tracer(record=False)


def host_calib_ms() -> float:
    """A fixed pure-Python loop; it tracks host speed, not the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i
    return (time.perf_counter() - start) * 1e3


# Host-speed probe: a fixed numpy loop on a 96-long array, the kind of
# small-array work pmp and oracle do, and never a call into the program.
# The reference host switches between fast and slow phases, lasting from
# a fraction of a second to minutes, in which the same op's time moves by
# up to 40 %; the probe's time moves with it.  In four sets of five 38-s
# runs on five seeds, scaling each op by the probes around it cut the
# spread (IQR / median) of p50 in every set, from 0.04-0.14 to 0.02-0.08;
# p90 and throughput spreads fell in most sets and rose in two, to 0.09.
# cli_day's fresh processes follow it too: in ten runs where the probe
# ranged over 2.4-3.4 ms, cli_day's p50 ranged over 503-715 ms.
PROBE_N = 96
PROBE_STEPS = 500
PROBE_REF_MS = 2.6   # host_probe_ms() on the reference 2-vCPU host
PROBE_SHARE = 0.03   # probe time after each op, as a share of the op's
PROBE_WINDOW_S = 2.0  # probes this close to an op set its speed factor


def host_speed_ms(probes: list[float]) -> float:
    """Mean of the probes without their top and bottom tenth.

    A mean, not a median: a run's ops span many fast and slow phases,
    and the median of the probes would jump from one phase's time to
    the other's as their mix passes one half.
    """
    cut = len(probes) // 10
    return statistics.fmean(sorted(probes)[cut:len(probes) - cut])


def host_factors(ops: list[tuple[float, float]],
                 probes: list[tuple[float, float]]) -> list[float]:
    """PROBE_REF_MS / host speed around each op.

    ``ops`` holds (start, end) and ``probes`` (start, ms), both in
    ``time.perf_counter()`` seconds and in time order; an op's host
    speed is ``host_speed_ms`` of the probes that started between
    PROBE_WINDOW_S before it and PROBE_WINDOW_S after it.
    """
    starts = [t for t, _ in probes]
    factors = []
    for t0, t1 in ops:
        lo = bisect.bisect_left(starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + PROBE_WINDOW_S)
        near = [ms for _, ms in probes[lo:hi]]
        factors.append(PROBE_REF_MS / host_speed_ms(near))
    return factors


def host_probe_ms() -> float:
    base = np.linspace(0.0, 1.0, PROBE_N)
    start = time.perf_counter()
    x = base.copy()
    for _ in range(PROBE_STEPS):
        x = np.minimum(np.maximum(x * 1.0001 + 0.5 * base, 0.0), 2.0)
    return (time.perf_counter() - start) * 1e3


def _ms(rec: dict) -> float:
    return (rec["t1"] - rec["t0"]) / 1e6


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else ABSENT


def _select(spans, name, attrs) -> list[dict]:
    return [s for s in spans if s["name"] == name
            and all(s.get(k) == v for k, v in attrs.items())]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus what its direct children cover, in ms."""
    own = [_ms(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _ms(s)
    return own


def layer_shares(spans: list[dict], workload: str,
                 op_ms: float | None = None,
                 startup_ms: float = 0.0) -> dict[str, float]:
    """Share of the workload's op time spent in each layer's own code.

    For in-process ops the op spans give the op time.  For ``cli_day``
    the caller passes the measured subprocess op time and the process
    start-up it contains; the in-process replay supplies the layers.
    """
    ops = {s["op"] for s in spans if s["name"] == "op." + workload}
    per_layer = dict.fromkeys(("startup", *LAYERS, "bench"), 0.0)
    for s, own in zip(spans, self_times(spans)):
        if s["op"] in ops:
            layer = s["name"].split(".")[0]
            per_layer["bench" if layer == "op" else layer] += own
    n_ops = max(1, len(ops))
    if op_ms is None:
        op_ms = sum(per_layer.values()) / n_ops
    shares = {k: v / n_ops / op_ms for k, v in per_layer.items()}
    shares["startup"] = startup_ms / op_ms
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def run_child(argv: list[str], timeout: float, **popen) -> int:
    """Run a child process to its end; its exit code, or -1 on timeout.

    ``subprocess.run(timeout=...)`` polls the child with sleeps of up to
    50 ms, which adds 0-50 ms to every timed child and made cli_day's op
    times jump between levels 50 ms apart.  A blocking wait returns as
    soon as the child exits; a timer kills it if it overruns.
    """
    killed = threading.Event()
    with subprocess.Popen(argv, **popen) as proc:
        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
            timer.join()
    return -1 if killed.is_set() else rc


def fresh_process_ms(code: str, env: dict) -> float:
    argv = [sys.executable, "-c", code]
    start = time.perf_counter()
    rc = run_child(argv, 60, env=env, stdout=subprocess.DEVNULL)
    elapsed = (time.perf_counter() - start) * 1e3
    if rc != 0:
        raise subprocess.CalledProcessError(rc, argv)
    return elapsed


# Fresh-process start-up probes: interpreter, numpy, the CLI module.
IMPORT_PROBES = {"pass": "pass", "numpy": "import numpy",
                 "cli": "import rampsched.cli"}


def import_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    """Start-up metrics from interleaved IMPORT_PROBES samples."""
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {"cli.interp_start_ms": med["pass"],
            "cli.numpy_import_ms": med["numpy"] - med["pass"],
            "cli.import_ms": med["cli"] - med["pass"]}


def layer_metrics(tr: Tracer, workload: str, shares: dict[str, float],
                  extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Every per-layer metric; those without samples read ABSENT."""
    spans = tr.spans
    m = {name: _median(_ms(s) for s in _select(spans, *key))
         for name, key in SPAN_TIMES.items()}
    n96 = m["pmp.integrate_ms.n96"]
    for kind in ("touch", "failed"):
        solve = m[f"pmp.solve_ms.{kind}"]
        m[f"pmp.rk4_pass_equiv.{kind}"] = (
            solve / n96 if ABSENT not in (solve, n96) else ABSENT)

    own_ops = {s["op"] for s in spans if s["name"] == "op." + workload}
    own_solves = [s for s in _select(spans, "pmp.solve", {})
                  if s["op"] in own_ops]
    m["pmp.newton_iters"] = (
        statistics.fmean(s["newton_iters"] for s in own_solves)
        if own_solves else ABSENT)
    m["pmp.attempted"] = len(own_solves) / max(1, len(own_ops))
    m["pmp.converged"] = (sum(s["converged"] for s in own_solves)
                          / max(1, len(own_ops)))

    pg = _select(spans, "oracle.solve_projected_gradient", {})
    iters = sum(s.get("iterations", 0) for s in pg)
    m["oracle.iterations"] = iters / len(pg) if pg else ABSENT
    m["oracle.us_per_iter"] = (sum(_ms(s) for s in pg) * 1e3 / iters
                               if iters else ABSENT)
    m["oracle.bytes_per_iter_computed"] = (
        8.0 * PG_ARRAY_PASSES * statistics.fmean(s["n"] for s in pg)
        if pg else ABSENT)
    m["oracle.converged_frac"] = (
        statistics.fmean(s.get("converged", False) for s in pg)
        if pg else ABSENT)

    m.update(extra)
    m.update({f"share.{k}": v for k, v in shares.items()})
    absent = sorted(k for k in PER_LAYER if m.get(k, ABSENT) == ABSENT)
    absent += sorted(f"function {ref}" for ref in tr.absent)
    return ({k: {"value": float(m.get(k, ABSENT)), "unit": u}
             for k, u in PER_LAYER.items()}, absent)
