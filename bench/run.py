#!/usr/bin/env python3
"""rampsched benchmark: one closed-loop, single-client workload per run.

    python3 bench/run.py --workload {cli_day,sweep,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times the workload's ops untraced for S seconds, checks
every output and prints the end-to-end metrics.  ``--trace 1`` replays
the ops as traced public-function calls and prints the per-layer
metrics.  The last stdout line is the result object; the line before it
carries the run's details (host calibration, samples, absent layers).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = (3, 7)    # fresh set-ups per run: at least, at most
SETUP_BUDGET_S = 4.0      # stop adding set-up samples past this much time
CALIB_SAMPLES = 3
SETUP_TIMEOUT_S = 120
REAL_OPS_TRACED = 5

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_per_s": "ops/s",
    "ok_frac": "1",
    "solved_frac": "1",
    "peak_rss_mb": "MiB",
}


def fresh_setup_s(workload: str, seed: int) -> float:
    """Wall time of one fresh process doing import, inputs and a warm-up op."""
    from layers import run_child
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    rc = run_child(argv, SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise subprocess.CalledProcessError(rc, argv)
    return elapsed


def set_up(workload: str, seed: int, work: Path):
    from workloads import WORKLOADS, fresh_dir
    wl = WORKLOADS[workload](seed, fresh_dir(work))
    wl.prepare(0)
    wl.run(0)
    return wl


def p90(ms: list[float]) -> float:
    return (statistics.quantiles(ms, n=10, method="inclusive")[8]
            if len(ms) > 1 else ms[0])


def end_to_end(args, work: Path) -> tuple[dict, dict, int, int]:
    """Closed loop for --seconds, with host-speed probes between ops.

    Each op's time is multiplied by its factor from
    ``layers.host_factors``, so it reads as on the reference host; the
    raw timings are printed in ``info``.
    """
    from layers import (PROBE_SHARE, host_calib_ms, host_factors,
                        host_probe_ms, host_speed_ms)
    calib = [host_calib_ms() for _ in range(CALIB_SAMPLES)]
    wl = set_up(args.workload, args.seed, work)
    spans, failed, solves, solved = [], 0, 0, 0
    probes = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        wl.prepare(i)
        t0 = time.perf_counter()
        res = wl.run(i)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        probed = 0.0
        while probed == 0.0 or probed < PROBE_SHARE * (t1 - t0) * 1e3:
            probes.append((time.perf_counter(), host_probe_ms()))
            probed += probes[-1][1]
        ok, attempted, converged = wl.check(i, res)
        failed += not ok
        solves += attempted
        solved += converged
        i += 1
    rss = wl.peak_rss_mb()  # before the set-up children below add to it
    setups = []
    while len(setups) < SETUP_SAMPLES[0] or (
            len(setups) < SETUP_SAMPLES[1] and sum(setups) < SETUP_BUDGET_S):
        setups.append(fresh_setup_s(args.workload, args.seed))
    calib += [host_calib_ms() for _ in range(CALIB_SAMPLES)]

    raw_ms = [(t1 - t0) * 1e3 for t0, t1 in spans]
    ms = [x * f for x, f in zip(raw_ms, host_factors(spans, probes))]
    values = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p90": p90(ms),
        "throughput_per_s": i * 1e3 / sum(ms),
        "ok_frac": (i - failed) / i,
        "solved_frac": solved / solves,
        "peak_rss_mb": rss,
    }
    metrics = {k: {"value": float(values[k]), "unit": u}
               for k, u in END_TO_END.items()}
    info = {"ops": i, "solves": solves, "setup_samples_s": setups,
            "host_calib_ms": calib,
            "probes": len(probes),
            "host_probe_ms": host_speed_ms([ms for _, ms in probes]),
            "raw_latency_ms_p50": statistics.median(raw_ms),
            "raw_latency_ms_p90": p90(raw_ms),
            "raw_throughput_per_s": i * 1e3 / sum(raw_ms)}
    return metrics, info, i, failed


def traced(args, work: Path) -> tuple[dict, dict, int, int]:
    """Replay ops traced, every layer at least once, own ops for the rest.

    Each replayed op of the workload also runs untraced on the same
    input, so the time ratio of the pair gives the tracing overhead.
    """
    from layers import (IMPORT_PROBES, OFF, Tracer, fresh_process_ms,
                        host_calib_ms, import_metrics, layer_metrics,
                        layer_shares)
    from workloads import WORKLOADS, fresh_dir
    import rampsched.cli as cli

    calib = [host_calib_ms() for _ in range(CALIB_SAMPLES)]
    start = time.perf_counter()
    tr = Tracer()
    wls = {name: cls(args.seed, fresh_dir(work / name))
           for name, cls in WORKLOADS.items()}
    own, day = wls[args.workload], wls["cli_day"]

    # Real ops, checked, interleaved with the start-up probes so that host
    # drift hits both alike: cli_day's layer shares are shares of these.
    own.prepare(0)
    own.run(0)
    probes = {k: [] for k in IMPORT_PROBES}
    lat, failed = [], 0
    for j in range(REAL_OPS_TRACED):
        for k, code in IMPORT_PROBES.items():
            probes[k].append(fresh_process_ms(code, day.env))
        own.prepare(j)
        t0 = time.perf_counter()
        res = own.run(j)
        lat.append((time.perf_counter() - t0) * 1e3)
        failed += not own.check(j, res)[0]
    extra = import_metrics(probes)

    csv, cfg = day.days[0]
    written = []
    for _ in range(3):
        out_run, out_econ = fresh_dir(work / "req_run"), fresh_dir(work / "req_econ")
        with contextlib.redirect_stdout(io.StringIO()):
            with tr.span("cli.main", cmd="solve"):
                cli.main(["solve", "--load", str(csv), "--machine", str(cfg),
                          "--out", str(out_run)])
            with tr.span("cli.main", cmd="econ"):
                cli.main(["econ", "--machine", str(cfg), "--solution",
                          str(out_run), "--out", str(out_econ)])
        written.append(sum(p.stat().st_size for d in (out_run, out_econ)
                           for p in d.iterdir()))
    extra["cli.bytes_written"] = statistics.median(written)

    for wl in wls.values():  # ops 0 and 1 cover both sweep day families
        wl.replay(0, OFF)
        for j in (0, 1):
            wl.replay(j, tr)
            wl.probe(j, tr)

    t_off = t_on = 0.0
    i = 2
    while i < 4 or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        own.replay(i, OFF)
        t1 = time.perf_counter()
        own.replay(i, tr)
        t_on += time.perf_counter() - t1
        t_off += t1 - t0
        own.probe(i, tr)
        i += 1
    extra["bench.tracing_overhead_frac"] = 1.0 - t_off / t_on

    if args.workload == "cli_day":
        startup_ms = 2.0 * (extra["cli.interp_start_ms"] + extra["cli.import_ms"])
        shares = layer_shares(tr.spans, args.workload,
                              statistics.median(lat), startup_ms)
    else:
        shares = layer_shares(tr.spans, args.workload)

    calib += [host_calib_ms() for _ in range(CALIB_SAMPLES)]
    extra["bench.host_calib_ms"] = statistics.median(calib)
    extra["repo.src_lines"] = sum(
        len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    metrics, absent = layer_metrics(tr, args.workload, shares, extra)
    spans_file = ROOT / ".bench_out" / f"spans-{args.workload}.json"
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps(tr.spans), encoding="utf-8")
    info = {"replayed_ops": i, "spans": len(tr.spans), "absent": absent,
            "host_calib_ms": calib, "real_op_ms": lat,
            "shares": {k: round(v, 4) for k, v in shares.items()},
            "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, info, REAL_OPS_TRACED, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_day", "sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="do one fresh set-up (import, inputs, warm-up op)")
    args = parser.parse_args(argv)

    if not (SRC / "rampsched" / "__init__.py").is_file():
        print(f"error: no rampsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rampsched
    if Path(rampsched.__file__).resolve().parent != (SRC / "rampsched").resolve():
        print(f"error: rampsched imported from {rampsched.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, work)
            return 0
        run = traced if args.trace else end_to_end
        metrics, info, attempted, failed = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, **info}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
