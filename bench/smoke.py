#!/usr/bin/env python3
"""Smoke self-check of the benchmark.  Run from the repository root:

    python3 bench/smoke.py

1. Runs every workload of BENCHMARK.json for a few ops, untraced and
   traced, and fails if a named metric or its unit is missing.
2. Shows that the output checks count a corrupted output as not ok: a
   flipped byte in a determinism-compared solution.csv, a wrong exit
   code, an unconverged oracle, a sweep point outside the box, an
   unconverged point that was not refused.
3. Shows that the benchmark exits non-zero, printing no result, in a
   directory that holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ["bench/run.py", "--seed", "7", "--seconds", "1"]
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, "--workload", workload,
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def metric_names_and_units(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            out = bench(ROOT, w["name"], trace)
            expect(out.returncode == 0, f"{label}: exit 0")
            if out.returncode != 0:
                print(out.stderr[-2000:])
                continue
            res = json.loads(out.stdout.splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1, f"{label}: correct, none failed")
            got = res["metrics"]
            for m in spec[key]:
                have = got.get(m["name"], {})
                expect(have.get("unit") == m["unit"]
                       and isinstance(have.get("value"), (int, float)),
                       f"{label}: {m['name']} [{m['unit']}]")
            expect(set(got) == {m["name"] for m in spec[key]},
                   f"{label}: no unnamed metrics")


def corrupted_outputs(work: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import CliDay, Sweep, Verify, fresh_dir

    day = CliDay(7, fresh_dir(work / "cli_day"))
    day.prepare(0)
    rcs = day.run(0)
    expect(day.check(0, rcs)[0], "cli_day: clean op is ok")
    csv = work / "cli_day" / "run0" / "solution.csv"
    clean = csv.read_bytes()
    flipped = bytearray(clean)
    flipped[len(flipped) // 2] ^= 0x01
    csv.write_bytes(bytes(flipped))
    expect(not day.check(0, rcs)[0], "cli_day: flipped byte in solution.csv")
    csv.write_bytes(clean)
    expect(day.check(0, rcs)[0], "cli_day: restored output is ok again")
    expect(not day.check(0, (rcs[0], 1))[0], "cli_day: econ exit code 1")

    sweep = Sweep(7, work)
    trough = sweep.run(1)  # a small-scale day: every point converges
    expect(sweep.check(1, trough)[0], "sweep: clean study is ok")
    sc, sol, refused = trough[-1]
    pm = sol.pm_traj.copy()
    pm[0] = -0.02 * sc.cost.pbar_kw
    pushed = dataclasses.replace(sol, pm_traj=pm)
    expect(not Sweep(7, work).check(1, trough[:-1] + [(sc, pushed, refused)])[0],
           "sweep: converged point 2% of Pbar outside the box")
    plant = sweep.run(0)  # a plant day: undersized points fail
    expect(sweep.check(0, plant)[0], "sweep: study with failed points is ok")
    sc, sol, _ = plant[0]
    expect(not sol.converged and not sweep.check(0, [(sc, sol, False)]
                                                 + plant[1:])[0],
           "sweep: unconverged point not refused")

    verify = Verify(7, fresh_dir(work / "verify"))
    verify.prepare(0)
    rc = verify.run(0)
    expect(verify.check(0, rc)[0], "verify: clean op is ok")
    expect(not verify.check(0, 3)[0], "verify: exit code 3")
    diag = work / "verify" / "check0" / "oracle_diagnostics.json"
    doc = json.loads(diag.read_text())
    diag.write_text(json.dumps({**doc, "converged": False}))
    expect(not verify.check(0, rc)[0], "verify: oracle not converged")


def refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = bench(bare, "sweep", 0)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without src/: non-zero exit and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    try:
        metric_names_and_units(spec)
        corrupted_outputs(work)
        refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
