#!/usr/bin/env python3
"""Build and run the FIDR repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload ingest_dedup --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare A.json B.json

The first run configures and builds the libraries and fidr_perfbench in
.bench_build/perfbench (Release); later runs only re-check the build.
The report of fidr_perfbench goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics.  Full results
(host stamp, workload config, clock and sample count per metric) and
traces go to .bench_build/perfbench-results.

--compare prints the metric deltas between two result files and refuses
to compare results taken on different hosts.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Stamp fields that identify a host; results from different hosts
# are not comparable.
HOST_KEYS = ("nproc", "cpu", "sha_ni", "avx2", "avx512f", "simd_dispatch")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(deadline):
    """Configures once, then builds; cmake output goes to a log file."""
    if not (ROOT / "src" / "fidr").is_dir() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no FIDR sources under {ROOT / 'src'}; run from a full checkout", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "fidr_perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(args):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    build(deadline)
    binary = BUILD_DIR / "fidr_perfbench"
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out-dir", str(RESULTS_DIR)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"fidr_perfbench exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")
    print("\n".join(lines))


def selftest(_args):
    build(time.monotonic() + BUILD_TIMEOUT_S)
    sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode)


def compare(args):
    a = json.loads(Path(args.compare[0]).read_text())
    b = json.loads(Path(args.compare[1]).read_text())
    for key in HOST_KEYS:
        if a["stamp"].get(key) != b["stamp"].get(key):
            fail(f"refusing to compare results from different hosts "
                 f"({key}: {a['stamp'].get(key)!r} vs {b['stamp'].get(key)!r})", 3)
    if a["stamp"]["workload"] != b["stamp"]["workload"]:
        fail("refusing to compare different workloads", 3)
    print(f"{'metric':40} {'A':>14} {'B':>14} {'B/A-1':>8}  unit clock")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{vb / va - 1:+.1%}" if va else "n/a"
        print(f"{name:40} {va:14.6g} {vb:14.6g} {change:>8}  "
              f"{ma['unit']} {ma['clock']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args()
    if args.selftest:
        selftest(args)
    elif args.compare:
        compare(args)
    elif args.workload and args.seed is not None and args.seconds:
        run(args)
    else:
        parser.error("need --workload, --seed and --seconds, or --selftest, "
                     "or --compare")


if __name__ == "__main__":
    main()
