#!/usr/bin/env python3
"""Build and run the simulator's layered benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the script builds the simulator
and the benchmark driver from that checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build at the checkout root), runs one
workload, and prints the driver's build-and-host stamp followed, as
the last line, by the result object. With --trace 1 it also folds the
google-benchmark structure micro-benchmarks into the per-layer metrics.

Exits non-zero without printing a result when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# bench/micro_tlb_structures rows folded into the traced report, at the
# default geometries: a 4-way L1 set, the 32-entry L2 range TLB.
MICRO_ROWS = {
    "BM_SetAssocTlbLookup/4": "tlb.set_assoc_lookup_ns",
    "BM_RangeTlbLookup/32": "tlb.range_lookup_ns",
    "BM_PageTableTranslate": "tlb.page_table_translate_ns",
    "BM_MmuCacheWalk": "tlb.mmu_cache_walk_ns",
}


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then (re)build the two binaries the run needs."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench", "micro_tlb_structures"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def source_id():
    """git sha (+dirty) when ROOT is a work tree's top, else a hash of
    every file the build reads."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, check=True).stdout.strip()
        if Path(top).resolve() == ROOT:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                    "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True,
                                   check=True).stdout.strip()
            return "git:" + sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def micro_metrics(binary):
    """Median ns per lookup of the structure micro-benchmarks."""
    pattern = "|".join("^" + name + "$" for name in MICRO_ROWS)
    done = subprocess.run(
        [str(binary), "--benchmark_format=json",
         "--benchmark_filter=" + pattern, "--benchmark_min_time=0.2",
         "--benchmark_repetitions=3",
         "--benchmark_report_aggregates_only=true"],
        capture_output=True, text=True, timeout=60, check=True)
    metrics = {}
    for row in json.loads(done.stdout)["benchmarks"]:
        if row.get("aggregate_name") != "median":
            continue
        if row["time_unit"] != "ns":
            raise ValueError("unexpected time unit " + row["time_unit"])
        metrics[MICRO_ROWS[row["run_name"]]] = {
            "value": row["real_time"], "unit": "ns"}
    missing = set(MICRO_ROWS.values()) - set(metrics)
    if missing:
        raise ValueError("micro-benchmarks missing: " + ", ".join(missing))
    return metrics


def main():
    # Turn SIGTERM into an exception so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    scratch = out / "scratch"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--scratch", str(scratch),
           "--digests", str(HERE / "digests.txt"),
           "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within", RUN_TIMEOUT_S, "s")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench exited with status", done.returncode)
        return done.returncode or 1
    result = json.loads(lines[-1])
    if args.trace == "1":
        result["metrics"].update(
            micro_metrics(out / "eat" / "bench" / "micro_tlb_structures"))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
