#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see cprbench/README.md).

    python3 cprbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 cprbench/run.py --smoke            # quick self-check of every workload

The first call configures and builds cprbench/CMakeLists.txt (the compiler
libraries from src/ plus the benchmark program) under .bench_build/, or under
$CARGO_TARGET_DIR when it is set; later calls rebuild incrementally. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("cprbench: compiler sources (src/) not found next to cprbench/")
    bdir = target_dir() / "cprbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("cprbench: cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", str(bdir), "--target", "cprbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("cprbench: build failed")
    return bdir / "cprbench"


def run(exe, workload, seed, seconds, trace, quick=False, capture=False):
    # Relative to the checkout, where the binary runs: the serve workload's
    # Unix socket lives there, and socket paths are limited to 107 bytes.
    out_dir = os.path.relpath(target_dir() / "cprbench-out", ROOT)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    if quick:
        cmd.append("--quick")
    pipe = subprocess.PIPE if capture else None
    return subprocess.run(cmd, cwd=ROOT, text=True, stdout=pipe, stderr=pipe)


def smoke(exe, workloads):
    """Every workload, quick, traced and untraced: the result line names
    every metric of BENCHMARK.json with its unit, and the checks pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads or names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run(exe, workload, 1, 1, trace, quick=True, capture=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no JSON result line:\n" + proc.stderr[-2000:])
                continue
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(f"{label}: correctness checks failed:\n"
                                + proc.stderr[-2000:])
            if result.get("attempted", 0) < 1 or result.get("failed") != 0:
                problems.append(f"{label}: attempted/failed {result.get('attempted')}"
                                f"/{result.get('failed')}")
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[section]}
            for name, unit in want.items():
                got = metrics.get(name)
                if got is None:
                    problems.append(f"{label}: metric {name} missing")
                elif got.get("unit") != unit:
                    problems.append(f"{label}: {name} unit {got.get('unit')} != {unit}")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{label}: {name} value is not a number")
            for name in metrics:
                if name not in want:
                    problems.append(f"{label}: unexpected metric {name}")
            print(f"cprbench smoke: {label}: {len(metrics)} metrics checked",
                  file=sys.stderr)
    for p in problems:
        print(f"cprbench smoke: FAILED: {p}", file=sys.stderr)
    print("cprbench smoke: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="quick check of every workload (or --workload)")
    args = ap.parse_args()
    exe = build()
    if args.smoke:
        sys.exit(smoke(exe, [args.workload] if args.workload else None))
    if not args.workload:
        ap.error("--workload is required")
    sys.exit(run(exe, args.workload, args.seed, args.seconds, args.trace).returncode)


if __name__ == "__main__":
    main()
