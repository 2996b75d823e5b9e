#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload matrix|crash-sweep|logcap \
        --seed N --seconds S --trace 0|1 [--jobs J] [--fail-check]
        [--known-defects]

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the simulator library from src/ plus the two
benchmark binaries) into .bench_build/perfbench; later runs rebuild
incrementally. Build output goes to stderr, so the last stdout line is
silobench's result object. Before passing that line on, this script
checks that it carries exactly the metrics, with the units, that
BENCHMARK.json declares for the mode (end_to_end untraced, per_layer
traced).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
# The matrix workload peaks near 0.4 GiB; the cap stops a runaway run
# before it exhausts a shared machine.
ADDRESS_SPACE_LIMIT = 4 << 30
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want)
                       if got[k] != want[k])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, unit {units}")


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["matrix", "crash-sweep", "logcap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="override the workload's sweep worker count")
    ap.add_argument("--fail-check", action="store_true",
                    help="invert the first cell's output check")
    ap.add_argument("--known-defects", action="store_true",
                    help="run only the cells left out as known defects")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.jobs < 0:
        fail("--seed and --jobs must be >= 0, --seconds >= 1")

    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {' '.join(e.cmd)}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    binary = BUILD_DIR / ("silobench_traced" if args.trace else "silobench")
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR),
           "--source-id", source_id()]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    if args.fail_check:
        cmd.append("--fail-check")
    if args.known_defects:
        cmd.append("--known-defects")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S,
                             preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print("\n".join(lines[:-1]))
        fail(f"bad result line: {e}", 3)
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
