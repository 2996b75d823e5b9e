#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of the simulator).

    python3 perfbench/selftest.py [--seed N]

Run from the repository root. Checks that:
  1. an inverted output check (--fail-check) makes the command exit
     non-zero and names the first cell, on a full-run workload (logcap:
     the media oracle) and on crash-sweep (the checker verdict);
  2. --known-defects runs only the cells that knownDefects leaves out
     of matrix (FWB, and LAD on TPCC at 8 cores) and fails on them;
  3. the simulated-stat digest is identical between worker counts and
     between the untraced and the traced binary;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     command exits non-zero without printing a result.
Exits 1 on the first failed expectation.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[2]
    return None


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = str(ap.parse_args().seed)
    base = ["--seed", seed, "--seconds", "1"]

    for workload, first in (("logcap", "logcap/Array/Base"),
                            ("crash-sweep", f"fuzz-{seed}-0/Base/complete")):
        r = run(["--workload", workload, "--fail-check"] + base)
        expect(r.returncode != 0, f"{workload} --fail-check exits non-zero")
        expect(f"check failed: {first}:" in r.stderr,
               f"{workload} --fail-check names {first}")
        result = json.loads(r.stdout.strip().splitlines()[-1])
        expect(result["failed"] >= 1 and not result["correct"],
               f"{workload} --fail-check reports the failure")

    r = run(["--workload", "matrix", "--known-defects"] + base)
    failed = [line.split(": ")[2] for line in r.stderr.splitlines()
              if line.startswith("silobench: check failed: ")]
    expect(r.returncode != 0 and failed,
           "matrix --known-defects exits non-zero")
    expect(all("/FWB/" in c or c == "TPCC/LAD/8c" for c in failed),
           "matrix --known-defects fails only on left-out cells")

    digests = {}
    for label, extra in (("1 worker", ["--jobs", "1"]),
                         ("2 workers", ["--jobs", "2"]),
                         ("traced", ["--trace", "1"])):
        r = run(["--workload", "logcap"] + base + extra)
        digests[label] = digest(r.stdout)
    expect(None not in digests.values() and len(set(digests.values())) == 1,
           f"logcap digest equal across {', '.join(digests)}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    r = run(["--workload", "matrix"] + base, cwd=bare)
    shutil.rmtree(bare)
    expect(r.returncode != 0 and not r.stdout.strip(),
           "bare directory exits non-zero without a result")


if __name__ == "__main__":
    main()
