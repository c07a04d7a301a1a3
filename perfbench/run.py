#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe from source (dune, build directory
.bench_build) and runs one workload; its standard output ends with one JSON
line {"correct", "attempted", "failed", "metrics"}.  --smoke runs every
workload on small worlds for a few ticks, twice with one seed and once with
another, and checks that the traced replay reproduces the untraced tick
records, that one seed gives identical outputs and that two seeds differ.

Exit code 0 only when the build succeeded and every output check passed.
Nothing is read or written outside the checkout except the OCaml toolchain.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SPANS_DIR = ".bench_out"
WORKLOADS = ["world-static", "vantage-gossip", "roa-churn"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project here: run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "-j", "2", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run(args, timeout=RUN_TIMEOUT_S):
    """Run main.exe to completion; return (exit code, stdout)."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(args)))
    return proc.returncode, proc.stdout


def smoke():
    ok = True
    for w in WORKLOADS:
        digests = []
        for seed in (1, 1, 2):
            code, out = run(["--workload", w, "--seed", str(seed), "--smoke",
                             "--spans-dir", SPANS_DIR])
            sys.stdout.write(out)
            m = re.search(r"^determinism digest (\w+)$", out, re.M)
            if code != 0 or m is None:
                print("SMOKE FAILED %s seed %d: exit %d" % (w, seed, code))
                ok = False
                break
            digests.append(m.group(1))
        else:
            if digests[0] != digests[1]:
                print("SMOKE FAILED %s: one seed gave two different runs" % w)
                ok = False
            if digests[0] == digests[2]:
                print("SMOKE FAILED %s: seeds 1 and 2 gave the same world" % w)
                ok = False
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")
    build()
    if a.smoke:
        sys.exit(smoke())
    code, out = run(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace),
                     "--spans-dir", SPANS_DIR])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
