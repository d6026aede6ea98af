#!/usr/bin/env python3
"""Build the simulator from source and run the end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all            # every workload
  python3 perfbench/run.py --self-test               # the benchmark's checks

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is the benchmark's JSON result. Build
output goes to standard error. The build lives in $CARGO_TARGET_DIR (or
.bench_build) under the repository root, configured as a Release build.
Each workload runs in its own process with every WCS_* variable removed
from the environment, so no earlier run or environment gate changes what
is measured.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper", "scale", "open"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "--target", target, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, target)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("WCS_")}


def run(cmd):
    sys.stdout.flush()
    return subprocess.run(cmd, env=clean_env(), cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run([build("perfbench_selftest")]))

    binary = build("perfbench")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code = run([binary, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
