#!/usr/bin/env python3
"""Build the TraceTracker binaries and the benchmark harness from source,
then run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload revive|sweep|serve --seed N \
        --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); generated
inputs, run records and spans go to `.bench_work`. The harness prints
the result as the last line of standard output.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(cmd, env):
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["revive", "sweep", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build(["cargo", "build", "--release", "--offline", "-q",
           "-p", "tt-cli", "-p", "tt-serve"], env)
    build(["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                           text=True).stdout.strip()

    bins = os.path.join(target, "release")
    cmd = [os.path.join(bins, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--bin-dir", bins, "--work-dir", ".bench_work", "--rustc", rustc]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
