#!/usr/bin/env python3
"""Builds icewafl and the benchmark runner from source, then runs one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload values_logged --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); the
runner's scratch files (WAL, server logs, result documents, spans) go
to `<target dir>/perfbench`. The last line of standard output is the
result JSON. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("values_logged", "temporal_logged", "serve_binary")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    """Runs one `cargo build`, its output on stderr; stops on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    # The benchmark builds the program it measures: without the
    # repository's sources there is nothing to measure.
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            fail(f"`{needed}` not found: run from the root of an icewafl checkout")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(["--bin", "icewafl"], env)
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"], env)

    runner = os.path.join(target, "release", "perfbench")
    cmd = [
        runner,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--icewafl-bin", os.path.join(target, "release", "icewafl"),
        "--scratch", os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
