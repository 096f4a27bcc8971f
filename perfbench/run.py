#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default: perfbench/target). The benchmark prints its
result as one JSON object on the last line of standard output; build
output goes to standard error. The exit code is the benchmark's, or the
build's when the build fails.
"""

import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETTLE_SECONDS = 15


def main() -> int:
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    exe = os.path.join(target, "release", "perfbench")
    built_before = os.path.getmtime(exe) if os.path.exists(exe) else None
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=900,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if os.path.getmtime(exe) != built_before:
        # The run right after a compile measured up to 2.5x slower reads:
        # flush the build's output and let the machine settle first.
        os.sync()
        time.sleep(SETTLE_SECONDS)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
