#!/usr/bin/env python3
"""Builds the LEGO benchmark from source and runs one workload.

    python3 perfbench/run.py --workload derive|tune-cold|serve-mix|fleet-grid \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The benchmark is built with cargo
(offline, release) into $CARGO_TARGET_DIR, or perfbench/target when that
is unset, then run from the checkout root; its standard output is passed
through, the last line being the JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "lego-perfbench")
    try:
        ran = subprocess.run([exe, *sys.argv[1:]], cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
