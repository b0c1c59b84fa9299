#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build under the current directory).
Build output goes to standard error; the benchmark's report goes to standard
output and ends with one JSON line. The exit code is the benchmark's: 0 when
every answer was checked correct, non-zero otherwise or when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    package = Path(__file__).resolve().parent
    root = package.parent
    if not (root / "crates" / "immutable-regions" / "Cargo.toml").is_file():
        print(f"perfbench: no repository sources under {root}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(package / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = target / "release" / "perfbench"
    try:
        ran = subprocess.run([str(binary), *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
