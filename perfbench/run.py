#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload <suite-test|learn|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built offline against the repository's crates;
the build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset.
Build output goes to stderr; the last line of stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the repository's
crates are not there to build against.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.stderr.write("perfbench: no crates/ beside perfbench/; run from a full checkout\n")
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(target, "release", "ldbt-perfbench")
    run = subprocess.run([exe] + sys.argv[1:], env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
