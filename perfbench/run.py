#!/usr/bin/env python3
"""Build the perfbench package and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The arguments go to the `perfbench` binary unchanged; its last line of
standard output is the result object. Cargo builds offline into
$CARGO_TARGET_DIR (default `.bench_build` under the checkout root), and its
output goes to standard error.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
