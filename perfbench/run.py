#!/usr/bin/env python3
"""Build confanon and its benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 15 --trace 0

Both release binaries build into $CARGO_TARGET_DIR (default
`.bench_build`). All arguments pass through to the `perfbench` binary,
which prints the metrics; the last line of its output is the result
JSON. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "confanon"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--confanon", os.path.join(release, "confanon")]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
