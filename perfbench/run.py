#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

The binary, the Go build cache and any span logs go under the build
directory ($CARGO_TARGET_DIR, default .bench_build), so the benchmark reads
and writes only inside the checkout. Every argument is passed to the
binary, whose last line of output is the JSON result. The exit status is
non-zero when the build fails or a correctness check fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    spans = ["--span-dir", os.path.join(build, "trace")]
    return subprocess.run([binary] + spans + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
