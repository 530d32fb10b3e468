#!/usr/bin/env python3
"""Build the benchmark driver from source and run it.

    python3 perfbench/run.py --workload home-control --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go build cache, the binary and each
run's scratch data live under $CARGO_TARGET_DIR (default .bench_build),
so nothing is written outside the checkout. Every argument is passed
to the driver; see perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOTELEMETRY="off",
        GOPROXY="off",
        GOWORK="off",
    )
    exe = os.path.join(build, "bin", "perfbench")
    try:
        subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                       check=True, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    # exec, so the driver is the process the caller waits for.
    os.execv(exe, [exe, "--workdir", build] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
