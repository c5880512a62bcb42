#!/usr/bin/env python3
"""Build and run synchq's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|rpc|timeouts \
        --seed N --seconds S --trace 0|1

The Go program in this directory is built from source into .bench_build/
(its build cache too, so nothing is written outside the checkout), then
run with the arguments given. Its standard output, whose last line is the
JSON result, passes through unchanged; the exit code is the program's, or
1 when the build fails or the run overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

# The first build compiles the standard library into an empty cache; a
# run must end within three minutes.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
        ("HOME", "home"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOSUMDB="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    try:
        built = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
