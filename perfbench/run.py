#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload coarse-large --seed 1 --seconds 20 --trace 0

The program is built from source into the build directory (CARGO_TARGET_DIR
if set, else .bench_build) with the Go build cache, the go command's own
state, temporary files, session journals and span logs kept under that
directory too. The benchmark's arguments are passed through unchanged; its
output is printed as is, the last line being the JSON result. The exit code
is the benchmark's, or non-zero without a result when the build fails or the
run overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("run.py: the repository's go.mod is missing; nothing to benchmark", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        # The go command's own state (telemetry counters) goes here too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    })
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                       cwd=bench_dir, env=env, check=True, timeout=BUILD_TIMEOUT_S,
                       stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    args = [binary, "-work", build] + sys.argv[1:]
    try:
        proc = subprocess.Popen(args, cwd=root, env=env)
    except OSError as err:
        print(f"run.py: cannot start the benchmark: {err}", file=sys.stderr)
        return 2
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark overran {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
