#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: build-cold, serve-local, serve-fleet, explore-rtl. The program
is built from source with dune first (build output goes to stderr); the
last line of stdout is the JSON result. Exits non-zero, without a result,
when the sources to build are not there, and non-zero after the result
when any output was wrong.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s timed out after %d s" % (cmd[0], timeout), file=sys.stderr)
        return 124


def main():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            print("perfbench: %s not found; run from the root of a source checkout" % need,
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = run(["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
                 BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
