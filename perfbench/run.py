#!/usr/bin/env python3
"""Build and run the GDPR persona benchmark.

Run from the root of an rgpdos checkout:

    python3 perfbench/run.py --workload rights --seed 1 --seconds 15 --trace 0

The benchmark is built from source with dune (release profile, shared
cache off, so nothing is written outside the checkout), then run with the
same arguments.  Its last line of output is the result as JSON; the exit
code is the benchmark's own.  Outside an rgpdos checkout it exits with
code 2 without building or printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")


def in_checkout():
    try:
        with open("dune-project") as f:
            project = f.read()
    except OSError:
        return False
    return "(name rgpdos)" in project and os.path.isdir(os.path.join("lib", "rgpdos"))


def main():
    if not in_checkout():
        print("perfbench: run from the root of an rgpdos checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/bin/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
