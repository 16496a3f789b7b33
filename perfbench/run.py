#!/usr/bin/env python3
"""Build the timing benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload btrace-replay --seed 1 --seconds 20 --trace 0

Builds perfbench/bin/main.exe with dune (the repository's libraries are
compiled from the same checkout), runs it with the given arguments and
a private scratch directory under .perfbench-work/, and removes that
directory afterwards. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
WORK_ROOT = ".perfbench-work"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(needs dune-project and lib/)", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/bin/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        run = subprocess.run([EXE, *sys.argv[1:], "--work", work],
                             timeout=RUN_TIMEOUT_S)
        return run.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
