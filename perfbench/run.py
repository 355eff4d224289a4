#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload edit_small --seed 1 --seconds 10 --trace 0

The OCaml program (perfbench/perfbench.exe) does the work; this wrapper
builds it with dune (the shared dune cache off, so the build reads and
writes only inside the checkout), then runs it with the same arguments,
pinned to one CPU, and passes its exit code on.  Its stdout ends with
the JSON result.

The pin: the program runs one OCaml domain, so its threads take turns
anyway, and on a small VM a request handed between threads on two
vCPUs waits for the idle one to be woken by the host.  Keeping the
client and server threads on one CPU keeps that wake-up out of every
latency (NOTES.md).
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cpu = min(os.sched_getaffinity(0))
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=175,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
