#!/usr/bin/env python3
"""Build the repository (release profile) and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_link --seed 1 --seconds 10 --trace 0

Workloads: sim_link, net_star, serve_sock (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer sweep.
The last line of standard output is the JSON result; build output goes
to standard error.  Exits non-zero, without a result, when the
repository is not there or does not build, and non-zero with a result
when an output check failed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sim_link", "net_star", "serve_sock")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ("./perfbench/main.exe", "./bin/mbac_serve.exe")


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    for needed in ("dune-project", "lib", "bin/mbac_serve.ml", "perfbench/dune"):
        if not os.path.exists(needed):
            fail(needed + " not found: run from the root of a checkout of the repository", 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 2)

    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release", *TARGETS],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed", 3)

    command = [
        "_build/default/perfbench/main.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", "_build/default/bin/mbac_serve.exe",
        "--reference", "perfbench/reference.json",
    ]
    sys.stdout.flush()
    # Its own process group, so the serve daemon it starts is stopped
    # with it even if the benchmark dies before shutting it down.
    proc = subprocess.Popen(command, env=env, start_new_session=True)

    def stop_group(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_group)
    signal.signal(signal.SIGINT, stop_group)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if code is None:
        fail("workload timed out", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
