#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the root of an antlrkit checkout:

    python3 e2ebench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Workloads: corpus, backtrack-stream.  The last line of standard
output is the JSON result; --trace 1 reports per-layer metrics instead of
end-to-end ones and writes the spans to e2ebench/_out/.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
        and os.path.isdir(os.path.join(root, "e2ebench"))
    ):
        sys.stderr.write(
            "e2ebench: not at the root of an antlrkit checkout "
            "(dune-project, lib/ and e2ebench/ are needed)\n"
        )
        return 2
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./e2ebench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("e2ebench: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write("e2ebench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "e2ebench", "main.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
