#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

Usage (from the repository root):

    python3 perfbench/run.py --workload fill-eps01 --seed 1 --seconds 30 --trace 0

The Go program is compiled from the checkout's sources into the build
directory (CARGO_TARGET_DIR when set, else .bench_build), with the Go build
and module caches, temporary files and Go's own configuration kept inside
that directory and the module proxy switched off: a run writes only inside
the checkout, and reads outside it only the Go toolchain and the host's CPU
description and counters (/proc/cpuinfo, /proc/stat,
/sys/devices/system/cpu). The compiled binary
then replaces this process and receives the arguments unchanged; its last
line of standard output is the JSON result. A failed build exits with
status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp_dir,
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed (the benchmark needs the repository sources "
              "next to its own directory)", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.chdir(root)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
