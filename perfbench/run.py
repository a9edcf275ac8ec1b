#!/usr/bin/env python3
"""Builds the benchmark and the llp_serve server from source, then runs one
benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both binaries are built offline into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the benchmark's JSON
result. The exit code is the benchmark's: nonzero on a failed build, a
failed correctness check, or a missing repository.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DATA_DIR = os.path.join(ROOT, ".bench_data")


def build(target_dir):
    """Builds both binaries into one directory; returns the benchmark's
    path or exits."""
    steps = [
        ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "llp_serve",
         "--bin", "llp_serve"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(target_dir, "release", "perfbench")


def stop_group(pgid):
    """Kills whatever is left of the benchmark's process group and waits
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no repository around " + BENCH_DIR)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bench = build(os.path.join(ROOT, target))
    # The benchmark runs in its own process group, so whatever it leaves
    # behind (a server, if it dies abnormally) is stopped here.
    proc = subprocess.Popen([bench] + sys.argv[1:], cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait()
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(DATA_DIR, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
