#!/usr/bin/env python3
"""Build and run the DataMPI benchmark.

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 20 --trace 0

The benchmark is a Go module (perfbench/) that builds against the
repository's own module through a replace directive. This script builds it
into .bench_build/ at the repository root, with the Go build cache, the Go
temp dir and the benchmark's temporary data all under that directory, runs the
binary with the given arguments, and passes its output and exit code through.
It exits non-zero without printing a result when the build fails, for
instance when the repository's sources are not next to perfbench/.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 850
# A run measures at most 60 s plus a few seconds of set-up; the binary
# bounds every operation itself, so this is only a backstop.
RUN_TIMEOUT_S = 175


def go_env(tmp):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def main():
    tmp = os.path.join(BUILD, "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        env = go_env(tmp)
        binary = os.path.join(BUILD, "perfbench")
        try:
            build = subprocess.run(
                ["go", "build", "-o", binary, "."],
                cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return 2
        if build.returncode != 0:
            sys.stderr.write(build.stdout.decode(errors="replace"))
            print("perfbench: build failed", file=sys.stderr)
            return 2
        proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
