#!/usr/bin/env python3
"""Build and run the end-to-end CM transport benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bulk-1k --seed 1 --seconds 12 --trace 0

The benchmark is the Go program in this directory (module cmtos/perfbench,
which reaches the transport's internal packages through a replace of the
parent module). This launcher compiles it with every Go cache inside the
build directory ($CARGO_TARGET_DIR, default .bench_build), runs it with the
given arguments and passes its exit code on. The program prints its
results; the last line of standard output is one JSON object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the program bounds itself well inside this


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "GOTELEMETRY": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed (the benchmark needs the repository's Go module at ..)",
              file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--trace-dir", os.path.join(build, "traces")]
    try:
        ran = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
