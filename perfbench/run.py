#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark run.

    python3 perfbench/run.py --workload tpch_warm --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench; saved extracts and span files go beside it. Every
argument is passed on to the binary (see perfbench/README.md); the engine's
pool gets one worker fewer than the vCPUs (TDE_WORKERS). The build log
goes to stderr, so the last stdout line is the binary's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def option(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        print("perfbench: the engine sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        exe = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    extra = ["--tmpdir", os.path.join(build_root, "tmp")]
    if option(args, "--trace") == "1" and option(args, "--spans") is None:
        spans = os.path.join(build_root, "spans")
        os.makedirs(spans, exist_ok=True)
        extra += ["--spans", os.path.join(spans, "%s-%s.json" % (
            option(args, "--workload"), option(args, "--seed")))]
    # The engine's pool defaults to one worker per vCPU, and the thread that
    # submits a task group helps drain it, so an import would run one thread
    # more than there are vCPUs. One fewer worker keeps every parallel phase
    # within the vCPUs (the stamp line prints the count).
    env = dict(os.environ)
    env["TDE_WORKERS"] = str(max(1, len(os.sched_getaffinity(0)) - 1))
    return subprocess.run([exe] + args + extra, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
