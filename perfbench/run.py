#!/usr/bin/env python3
"""Builds and runs the MLCask benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload merge_sharded --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload. The benchmark binary
spawns its own mlcask_server processes with their sockets under the build
directory, and stops them before it exits. The last stdout line is the JSON
result; build output and diagnostics go to stderr. Exits non-zero without a
result when the sources are missing, the build fails, or the run cannot
complete.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Child-side: SIGKILL the benchmark if run.py itself is killed."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "mlcask_server"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["merge_sharded", "history_mixed",
                                 "service_open"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("src/merge/merge_op.cc", "tools/mlcask_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"run from the root of an MLCask checkout ({needed} missing)")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    # Compiler and benchmark temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    build(build_dir)

    run_dir = os.path.join(build_dir, "run")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(
        trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--run-dir", run_dir, "--trace-file", trace_file]
    # The binary reaps its servers itself; servers die with it and it dies
    # with this script (PR_SET_PDEATHSIG), so a kill leaves nothing behind.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True, preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
