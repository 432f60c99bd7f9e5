#!/usr/bin/env python3
"""Run one benchmark workload; see README.md in this directory.

    python3 mgxbench/run.py --workload grid --seed 11 --seconds 30 --trace 0

Run from the repository root. Builds the simulator and the mgxbench program
(Release, asserts compiled out) into .bench_build/mgxbench on first use,
then runs that program, whose last output line is the result JSON.
--selftest builds and runs the benchmark's unit tests instead.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("grid", "cell_bp", "cell_mgx", "serve")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"mgxbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    """Configure once, then bring the targets up to date (quietly)."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DMGX_KEEP_ASSERTS=OFF"])
        steps.append(["cmake", "--build", build_dir, "-j", "4",
                      "--target", *targets])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=850) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)  # relative paths keep unix socket names short

    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.h")):
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    build_dir = os.path.join(ROOT, ".bench_build", "mgxbench")
    mgx_bin = os.path.join(build_dir, "mgx", "examples")

    if args.selftest:
        build(build_dir, ["mgxbench_test"])
        sys.exit(subprocess.call([os.path.join(build_dir, "mgxbench_test")]))
    if args.workload is None:
        fail("--workload is required")

    build(build_dir, ["mgxbench", "mgx_serve", "mgx_fleet"])
    run_dir = ".bench_run"
    work_dir = os.path.join(run_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "mgxbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digest", os.path.join(HERE, "digest.tsv"),
           "--work-dir", work_dir,
           "--serve-binary", os.path.join(mgx_bin, "mgx_serve"),
           "--fleet-binary", os.path.join(mgx_bin, "mgx_fleet")]
    # Own process group, so a timeout can kill mgxbench and the fleet it
    # started together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("mgxbench timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail(f"mgxbench exited with {proc.returncode}")
    # Keep the host/build line with the result for later reference.
    with open(os.path.join(run_dir, "results.jsonl"), "a") as f:
        f.write(lines[-2] + "\n" + lines[-1] + "\n")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
