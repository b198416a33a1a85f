#!/usr/bin/env python3
"""Build and run the benchmark for one workload, seed and mode.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs it with a time limit, adds a
host record (CPU count, CPU model, the share of CPU time stolen by the
hypervisor during the run) and prints the benchmark's result JSON as the last
line of standard output. Exits non-zero, without a result, when the build
fails, and with `correct: false` when the run fails or hangs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("social-read", "road-churn", "durable-service")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 850


def steal_ticks():
    """Total CPU ticks stolen by the hypervisor, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build(env):
    manifest = os.path.join("perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        return 2
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    data_dir = os.path.join(".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", data_dir,
    ]

    steal0, t0 = steal_ticks(), time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        out, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        out, code = "", None
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(data_dir))  # only if no other run uses it
        except OSError:
            pass
    wall = time.monotonic() - t0
    nproc = os.cpu_count() or 1
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK") / (wall * nproc)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if code is None or result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in lines[:-1]:
        print(line)
    host = {"nproc": nproc, "cpu_model": cpu_model(), "steal_share": steal, "wall_s": wall}
    print(json.dumps({"host": host}))
    if args.trace:
        result["metrics"]["host.steal_share"] = {"value": steal, "unit": "1"}
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
