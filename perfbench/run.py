#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/ under the
root; the first run configures and compiles (Release), later runs reuse it.
The last line of standard output is the JSON result of the run.

Every run also records the simulated results of (binary, workload, seed,
seconds) under .bench_build/simcache/; a later run of the same binary and
arguments, traced or not, must reproduce them byte for byte, or the run is
reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_BUILD, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    compile_ = ["cmake", "--build", CMAKE_BUILD, "-j4", "--target", "perfbench",
                "perfbench_selftest"]
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def sim_digest_check(binary, args, lines):
    """Compares this run's simulated results with an earlier run's."""
    digest = "\n".join(line for line in lines if line.startswith("sim ")) + "\n"
    with open(binary, "rb") as f:
        binary_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    cache = os.path.join(BUILD, "simcache")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "%s-%s-seed%d-s%s.txt" %
                        (binary_hash, args.workload, args.seed, args.seconds))
    if os.path.exists(path):
        with open(path) as f:
            return f.read() == digest
    with open(path, "w") as f:
        f.write(digest)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None or args.seconds <= 0):
        parser.error("--workload, --seed and --seconds are required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(CMAKE_BUILD, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)

    binary = os.path.join(CMAKE_BUILD, "perfbench")
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: the run printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if not sim_digest_check(binary, args, lines):
        lines.insert(-1, "note violation: simulated results differ from an earlier run "
                         "of this binary with the same arguments")
        result["correct"] = False
        result["failed"] += 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
