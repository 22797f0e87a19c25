#!/usr/bin/env python3
"""Entry point of the TT-Rec end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload train_tt --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/ and
bench/harness.cc) into .bench_build/ on first use, runs one workload, and
prints the result JSON as the last line of standard output. With --trace 1
it first repeats the untraced run with the same seed, so the traced run can
report what its probes cost (obs.trace_overhead_pct).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ttrec_perfbench")
WORKLOADS = ("train_tt", "train_cached_shift", "serve_steady", "serve_overload")
# Budget for the measured runs of one invocation (the build is not counted).
RUN_BUDGET_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures on first use, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no TT-Rec sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ttrec_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def source_id():
    """The git commit when the tree is a git checkout, else a source digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_binary(args, trace, workdir, deadline, out):
    """Runs one measurement; echoes its output to `out`, returns the result."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", workdir, "--commit", source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run exceeded its time budget")
        sys.exit(1)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        log(f"benchmark exited with code {proc.returncode}")
        sys.exit(proc.returncode or 1)
    for line in lines[:-1]:
        print(line, file=out)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            untraced = run_binary(args, 0, workdir, deadline, sys.stderr)
            result = run_binary(args, 1, workdir, deadline, sys.stdout)
            base = untraced["metrics"]["latency_p50_us"]["value"]
            traced = result["metrics"]["obs.latency_p50_us"]["value"]
            result["metrics"]["obs.trace_overhead_pct"] = {
                "value": 100.0 * (traced / base - 1.0), "unit": "%"}
        else:
            result = run_binary(args, 0, workdir, deadline, sys.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
