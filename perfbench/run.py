#!/usr/bin/env python3
"""Builds the program in Release and runs one benchmark workload.

    python3 perfbench/run.py --workload paper-insert --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload paper-insert --seed 1 --nmf

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake; the benchmark's own CMakeLists.txt compiles the repo's library and
grb_daemon from the parent source tree). The last line of standard output
is one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json lists for the mode (--trace 0: end_to_end, --trace 1:
per_layer). The exit status is nonzero when the build fails, a check of the
program's outputs fails, or a metric is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the given targets; False on failure."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_child(cmd):
    """Runs a child in its own process group (so a timeout also stops the
    daemon it spawned); returns (exit code, stdout). SIGTERM or SIGINT to
    this process stops the group too, and waits for the child, before
    exiting."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"stopped by signal {signum}")
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="engine-phase length (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own test")
    ap.add_argument("--nmf", action="store_true",
                    help="reference figures: NMF Incremental on the stream")
    args = ap.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not build(["perfbench_driver", "grb_daemon"]):
        log("build failed")
        return 1

    cmd = [str(BUILD / "perfbench_driver"), f"--workload={args.workload}",
           f"--seed={args.seed}"]
    if args.nmf:
        code, out = run_child(cmd + ["--nmf"])
        sys.stdout.write(out)
        return code
    socket = f".bench_build/perfbench-{os.getpid()}.sock"
    cmd += [f"--seconds={args.seconds}", f"--trace={args.trace}",
            f"--daemon={BUILD / 'grb' / 'tools' / 'grb_daemon'}",
            f"--socket={socket}", f"--t-spawn-ns={time.monotonic_ns()}"]
    try:
        code, out = run_child(cmd)
    finally:
        (ROOT / socket).unlink(missing_ok=True)
    lines = out.strip().splitlines()
    if not lines:
        log(f"driver exited {code} without a result")
        return code or 1
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        log(f"driver did not report {', '.join(missing)}")
        return 1
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in wanted}
    print(json.dumps(result), flush=True)
    return code if code else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
