#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload table4_sweep --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. It compiles the library sources
under src/ together with the program in perfbench/src (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then
runs one workload. The program prints every metric by name with its
unit; its last stdout line is the one-line JSON result. The exit
status is the program's: 0 when every output check passed.

Workloads: table4_sweep, scheme_zoo_ftr, svc_read_mostly,
svc_write_overload (see perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("table4_sweep", "scheme_zoo_ftr", "svc_read_mostly",
             "svc_write_overload")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def configured_for(build, source):
    cache = os.path.join(build, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip() == source
    except OSError:
        pass
    return False


def build():
    """Configure (once per checkout) and build; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s/src: run from a repository "
            "checkout" % ROOT)
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    build = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not configured_for(build, BENCH_DIR):
        shutil.rmtree(build, ignore_errors=True)
        os.makedirs(build, exist_ok=True)
        cfg = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("cmake configure failed")
            return None
    made = subprocess.run(
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        log("build failed")
        return None
    return os.path.join(build, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny = the minimal inputs the tests use")
    ap.add_argument("--digests",
                    default=os.path.join(BENCH_DIR, "expected_digests.txt"),
                    help="recorded sweep digests (default: "
                         "perfbench/expected_digests.txt)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size,
           "--digests", os.path.abspath(args.digests),
           "--work-dir", work]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s; killed" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
