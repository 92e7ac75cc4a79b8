#!/usr/bin/env python3
"""Builds and runs the socs wall-clock benchmark (see README.md).

Run from the root of a socs source tree:

    python3 perfbench/run.py --workload sky_count --seed 1 --seconds 30 --trace 0

The first run configures and builds the program and the benchmark binary
(Release) under .bench_build/ (or $CARGO_TARGET_DIR); later runs only check
that the build is up to date. The binary's standard output is passed
through, so the last line is the run's JSON result; build logs and the
binary's diagnostics go to standard error. Spans of traced runs land in
.bench_out/. The durable workload's data directories live in a fresh
directory under .bench_out/ that is removed when the run ends, whatever
its outcome.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    """Returns the socs_perfbench binary's path, or None when the build fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no socs source tree at %s" % ROOT, file=sys.stderr)
        return None
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "socs_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true",
                    help="small inputs, for quick checks")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    data_root = tempfile.mkdtemp(prefix="data-", dir=out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--data-root", data_root]
    if args.short:
        cmd.append("--short")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
