#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the checkout root. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. Traced runs write their spans to
<build dir>/traces/<workload>-seed<N>.json. --selftest runs the arithmetic
self-tests and checks that two traced runs at one seed print the same
exact-count digest and that the shadow counters equal the engine's.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flows_plain", "flows_scan_adaptive", "uniform_churn"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources at src/; run from a "
                         "full checkout\n")
        return False
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target"] + targets)
    for cmd in steps:
        code, _ = run(cmd, 850, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def bench(args, timeout=170, capture=False):
    cmd = [os.path.join(build_dir(), "perfbench")] + args
    if capture:
        return run(cmd, timeout, stdout=subprocess.PIPE, text=True)
    code, _ = run(cmd, timeout)
    return code, None


def selftest():
    if not build(["perfbench", "perfbench_selftest"]):
        return 1
    code, _ = run([os.path.join(build_dir(), "perfbench_selftest")], 170)
    if code != 0:
        return code
    failures = 0
    for workload in WORKLOADS:
        ok = True
        digests = []
        for _ in range(2):
            code, out = bench(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", "1"], capture=True)
            lines = out.splitlines()
            digest = [l for l in lines if l.startswith("digest ")]
            shadow = [l for l in lines if l.startswith("shadow counters ")]
            digests.append(digest[0] if digest else None)
            if code != 0 or not shadow or "equal" not in shadow[0].split()[2]:
                sys.stderr.write("FAIL %s: exit %d, %s\n" %
                                 (workload, code, shadow or "no shadow line"))
                ok = False
        if digests[0] is None or digests[0] != digests[1]:
            sys.stderr.write("FAIL %s: digests differ: %s\n" % (workload, digests))
            ok = False
        if ok:
            sys.stderr.write("ok   %s: %s, shadow counters equal\n" %
                             (workload, digests[0]))
        else:
            failures += 1
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench"]):
        return 1
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        bench_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    code, _ = bench(bench_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
