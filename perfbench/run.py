#!/usr/bin/env python3
"""Build and run the Fig 13 campaign benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig13-fuzzy --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12   # every metric, every workload
    python3 perfbench/run.py --self-test                            # digest == runMonolithic

The program is built from the checkout's sources into .bench_build
(a Release build of the library targets the driver links).  The
driver's last stdout line is one JSON object
{correct, attempted, failed, metrics}; this script passes it through
and exits non-zero, printing no result, when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORKLOADS = ["fig13-fuzzy", "fig13-exhaustive", "fig13-fuzzy-serial"]


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, target)


def run_driver(exe, workload, seed, seconds, trace, echo):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stderr.write(done.stdout[-4000:])
        sys.stderr.write("perfbench: driver exited with %d and no result\n"
                         % done.returncode)
        sys.exit(1)
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode != 0:
        # A failed check: show the result, then fail the run.
        print(lines[-1])
        sys.exit(done.returncode)
    return lines[-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench")
    if args.workload != "all":
        last, _ = run_driver(exe, args.workload, args.seed, args.seconds,
                             args.trace, echo=True)
        print(last)
        return

    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_driver(exe, workload, args.seed, args.seconds,
                                   trace, echo=False)
            print("%s trace=%d correct=%s attempted=%d failed=%d" % (
                workload, trace, result["correct"], result["attempted"],
                result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))


if __name__ == "__main__":
    main()
