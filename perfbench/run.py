#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script builds the benchmark driver
(perfbench/driver.ml, linked against the repository's libraries) from
source with dune, runs it, checks that its last output line is a result
object carrying exactly the metrics BENCHMARK.json declares for the mode
(--trace 0: end_to_end, --trace 1: per_layer), and prints that line.  It
exits non-zero without printing a result when the sources or the
toolchain are missing, the build fails, or the driver fails or overruns.
The workloads are described in driver.ml.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(ROOT, "_build", "default", "perfbench", "driver.exe")
WORKLOADS = ("study", "cold-repair", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project in %s: the benchmark builds the repository "
             "from source" % ROOT)
    # no shared dune cache: every build product stays in the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/driver.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("the build overran %d s" % BUILD_TIMEOUT_S)
    if done.returncode != 0:
        fail("the build failed")


def run_driver(args):
    proc = subprocess.Popen(
        [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # the driver stops its daemon and workers itself; this only
        # catches what a crashed or overrunning driver left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if out is None:
        fail("the driver overran %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("the driver exited with status %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("the driver printed no result")
    return lines[-1]


def check(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        fail("the result line is not JSON: " + line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has the wrong keys: " + line)
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != {m["name"]: m["unit"] for m in declared}:
        fail("the result's metrics differ from BENCHMARK.json: " + line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    build()
    line = run_driver(args)
    check(line, args.trace == 1)
    print(line, flush=True)


if __name__ == "__main__":
    main()
