#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one of its workloads.

    python3 perfbench/run.py --workload gc-interference --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and compiles
perfbench/ (the simulator libraries from src/ plus the `zperf` driver)
into .bench_build/perfbench; later calls only check that build is current.

`zperf` prints human-readable lines and then one JSON object with every
metric it measured. This script passes the human lines through and ends
with one JSON line holding `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json lists: its `end_to_end` metrics with --trace 0, its
`per_layer` metrics with --trace 1. A per-layer metric of a layer the
workload does not exercise reads 0 and is named as such. The exit status
is 0 only when every correctness gate held.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not in this checkout")
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep the compiler's temporaries in the checkout
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", BUILD, "--target", "zperf",
                  "--parallel", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(BUILD, "zperf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    zperf = build()
    cmd = [zperf, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"zperf did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"zperf exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics, zeroed = {}, []
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                fail(f"zperf did not report {m['name']}")
            value = 0.0
            zeroed.append(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if zeroed:
        print("perfbench: reported as 0 (layer not exercised by this "
              "workload, or not measured as stated above): " +
              ", ".join(zeroed))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
