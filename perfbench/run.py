#!/usr/bin/env python3
"""Runs one workload of the paper-scale benchmark.

    python3 perfbench/run.py --workload serve-metr-la --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which builds the d2stgnn
library from src/) under .bench_build/, runs the workload in its own
process, relays everything it prints, and checks that the last line, the
JSON result, carries exactly the metrics BENCHMARK.json lists for the run's
kind (end_to_end untraced, per_layer traced). A traced run also prints its
tracing overhead: each end-to-end metric of the traced run minus the same
metric of the latest untraced run of that workload.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result, or None after logging why it is malformed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        log(f"last line is not JSON: {e}")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result keys {sorted(result)} are not correct/attempted/failed/metrics")
        return None
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        log(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
        return None
    return result


def tracing_overhead(workload, seed):
    """Lines comparing the traced run's end-to-end metrics with an untraced run."""
    traced_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace1.json")
    same_seed = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace0.json")
    candidates = [same_seed] if os.path.exists(same_seed) else sorted(
        glob.glob(os.path.join(OUT_DIR, f"{workload}-seed*-trace0.json")),
        key=os.path.getmtime)
    if not candidates or not os.path.exists(traced_path):
        return ["trace overhead: no untraced run of this workload to compare with"]
    with open(traced_path) as f:
        traced = json.load(f)
    with open(candidates[-1]) as f:
        untraced = json.load(f)
    lines = [f"trace overhead vs {os.path.basename(candidates[-1])}:"]
    overhead = {}
    for name, m in traced["end_to_end"].items():
        base = untraced["end_to_end"].get(name)
        if base is None:
            continue
        diff = m["value"] - base["value"]
        overhead[name] = diff
        rel = diff / base["value"] if base["value"] else float("nan")
        lines.append(f"  {name}: traced {m['value']:.4f} untraced {base['value']:.4f} "
                     f"{m['unit']} (diff {diff:+.4f}, {rel:+.1%})")
    traced["tracing_overhead"] = overhead
    with open(traced_path, "w") as f:
        json.dump(traced, f)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isdir("perfbench") or not os.path.isfile("BENCHMARK.json"):
        log("run from the repository root")
        return 2
    if not build():
        return 2
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log(f"workload failed with exit code {done.returncode}")
        return done.returncode or 1
    result = check_result(lines[-1], args.trace)
    body = lines[:-1]
    if args.trace:
        body += tracing_overhead(args.workload, args.seed)
    print("\n".join(body))
    if result is None:
        return 1
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
