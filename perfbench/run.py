#!/usr/bin/env python3
"""Build and run the TCNI simulator benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the benchmark package (release, offline) into
$CARGO_TARGET_DIR, default `.bench_build`, runs one workload and passes its
output through; the last line is the JSON result. `--smoke` runs every
workload of BENCHMARK.json at tiny sizes, traced and untraced, and checks
each result against the metric names and units BENCHMARK.json declares.
Exits non-zero, without printing a result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    # Cargo reports on stderr; stdout stays the benchmark's own.
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(target, "release", "tcni-perfbench")


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(binary, argv, capture):
    cmd = [binary, *argv, "--commit", commit()]
    return subprocess.run(cmd, cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            out = run(binary, ["--workload", w["name"], "--seed", "7", "--seconds", "0",
                               "--trace", trace, "--smoke"], capture=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            where = f"{w['name']} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {want}")
            if trace == "0":
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                if zero:
                    problems.append(f"{where}: end-to-end metrics not positive: {zero}")
            print(f"smoke {where}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for p in problems:
        print(f"smoke FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    try:
        binary = build()
        if a.smoke and a.workload is None:
            return smoke(binary)
        if a.workload is None:
            p.error("--workload is required unless --smoke is given alone")
        argv = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
                "--trace", a.trace] + (["--smoke"] if a.smoke else [])
        run(binary, argv, capture=False)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
