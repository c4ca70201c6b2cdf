#!/usr/bin/env python3
"""Builds the ccr benchmark from source and runs one workload.

    python3 perfbench/run.py --workload person-batch --seed 1 --seconds 10 --trace 0

The program is built (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, relative to the repository root.
The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics BENCHMARK.json lists (end_to_end with --trace 0,
per_layer with --trace 1), each with its unit. A traced run also writes
its spans to <build>/spans/<workload>-seed<N>.jsonl; perfbench/spans.py
turns that file into the layer table.

When perfbench/digests.json records a digest for the workload, seed and
mode (key "N" untraced, "N/trace" traced), the run's output digest must
equal it. --record-digest stores the run's digest there instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("person-batch", "nba-rounds", "nba-naive")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds ccr_perfbench; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "ccr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "ccr_perfbench"


def load_digests():
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "ccr.h").is_file() or \
            not spec_path.is_file():
        log(f"no ccr sources under {ROOT}; nothing to build")
        return 2
    spec = json.loads(spec_path.read_text())

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as err:
        log(str(err))
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (out / "spans").mkdir(exist_ok=True)
        cmd += ["--spans",
                str(out / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    detail = json.loads(lines[-1])

    failed = detail["failed"]
    digests = load_digests()
    key = f"{args.seed}/trace" if args.trace else str(args.seed)
    recorded = digests.get(args.workload, {}).get(key)
    if args.record_digest:
        digests.setdefault(args.workload, {})[key] = detail["digest"]
        (HERE / "digests.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n")
    elif recorded is not None and recorded != detail["digest"]:
        log(f"digest {detail['digest']} differs from the recorded {recorded}")
        failed += 1
    print(f"perfbench: digest={detail['digest']} "
          f"recorded={recorded or 'none'}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or in the wrong unit")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": detail["correct"] and failed == 0,
                      "attempted": detail["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
