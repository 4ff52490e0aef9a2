#!/usr/bin/env python3
"""Runs the repository benchmark: registry -> label -> tree -> served reply.

    python3 repobench/run.py --workload sweep_cold --seed 1 --seconds 35 --trace 0
    python3 repobench/run.py                # every workload, one table

The benchmark is a Rust crate next to this script. It is built here (release,
offline) into $CARGO_TARGET_DIR, or repobench/target when unset. Each
workload runs in its own process, so its peak RSS is its own. With
--workload the last stdout line is that process's JSON result; without it,
every workload runs in turn and a table of every metric is printed. The exit
code is non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["sweep_cold", "train_eval", "serve_open"]
WARM_WORKLOADS = {"train_eval", "serve_open"}
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns (binary, work directory)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("repobench: build failed")
    return target / "release" / "repobench", target / "repobench-work"


def run_one(binary, work, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, parsed result or None, raw line)."""
    dirs = ["--bench-dir", str(HERE), "--work-dir", str(work)]
    if workload in WARM_WORKLOADS:
        # Fill the sweep cache in a process of its own, so a cold fill on a
        # fresh checkout never lands in the measured process's peak RSS.
        prepare = [str(binary), "prepare", *dirs]
        if subprocess.run(prepare, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode:
            return 1, None, None
    cmd = [str(binary), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *dirs]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repobench: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None, None
    try:
        return proc.returncode, json.loads(lines[-1]), lines[-1]
    except json.JSONDecodeError:
        return proc.returncode or 1, None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary, work = build()
    if args.workload:
        code, result, line = run_one(binary, work, args.workload, args.seed,
                                     args.seconds, args.trace)
        if result is None:
            sys.exit(code or 1)
        print(line)
        sys.exit(code)

    failed = False
    rows = []
    for workload in WORKLOADS:
        code, result, _ = run_one(binary, work, workload, args.seed, args.seconds, args.trace)
        if result is None or code != 0 or not result["correct"]:
            failed = True
        if result is None:
            rows.append((workload, "(no result)", "", ""))
            continue
        share = result["failed"] / max(result["attempted"], 1)
        rows.append((workload, "error_share", f"{share:.6f}", "failed/attempted"))
        for name, m in result["metrics"].items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<11} {name:<{width}} {value:>14} {unit}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
