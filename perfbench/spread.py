#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each end-to-end
metric's median and quartile spread.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10 [--seconds 10] [--trace 0]

Run it from the repository root after building the benchmark once
(`cargo build --release --manifest-path perfbench/Cargo.toml`). The
spread of a metric is (Q3 - Q1) / median over the runs, with quartiles
as `statistics.quantiles(values, n=4)` gives them; compare it with the
metric's `bound` in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = os.path.join(target, "release", "perfbench")

    values = {}
    for seed in seeds(args.seeds):
        cmd = [exe, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(out, file=sys.stderr)
            sys.exit(f"seed {seed}: incorrect run")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        bound = bounds.get(name, float("nan"))
        print(f"{name:<36} {med:>14.6g} {spread:>8.4f} {bound:>6}")


if __name__ == "__main__":
    main()
