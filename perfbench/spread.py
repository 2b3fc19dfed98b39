#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py <workload> <first-seed> <runs> [--seconds S] [--trace 0|1]

For every metric of the final JSON line it prints the median over the
runs, the interquartile distance as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and, for end-to-end
metrics, the bound from BENCHMARK.json. Run it from the repository root
after building with ``CARGO_TARGET_DIR=.bench_build cargo build --release
--offline --manifest-path perfbench/Cargo.toml``; it runs the built
binary, ``$CARGO_TARGET_DIR/release/perfbench`` (``.bench_build`` when
the variable is unset), directly.
"""

import json
import os
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    if len(args) < 3:
        sys.exit(__doc__)
    workload, first, runs = args[0], int(args[1]), int(args[2])
    seconds, trace = "30", "0"
    if "--seconds" in args:
        seconds = args[args.index("--seconds") + 1]
    if "--trace" in args:
        trace = args[args.index("--trace") + 1]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(target, "release", "perfbench")
    values = {}
    for seed in range(first, first + runs):
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", trace],
            check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: failed {result['failed']} of {result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{workload}: {runs} runs from seed {first}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE' if spread > bound else 'within'}"
        print(f"  {name:<36} median {med:<14.6g} spread {spread:.4f}{flag}")


if __name__ == "__main__":
    main()
