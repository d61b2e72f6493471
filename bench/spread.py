"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload exact-n8 --seeds 0-9 [--trace 0]

Runs are sequential.  For every metric it prints the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
the figure each end-to-end bound in BENCHMARK.json is compared with.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
