"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10

Every workload of BENCHMARK.json runs once per seed, for its
``run_seconds``.  For every workload and end-to-end metric this prints
the median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  A spread under a third of the bound is marked steady.
The summary is also written to
perfbench/out/spread-seed<first>-n<seeds>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} jobs failed", file=sys.stderr)
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            line = "  ".join(f"{n} {v[-1]:.4g}" for n, v in values.items())
            print(f"{workload} seed {seed} ({time.monotonic() - t0:.0f} s): {line}", flush=True)
        summary[workload] = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                            "spread": spread, "bound": m["bound"]}
            mark = "steady" if spread < m["bound"] / 3 else "NOT steady"
            print(f"  {workload:16s} {m['name']:12s} median {med:.5g} {m['unit']:3s} "
                  f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} bound {m['bound']} {mark}")
    out = HERE / "out" / f"spread-seed{args.first_seed}-n{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
