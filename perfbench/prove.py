"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads A,B] [--runs 10] [--first-seed 1]

Runs `run.py --trace 0` once per seed and workload, from the current
directory, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile of the runs
(statistics.quantiles with n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  The last line is the whole summary,
with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    options = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload in options.workloads.split(","):
        values: dict = {}
        failed = 0
        for seed in range(options.first_seed, options.first_seed + options.runs):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-1000:]}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {name: {"median": statistics.median(vals),
                       "spread": spread(vals), "bound": bounds.get(name),
                       "values": vals}
                for name, vals in values.items()}
        summary[workload] = {"failed": failed, "metrics": rows}
        print(f"{workload}: {options.runs} runs, {failed} failed operations")
        for name, row in rows.items():
            print(f"  {name:<12} median {row['median']:<12.6g} spread "
                  f"{row['spread']:.4f} (bound {row['bound']})")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
