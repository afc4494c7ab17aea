"""Repeat the benchmark over ten seeds and summarise each metric.

    python3 bench/repeat.py

Run from the repository root. Runs ``bench/run.py --trace 0`` once per
workload of ``BENCHMARK.json`` and seed 1 to 10, one run at a time, for the
``run_seconds`` it names. Prints per workload and metric the median of the
runs and the distance between their first and third quartiles as a share
of the median (``statistics.quantiles(values, n=4)``), plus the share of
failed operations. These are the figures quoted in ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = str(spec["run_seconds"])

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed share {sorted(shares)}", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.3f}" if med else "n/a"
            else:
                spread = "n/a"
            print(f"  {name:48s} median {med:<12.6g} iqr/median {spread}",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
