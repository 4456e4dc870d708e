"""Run every workload on several seeds, then print the report.

    python3 bench/sweep.py --seeds 1-10

Runs `bench/run.py --trace 0` once per workload and seed (one at a time) with
the run_seconds of BENCHMARK.json, appends to a fresh results file, and prints
report.py's table for it.  Traced runs are `bench/run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from report import load, summarize  # noqa: E402
from run import BENCHMARK_JSON  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--results", default=os.path.join(".bench_out", "sweep.jsonl"))
    args = parser.parse_args(argv)

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(os.path.dirname(args.results) or ".", exist_ok=True)
    open(args.results, "w").close()
    for workload in BUILDERS:
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                 "--results", args.results],
                capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{workload} seed {seed}: exit {proc.returncode},"
                  f" {time.perf_counter() - start:.1f} s: {last[0][:160]}", flush=True)
    print(summarize(load(args.results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
