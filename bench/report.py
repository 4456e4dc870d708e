"""Print every end-to-end metric per workload, and its change against older results.

    python3 bench/report.py .bench_out/results.jsonl [--against old.jsonl]

Reads the run records run.py appends (one JSON object per line).  For each
workload it prints the median and quartiles of each end-to-end metric over the
untraced runs, with units, and the spread (quartile distance over median) next
to the bound BENCHMARK.json fixes.  With --against it adds the change of each
median against the older file.  Traced runs add a table of per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import MOVES  # noqa: E402
from run import metric_spec  # noqa: E402

# reported without a bound: failed_ratio is 0 on a healthy run, and speed is the
# machine's (calibration at reference speed over calibration in the run)
EXTRA = {"failed_ratio": "ratio", "speed": "ratio"}


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _series(records: list, workload: str, trace: int, name: str) -> list:
    out = []
    for r in records:
        if r["workload"] == workload and r["trace"] == trace:
            out.append(r[name] if name in EXTRA else r["metrics"][name])
    return out


def summarize(records: list, against=None) -> str:
    end_to_end = metric_spec("end_to_end")
    lines = []
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        if runs:
            seeds = sorted({r["seed"] for r in runs})
            tails = sorted({round(r["tail_percentile"], 1) for r in runs})
            jobs = sorted({r["attempted"] for r in runs})
            lines.append(f"== {workload}: {len(runs)} untraced runs, seeds {seeds}; jobs per run"
                         f" {jobs}; tail percentile {tails}")
            lines.append(f"   {'metric':<14}{'unit':>6}{'q1':>13}{'median':>13}{'q3':>13}"
                         f"{'spread':>9}{'bound':>7}" + (f"{'vs old':>10}" if against else ""))
            rows = [(m["name"], m["unit"], m["bound"]) for m in end_to_end]
            for name, unit, bound in rows + [(n, u, None) for n, u in EXTRA.items()]:
                q1, med, q3 = quartiles(_series(records, workload, 0, name))
                spread = (q3 - q1) / med if med else 0.0
                row = (f"   {name:<14}{unit:>6}{q1:>13.6g}{med:>13.6g}{q3:>13.6g}"
                       f"{spread:>9.3f}{'' if bound is None else bound:>7}")
                if against:
                    old = _series(against, workload, 0, name)
                    if old and statistics.median(old):
                        delta = med / statistics.median(old) - 1
                        row += f"{delta:>+10.3%}"
                    else:
                        row += f"{'n/a':>10}"
                lines.append(row)
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        if traced:
            lines.append(f"== {workload}: {len(traced)} traced runs (per-layer medians)")
            for m in metric_spec("per_layer"):
                name = m["name"]
                med = statistics.median(_series(records, workload, 1, name))
                lines.append(f"   {name:<26}{m['unit']:>6}{med:>14.6g}   moves: {MOVES[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", help="results files from run.py")
    parser.add_argument("--against", help="an older results file to compare medians with")
    args = parser.parse_args(argv)
    records = [r for path in args.results for r in load(path)]
    print(summarize(records, load(args.against) if args.against else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
