"""The treeseries benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With --trace 0 every job is a fresh
`python -m treeseries ...` child (one client, one job at a time, closed
loop), started by the small helper spawn.py; the end-to-end metrics come
from those runs.  With --trace 1 the same
job list runs in this process through `treeseries.cli.main(argv)`: once
untraced and once with the wrappers of tracing.py installed, which gives the
per-layer metrics and the tracing overhead.

A run repeats the workload's round (one seeded job list) a fixed number of
times, chosen from --seconds and the round's nominal length (workloads.py),
so a seed always gives the same jobs and the same job count; no job starts
once 15 s more than --seconds has been spent in jobs.  Set-up time is sampled
by no-work starts before the loop and between jobs, so it sees the same
machine state as the jobs; that time is not job time.

On a shared host the speed at which the machine runs Python moves by up to
40% for seconds to minutes, for every process alike.  So every child is
started right after calibration_task(), a fixed pure-Python task that runs
no treeseries code, and the time metrics are wall times at reference speed:
each child's wall time times CALIBRATION_S over the median calibration
around it.  A change to the program cannot move the calibration; the
unscaled wall-time figures are printed and stored next to the metrics.
Outputs are checked after the timed loop.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; a full
record (header, job list, per-job results) is appended to
.bench_out/results.jsonl and spans are written next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import Checker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, make_jobs, rounds_for  # noqa: E402

OUT_DIR = ".bench_out"
JOB_TIMEOUT_S = 45.0
GRACE_S = 15.0  # no job starts once job time is this far past --seconds
SETUP_SAMPLES = 5  # no-work starts before the loop, then one after every SETUP_EVERY jobs
SETUP_EVERY = 4
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
CALIBRATION_S = 0.058  # what calibration_task() takes at reference speed (see below)
SPEED_WINDOW = 5  # a child's time is scaled by the calibrations of 2 * 5 + 1 children
BENCHMARK_JSON = os.path.join(HERE, "..", "BENCHMARK.json")


def metric_spec(kind: str) -> list:
    """The `end_to_end` or `per_layer` entries of BENCHMARK.json: name, unit, ..."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)[kind]


class BenchError(Exception):
    """The benchmark cannot run here: no package source under the working
    directory, or the job spawner died."""


# ---------------------------------------------------------------------------
# environment


def _import_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "treeseries", "__init__.py")):
        raise BenchError(f"no treeseries package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import treeseries

    if not os.path.abspath(treeseries.__file__).startswith(src + os.sep):
        raise BenchError(f"imported treeseries from {treeseries.__file__}, not from {src}")
    return src


def header(root: str) -> dict:
    """What identifies a run: code, interpreter, machine and its load at start."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "treeseries")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = "unknown"
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            rev = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# one child job


def calibration_task() -> float:
    """Wall time of a fixed pure-Python task that touches no treeseries code:
    exact rationals, big-integer products and dict updates, the kinds of work
    the jobs do, then some 10 MB of such objects built and freed, as a job's
    heap is.  Timed between jobs, it measures how fast the machine runs
    Python at that moment."""
    start = time.perf_counter()
    for _ in range(12):
        total, table, acc = Fraction(0), {}, 1
        for k in range(1, 260):
            total += Fraction(k % 7 + 1, k * k + 1)
            acc = acc * (k + 3) % (1 << 521) + total.denominator % 1009
            key = (k * 31) % 211
            table[key] = table.get(key, 0) + acc % 97
    items = [Fraction(k, k % 13 + 1) for k in range(20000)]
    rows = {k: [k, k * k] for k in range(20000)}
    sum(items[::7], Fraction(len(rows)))
    del items, rows
    return time.perf_counter() - start


class Spawner:
    """The helper process (spawn.py) that starts every child job, so a job's
    peak resident set is its own and not this process's.  Used as a context
    manager: on the way out it ends the helper and waits for it; on an error
    it kills the helper's process group first, a running job included."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawn.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                                      text=True, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self._proc.stdin.close()
        if exc_type is not None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self._proc.pid, signal.SIGKILL)
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list, timeout: float) -> dict:
        """Run `python -m treeseries argv` to its end; wall time, exit, rusage, output."""
        paths = {"stdout": os.path.join(OUT_DIR, "child.stdout"),
                 "stderr": os.path.join(OUT_DIR, "child.stderr")}
        self._proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout, **paths}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise BenchError(f"the job spawner ended with exit code {self._proc.wait()}")
        result = json.loads(reply)
        for name, path in paths.items():
            with open(path, encoding="utf-8", errors="replace") as fh:
                result[name] = fh.read()
        result["stderr"] = result["stderr"][-400:]
        return result


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# runs


def _failure(result: dict, checker, job: dict, verdicts: dict):
    """Why a job failed, or None; outputs repeated across rounds are checked once."""
    if result.get("timed_out"):
        return f"killed after the {JOB_TIMEOUT_S:.0f} s job timeout"
    if result["exit"] != 0:
        return f"exit {result['exit']}: {result['stderr'].strip()[-200:]}"
    key = (job["id"], hashlib.sha256(result["stdout"].encode()).hexdigest())
    if key not in verdicts:
        verdicts[key] = checker.check(job, result["stdout"])
    return verdicts[key]


def tail(walls: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_untraced(jobs: list, rounds: int, seconds: float, spawner, checker) -> dict:
    calibrations = []

    def timed_child(argv):
        """A child started right after a calibration, which it remembers."""
        calibrations.append(calibration_task())
        result = spawner.run(argv, JOB_TIMEOUT_S)
        result["calibration"] = len(calibrations) - 1
        return result

    def at_reference_speed(result):
        """The child's wall time scaled by the machine's speed around it: the
        median of the calibrations within SPEED_WINDOW children on either side."""
        i = result["calibration"]
        local = statistics.median(calibrations[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        return result["wall_s"] * CALIBRATION_S / local

    timed_child(["--help"])  # the first start writes bytecode caches
    setups = [timed_child(["--help"]) for _ in range(SETUP_SAMPLES)]

    records = []
    job_s = 0.0  # time spent inside jobs, the measured time
    for round_index in range(rounds):
        for job in jobs:
            if job_s > seconds + GRACE_S:
                break
            result = timed_child(job["argv"])
            result["id"], result["round"] = job["id"], round_index
            records.append((job, result))
            job_s += result["wall_s"]
            if len(records) % SETUP_EVERY == 0:
                setups.append(timed_child(["--help"]))

    verdicts = {}
    for job, result in records:
        result["failure"] = _failure(result, checker, job, verdicts)
        result["reference_s"] = at_reference_speed(result)
    walls = [r["reference_s"] for _, r in records]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "jobs_per_s": len(records) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(at_reference_speed(s) for s in setups),
        "peak_rss_mb": max(r["rss_mb"] for _, r in records),
    }
    failed = sum(1 for _, r in records if r["failure"])
    return {
        "metrics": metrics,
        "wall_metrics": {
            "jobs_per_s": len(records) / job_s,
            "job_p50_s": statistics.median(r["wall_s"] for _, r in records),
            "setup_s": statistics.median(s["wall_s"] for s in setups),
        },
        "speed": CALIBRATION_S / statistics.median(calibrations),
        "attempted": len(records),
        "failed": failed,
        "failed_ratio": failed / len(records),
        "job_s": job_s,
        "tail_percentile": tail_pct,
        "setup_samples_s": [s["wall_s"] for s in setups],
        "calibrations_s": calibrations,
        "results": [{k: v for k, v in r.items() if k != "stdout"} for _, r in records],
    }


def _in_process(job: dict) -> dict:
    from treeseries import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code, out = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return {"id": job["id"], "wall_s": time.perf_counter() - start, "exit": code,
            "stdout": out.getvalue(), "stderr": ""}


def run_traced(jobs: list, checker, spans_path: str) -> dict:
    """Each job twice in a row, untraced and traced, the order alternating from
    job to job, so drift in machine speed and warm caches cancel out of the
    overhead."""
    verdicts = {}
    records = []
    untraced_s = traced_s = 0.0
    tracer = Tracer()
    for index, job in enumerate(jobs):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.job = job["id"]
                tracer.install()
                try:
                    result = _in_process(job)
                finally:
                    tracer.uninstall()
                traced_s += result["wall_s"]
            else:
                result = _in_process(job)
                untraced_s += result["wall_s"]
            result["traced"] = traced
            records.append((job, result))

    for job, result in records:
        result["failure"] = _failure(result, checker, job, verdicts)
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump_spans(), fh)
    failed = sum(1 for _, r in records if r["failure"])
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "failed_ratio": failed / len(records),
        "traced_s": traced_s,
        "results": [{k: v for k, v in r.items() if k != "stdout"} for _, r in records],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=os.path.join(OUT_DIR, "results.jsonl"),
                        help="JSON-lines file the full run record is appended to")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        src = _import_package(root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"header": header(root), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    workdir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = make_jobs(args.workload, args.seed, workdir)
    record["jobs"] = jobs
    digest = record["header"]["src_sha256"][:16]
    checker = Checker(os.path.join(OUT_DIR, f"references-{digest}.json"))

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.json")
        outcome = run_traced(jobs, checker, spans_path)
    else:
        rounds = rounds_for(args.workload, args.seconds)
        record["rounds"] = rounds
        with Spawner(_child_env(src)) as spawner:
            outcome = run_untraced(jobs, rounds, args.seconds, spawner, checker)
    checker.save()
    spec = metric_spec("per_layer" if args.trace else "end_to_end")
    outcome["metrics"] = {m["name"]: outcome["metrics"][m["name"]] for m in spec}
    record.update(outcome)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for r in outcome["results"]:
        if r["failure"]:
            print(f"FAILED {r['id']}: {r['failure']}")
    if not args.trace:
        wall = outcome["wall_metrics"]
        print(f"{outcome['attempted']} jobs in {rounds} round(s);"
              f" tail = p{outcome['tail_percentile']:.1f} of {outcome['attempted']} jobs;"
              f" failed_ratio {outcome['failed_ratio']:.4f}; machine speed"
              f" {outcome['speed']:.3f} of reference; unscaled wall:"
              f" {wall['jobs_per_s']:.4g} jobs/s, job p50 {wall['job_p50_s']:.4g} s,"
              f" setup {wall['setup_s']:.4g} s")
    metrics = {m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec}
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
