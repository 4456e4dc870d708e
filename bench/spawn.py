"""Starts the benchmark's child jobs from a process that stays small.

    python3 bench/spawn.py    (started by run.py; requests on stdin)

Linux keeps a process's peak resident set across exec, so a job forked from
run.py would report run.py's own peak (some 25-30 MB: the package, the job
inputs, the references) whenever that is larger than the job's.  run.py
therefore starts this helper once and has it start every job.  One JSON
request per line on stdin, {"argv", "timeout", "stdout", "stderr"}, gets one
JSON reply per line on stdout, {"wall_s", "exit", "timed_out", "rss_mb"}.
A job is `python -m treeseries argv` with this process's environment; its
output goes to the two files named.  The helper ends at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv: list, timeout: float, stdout_path: str, stderr_path: str) -> dict:
    """Run `python -m treeseries argv`, kill it after `timeout` s, read its rusage."""
    start = time.perf_counter()
    with open(os.devnull, "rb") as stdin, open(stdout_path, "wb") as out, \
            open(stderr_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "treeseries", *argv], stdin=stdin,
                                stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "timed_out": proc.returncode < 0 and wall >= timeout,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(request["argv"], request["timeout"], request["stdout"],
                          request["stderr"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
