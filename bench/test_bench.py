"""Tests of the benchmark itself; run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from check import Checker  # noqa: E402
from layers import MOVES  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, make_jobs  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _small(job: dict) -> dict:
    """The job with its size argument and reference cut down, to keep tests quick.
    Unequal pairs keep their cap, which must reach the first difference."""
    job = json.loads(json.dumps(job))
    argv, ref = job["argv"], job["ref"]
    for flag, limit in (("-n", 12), ("--cap", 12)):
        if flag in argv and "n" in ref:
            i = argv.index(flag) + 1
            n = min(int(argv[i]), limit)
            argv[i], ref["n"] = str(n), n
    return job


def _corrupt(job: dict, stdout: str) -> str:
    """A wrong answer in the job's own output format."""
    if job["ref"]["kind"] == "verdict":
        verdict = json.loads(stdout)
        if "values" in verdict:  # one value changed, still unequal to the other
            verdict["values"][1] = str(Fraction(verdict["values"][1]) + 1)
        else:
            verdict["n"] += 1
        return json.dumps(verdict)
    for i in range(len(stdout) - 1, -1, -1):  # the last nonzero digit of the output
        if stdout[i].isdigit() and stdout[i] != "0":
            return stdout[:i] + str(int(stdout[i]) - 1) + stdout[i + 1:]
    raise AssertionError("no digit to corrupt")


def _jobs(tmp_path, workload, seed=3):
    return [_small(j) for j in make_jobs(workload, seed, str(tmp_path / workload))]


@pytest.mark.parametrize("workload", ["enumerate", "decide", "build"])
def test_outputs_pass_and_corrupted_outputs_fail(tmp_path, workload):
    checker = Checker()
    kinds = set()
    for job in _jobs(tmp_path, workload):
        result = run._in_process(job)
        assert result["exit"] == 0, (job["id"], result["stdout"])
        assert checker.check(job, result["stdout"]) is None, job["id"]
        if job["ref"]["kind"] in ("automaton", "hadamard"):
            continue  # corrupted separately below: a digit in JSON may be a no-op
        assert checker.check(job, _corrupt(job, result["stdout"])) is not None, job["id"]
        kinds.add(job["ref"]["kind"])
    assert kinds


def test_corrupted_automaton_is_caught(tmp_path):
    checker = Checker()
    for job in _jobs(tmp_path, "build"):
        if job["ref"]["kind"] not in ("automaton", "hadamard"):
            continue
        payload = json.loads(run._in_process(job)["stdout"])
        for entries in payload["weights"].values():
            for cell in entries["entries"]:
                if not cell["row"]:  # double the nullary weights, so a_0 doubles
                    cell["value"] = str(2 * Fraction(cell["value"]))
        assert checker.check(job, json.dumps(payload)) is not None, job["id"]


def test_equal_differ_at_values_are_caught(tmp_path):
    (job,) = [j for j in _jobs(tmp_path, "decide") if j["ref"]["verdict"] == "differ_at"]
    verdict = json.loads(run._in_process(job)["stdout"])
    verdict["values"][1] = verdict["values"][0]
    assert Checker().check(job, json.dumps(verdict)) is not None


def test_wrong_verdict_is_caught():
    checker = Checker()
    job = {"ref": {"kind": "verdict", "verdict": "zero_up_to", "n": 12}}
    assert checker.check(job, '{"verdict": "zero_up_to", "n": 12, "bound": {}}') is None
    assert checker.check(job, '{"verdict": "zero_up_to", "n": 11, "bound": {}}')
    assert checker.check(job, '{"verdict": "nonzero_at", "n": 3, "witness": "1"}')
    assert checker.check(job, "Traceback (most recent call last):")


def test_timeout_kills_the_child():
    env = run._child_env(os.path.join(ROOT, "src"))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with run.Spawner(env) as spawner:
        result = spawner.run(["series", "-a", "samples/bell.json", "-n", "100000"], 1.0)
    assert result["timed_out"] and result["exit"] < 0
    assert result["wall_s"] < 10
    assert run._failure(result, Checker(), {"id": "x"}, {}).startswith("killed")


def test_peak_rss_is_the_jobs_own():
    """Linux keeps the peak resident set across exec; a job started from a
    large benchmark process must still report only its own."""
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    env = run._child_env(os.path.join(ROOT, "src"))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with run.Spawner(env) as spawner:
        result = spawner.run(["--help"], 60.0)
    assert result["exit"] == 0 and result["rss_mb"] < 100
    del ballast


def test_tail_keeps_ten_jobs_beyond():
    walls = [float(i) for i in range(1, 41)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == 75.0


def test_tracer_restores_originals_and_counts_repeat(tmp_path):
    from treeseries import cli, decide, series

    before = (cli._BINARY_OPS["ts-add"], decide.CoefficientStream.up_to,
              decide.check_zero_genfun, series.generating_prefix, cli.main)
    jobs = _jobs(tmp_path, "decide")[:6]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert cli._BINARY_OPS["ts-add"] is not before[0]
            assert decide.check_zero_genfun is not before[2]
            for job in jobs:
                tracer.job = job["id"]
                run._in_process(job)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        assert metrics["decide.coeffs_scanned"] > 0 and metrics["series.compositions"] > 0
        assert all(s[2] >= s[1] for s in tracer.spans)
    assert counts[0] == counts[1]
    assert before == (cli._BINARY_OPS["ts-add"], decide.CoefficientStream.up_to,
                      decide.check_zero_genfun, series.generating_prefix, cli.main)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, "j"], ["b", 1.0, 4.0, 0, "j"], ["b", 5.0, 6.0, 0, "j"]]
    times = tracer.self_times()
    assert times["a"] == 6.0 and times["b"] == 4.0


def test_benchmark_json_matches_the_code():
    with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(BUILDERS)
    assert [m["name"] for m in bench["per_layer"]] == list(MOVES)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])


def test_every_layer_metric_is_measured(tmp_path):
    """Each per-layer metric of BENCHMARK.json is nonzero on some workload, so a
    misspelt name cannot read as an untouched count."""
    seen = set()
    for workload in BUILDERS:
        tracer = Tracer()
        tracer.install()
        try:
            for job in _jobs(tmp_path, workload):
                tracer.job = job["id"]
                assert run._in_process(job)["exit"] == 0, job["id"]
        finally:
            tracer.uninstall()
        seen |= {name for name, value in tracer.metrics().items() if value}
    names = {m["name"] for m in run.metric_spec("per_layer")}
    assert names - seen == {"trace.untraced_s", "trace.overhead_ratio"}


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(run.BenchError):
        run._import_package(str(tmp_path))
