"""Tests of the benchmark itself: oracle check, tracing, workloads, command.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import child  # noqa: E402
import oracle  # noqa: E402
import run as run_py  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def short_run(name: str, seed: int = 7, trace: bool = False) -> child.Run:
    """A real closed-loop run with a tiny timed window."""
    workload = workloads.build(name, seed)
    clock = selector = None
    if trace:
        clock, selector = tracing.LayerClock(), tracing.IdleSelector()
    loop = asyncio.SelectorEventLoop(selector) if selector else asyncio.SelectorEventLoop()
    run = child.Run(workload, 0.3, clock, selector)
    try:
        run.window_data = loop.run_until_complete(run.main(False, lambda: None))
    finally:
        loop.close()
    return run


@pytest.fixture(scope="module")
def churn_run():
    return short_run("churn_chaos")


def verify(run: child.Run, outcomes=None):
    return oracle.verify(outcomes or run.outcomes, run.snapshots, run.workload.queries)


def test_clean_run_passes_the_oracle(churn_run):
    checked, mismatches = verify(churn_run)
    assert checked > 0
    assert mismatches == []
    assert churn_run.failed == 0
    assert len(churn_run.snapshots) > 1  # writes happened


def _tampered(run: child.Run, kind: str, change) -> oracle.Outcomes:
    """The run's outcomes with one *kind* outcome rewritten by *change*."""
    tampered = oracle.Outcomes()
    tampered.seen.update(run.outcomes.seen)
    key = next(k for k in run.outcomes.seen if k[2] == kind)
    tampered.seen[change(key)] += 1
    return tampered


def test_corrupted_confidence_fails_the_check(churn_run):
    def corrupt(key):
        version, excluded, kind, facts, values = key
        return (version, excluded, kind, facts, (values[0] + Fraction(1, 97),) + values[1:])

    _, mismatches = verify(churn_run, _tampered(churn_run, "conf", corrupt))
    assert len(mismatches) == 1
    assert "confidences" in mismatches[0]


def test_corrupted_answers_fail_the_check(churn_run):
    def drop_answer(key):
        version, excluded, kind, query_id, answers, downgraded = key
        return (version, excluded, kind, query_id, frozenset(list(answers)[1:]), downgraded)

    _, mismatches = verify(churn_run, _tampered(churn_run, "query", drop_answer))
    assert len(mismatches) == 1


def test_wrong_downgrade_fails_the_check(churn_run):
    degraded = [k for k in churn_run.outcomes.seen if k[2] == "query" and k[-1]]
    assert degraded, "crashing a sound source should downgrade answers"
    version, excluded, kind, query_id, answers, downgraded = degraded[0]
    tampered = oracle.Outcomes()
    tampered.seen[(version, excluded, kind, query_id, answers, frozenset())] += 1
    _, mismatches = verify(churn_run, tampered)
    assert len(mismatches) == 1


def test_unknown_snapshot_fails_the_check(churn_run):
    def future_version(key):
        return (max(churn_run.snapshots) + 1,) + key[1:]

    _, mismatches = verify(churn_run, _tampered(churn_run, "conf", future_version))
    assert any("unknown snapshot" in m for m in mismatches)


def test_traced_run_reports_every_layer_and_unwraps():
    from repro.confidence.engine import ConfidenceEngine

    original = ConfidenceEngine.__dict__["confidences"]
    run = short_run("query_graph", trace=True)
    assert ConfidenceEngine.__dict__["confidences"] is original
    metrics = child.per_layer(run, run.window_data)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    from_run_py = {"setup.import_s", "setup.build_s", "setup.first_response_s", "trace.overhead"}
    assert set(metrics) | from_run_py == {m["name"] for m in declared["per_layer"]}
    shares = [metrics[f"{layer}.share"] for layer in tracing.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["engine.share"] > 0
    assert metrics["service.batch_size_mean"] >= 1


def test_stepped_wrapper_times_only_running_stretches():
    clock = tracing.LayerClock()

    async def slow(x):
        await asyncio.sleep(0.05)
        return x * 2

    timed = tracing._async_wrapper(slow, clock, "resilience", "probe")
    assert asyncio.run(timed(21)) == 42
    assert clock.calls["probe"] == 1
    assert clock.inclusive["probe"] < 0.02  # the sleep is not busy time


def test_stepped_wrapper_propagates_errors():
    clock = tracing.LayerClock()

    async def broken():
        await asyncio.sleep(0)
        raise KeyError("boom")

    timed = tracing._async_wrapper(broken, clock, "resilience", "probe")
    with pytest.raises(KeyError):
        asyncio.run(timed())
    assert clock.calls["probe"] == 1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_are_seeded(name):
    first, again = workloads.build(name, 3), workloads.build(name, 3)
    other = workloads.build(name, 4)
    render = lambda w: [str(r[2]) for r in w.requests]  # noqa: E731
    assert render(first) == render(again)
    assert render(first) != render(other)
    assert len(first.requests) == workloads.STREAM_LENGTH


def test_query_graph_outgrows_the_plan_cache():
    assert len(workloads.build("query_graph", 1).queries) > 1024


def _child_result(**change) -> dict:
    """What ``child.py`` prints for a clean ``--trace 0`` run, changed by *change*."""
    result = {
        "setup": {"import_s": 1.0, "build_s": 0.1, "first_response_s": 0.2, "setup_s": 1.3},
        "peak_rss_mb": 100.0,
        "e2e": {"throughput_rps": 900.0, "latency_p50_ms": 8.0, "latency_p95_ms": 40.0},
        "correct": True, "mismatches": [], "attempted": 1000, "failed": 0, "statuses": {},
    }
    result.update(change)
    return result


def _main_with(monkeypatch, capsys, result: dict):
    monkeypatch.setattr(run_py, "child", lambda *args: result)
    code = run_py.main(["--workload", "query_graph", "--seed", "1", "--seconds", "1"])
    return code, capsys.readouterr()


def test_clean_child_result_is_reported(monkeypatch, capsys):
    code, out = _main_with(monkeypatch, capsys, _child_result())
    assert code == 0
    line = json.loads(out.out.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["metrics"]["throughput_rps"] == {"value": 900.0, "unit": "req/s"}


def test_oracle_mismatch_fails_the_command(monkeypatch, capsys):
    bad = "v1 excluded=[]: confidences of ['R(a)'] were ['1/2'], oracle says ['4/7']"
    code, out = _main_with(
        monkeypatch, capsys, _child_result(correct=False, mismatches=[bad]),
    )
    assert code != 0
    assert out.out.strip() == ""
    assert bad in out.err


def test_failed_requests_fail_the_command(monkeypatch, capsys):
    code, out = _main_with(
        monkeypatch, capsys, _child_result(failed=3, statuses={"timeout": 3}),
    )
    assert code != 0
    assert out.out.strip() == ""
    assert "3 of 1000 requests failed" in out.err


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_graph",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
