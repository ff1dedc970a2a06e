"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.common.config import IterKeys, JobConf  # noqa: E402
from repro.algorithms import pagerank  # noqa: E402
from repro.imapreduce import (  # noqa: E402
    IterativeJob,
    ParallelExecutionError,
    plan_changes,
    run_accum_local,
    run_local,
    run_parallel,
)
from repro.testing.oracles import records_identical  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402
from spans import Spans, write_chrome, write_jsonl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


# ----------------------------------------------------------- the contract --
def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(metrics.WORKLOADS)
    for section, declared in (("end_to_end", metrics.END_TO_END),
                              ("per_layer", metrics.PER_LAYER)):
        entries = BENCHMARK[section]
        assert {e["name"]: e["unit"] for e in entries} == declared
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < e["bound"] <= 0.25 for e in BENCHMARK["end_to_end"])
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", metrics.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_emits_every_named_metric(name, trace):
    out = _bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    declared = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if trace == "1":
        stem = ROOT / ".perfbench" / f"{name}-seed3"
        chrome = json.loads(stem.with_suffix(".trace.json").read_text())
        assert chrome["traceEvents"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "pagerank-kernel", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ------------------------------------------------------------- replays --
def _replay(w):
    final, layers, _payload = w.replay(Spans(0))
    return final, layers


def test_kernel_replay_equals_run_local():
    w = workloads.PagerankKernel(5, quick=True)
    final, layers = _replay(w)
    ref = run_local(w.job, w.state, w.static, num_pairs=w.num_pairs)
    assert records_identical(final, ref.state)
    assert 0 < layers["columnar.combine_ratio"] <= 1


def test_record_replay_equals_run_local():
    w = workloads.KmeansRecord(5, quick=True)
    final, layers = _replay(w)
    ref = run_local(w.job, w.state, w.static, num_pairs=w.num_pairs)
    assert records_identical(final, ref.state)
    assert layers["localrun.map_s"] > 0


def test_accum_replay_equals_run_accum_local():
    w = workloads.PagerankAsync(5, quick=True)
    final, layers = _replay(w)
    ref = run_accum_local(w.job, w.deltas, w.static, num_pairs=w.num_pairs,
                          mode="async")
    assert records_identical(final, ref.state)
    assert layers["accum.rounds"] == ref.rounds
    assert layers["accum.updates"] == ref.updates_processed
    assert 0 < layers["accum.ship_ratio"] <= 1


def test_incremental_plan_matches_the_engine_plan():
    w = workloads.PagerankAsync(5, quick=True)
    final, layers = _replay(w)
    plan = plan_changes("pagerank", dict(w.table), w.delta, dict(final),
                        damping=pagerank.DAMPING)
    assert layers["incremental.frontier_keys"] == len(plan.frontier) > 0
    assert layers["incremental.frontier_frac"] == len(plan.frontier) / w.nodes


def test_span_self_times_and_exports(tmp_path):
    spans = Spans(7)
    with spans.span("job"):
        with spans.span("iteration"):
            with spans.span("layer.a"):
                time.sleep(0.01)
    self_times = spans.self_times()
    assert self_times["layer.a"] >= 0.01
    assert sum(self_times.values()) == pytest.approx(spans.wall())
    assert 0.5 < spans.coverage() <= 1
    write_jsonl([spans], tmp_path / "s.jsonl")
    write_chrome([spans], tmp_path / "s.json")
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert [json.loads(line)["parent"] for line in lines] == [None, 0, 1]
    events = json.loads((tmp_path / "s.json").read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X"} and events[2]["dur"] > 0


# ------------------------------------------------------- bounded failure --
def _sleeping_map(key, value, static, ctx):
    time.sleep(30)


def _identity_reduce(key, values, ctx):
    ctx.emit(key, values[0])


def test_hung_job_times_out_and_counts_as_failed():
    conf = JobConf()
    conf.set_int(IterKeys.MAX_ITER, 1)
    job = IterativeJob.single_phase(
        "hang", _sleeping_map, _identity_reduce, conf=conf, output_path="/out",
    )
    started = time.monotonic()
    event, result = session.run_op(
        "parallel",
        lambda: run_parallel(job, [(0, 1.0), (1, 2.0)], num_pairs=2,
                             num_workers=2, timeout=1.0),
        lambda r: [],
    )
    assert time.monotonic() - started < 15
    assert result is None and not event["ok"]
    assert ParallelExecutionError.__name__ in event["error"]


def test_hung_session_is_killed_and_counted():
    child = (
        "import json, subprocess, sys, time\n"
        "print(json.dumps({'event': 'start'}), flush=True)\n"
        "print(json.dumps({'event': 'op', 'kind': 'parallel', 'ok': True,"
        " 'warmup': False, 'seconds': 1.0, 'wire_bytes': 10,"
        " 'coord_peak_kb': 1000}), flush=True)\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "time.sleep(60)\n"
    )
    started = time.monotonic()
    events, killed, code = run.supervise([sys.executable, "-c", child], 2.0)
    assert killed and time.monotonic() - started < 10
    result = run.summarize(events, killed, code, trace=False)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == 0.5
