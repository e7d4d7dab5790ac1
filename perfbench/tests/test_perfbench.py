"""Tests of the benchmark itself: output contract, checks, determinism.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench_ops  # noqa: E402
import run as bench_run  # noqa: E402
from bench_adapt import partition_errors  # noqa: E402
from repro.geometry import Point, Rect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metrics the workload report must name, per workload.
REPORT_NAMES = {
    "lookup_storm": ["sim_units_per_s", "lookup_p50_sim", "lookup_p99_sim",
                     "range_p50_sim", "range_p99_sim"],
    "churn_store": ["sim_units_per_s", "update_p50_sim", "update_p99_sim",
                    "range_p50_sim", "range_p99_sim"],
    "paper_adapt": ["adapt_rounds_per_s", "lookup_p50_sim", "lookup_p99_sim",
                    "wi_std", "wi_std_final"],
}
COMMON_REPORT_NAMES = ["setup_s", "peak_rss_mb", "op_fail_ratio"]


def _bench(*args: str, cwd: Path = ROOT, hashseed: str = "0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int, steps: Optional[int] = 16,
           seed: int = 3, hashseed: str = "0"):
    """A smoke-size run; ``steps=None`` lets ``--seconds 1`` size it."""
    sized = [] if steps is None else ["--steps", str(steps)]
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--trace", str(trace), "--smoke", *sized,
                  hashseed=hashseed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    lines, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    report = "\n".join(lines[:-1])
    for name in REPORT_NAMES[workload] + COMMON_REPORT_NAMES:
        assert f"  {name} " in report, name
    assert "n=" in report
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    assert {"git_sha", "python", "nproc"} <= set(meta)


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_same_seed_runs_agree_exactly(workload):
    """Sim-time metrics, message counts and operation outcomes depend only
    on the seed and ``--seconds``, not on wall time or hash seeds."""
    first, first_result = _smoke(workload, 0, steps=None, seed=5, hashseed="1")
    second, second_result = _smoke(workload, 0, steps=None, seed=5,
                                   hashseed="2")

    def detail(lines):
        return json.loads(next(l for l in lines if l.startswith("detail "))[7:])

    assert detail(first) == detail(second)
    assert detail(first)["window"]["steps"] == bench_run.measured_steps(
        workload, 1.0)
    for key in ("attempted", "failed"):
        assert first_result[key] == second_result[key]


def test_end_to_end_metrics_are_never_zero():
    for workload in bench_run.WORKLOADS:
        _, result = _smoke(workload, 0)
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    import bench_adapt

    def broken_finish(self):
        self.check_failures.append("doctored partition")

    monkeypatch.setattr(bench_adapt.AdaptRun, "finish", broken_finish)
    code = bench_run.main(["--workload", "paper_adapt", "--smoke",
                           "--steps", "2", "--seed", "1"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_adapt", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# The output checks reject doctored answers
# ----------------------------------------------------------------------
class _Node:
    def __init__(self, alive=True):
        self.alive = alive
        self.address = "origin"


class _Msg:
    def __init__(self, kind, body):
        self.kind = kind
        self.body = body


class _Ack:
    def __init__(self, request_id, region, executor="executor"):
        self.request_id = request_id
        self.region = region
        self.executor = executor
        self.hops = 2


class _Result:
    def __init__(self, request_id, region, records):
        self.request_id = request_id
        self.region = region
        self.records = records


class _Record:
    def __init__(self, object_id, point, version=0):
        self.object_id = object_id
        self.point = point
        self.version = version


def _ledger(now=5.0, serves_hole=None, latest=None):
    return bench_ops.OpLedger(lambda: now, latest_version=latest,
                              serves_hole=serves_hole)


def test_lookup_ack_from_executor_covering_target_is_ok():
    ledger = _ledger()
    ledger.add(bench_ops.Op(1, "lookup", _Node(), 1.0, 30.0,
                            point=Point(3.0, 3.0)))
    ledger.observe(_Msg("route_delivered", _Ack(1, Rect(0, 0, 4, 4))))
    assert ledger.latencies["lookup"] == [4.0]
    assert ledger.failed == 0


def test_lookup_ack_from_executor_not_covering_target_fails():
    ledger = _ledger(serves_hole=lambda executor, point: False)
    ledger.add(bench_ops.Op(1, "lookup", _Node(), 1.0, 30.0,
                            point=Point(3.0, 3.0)))
    ledger.observe(_Msg("route_delivered", _Ack(1, Rect(8, 8, 4, 4))))
    assert ledger.wrong["lookup"] == 1
    assert ledger.latencies["lookup"] == []


def test_lookup_ack_from_legitimate_caretaker_is_ok():
    ledger = _ledger(serves_hole=lambda executor, point: True)
    ledger.add(bench_ops.Op(1, "lookup", _Node(), 1.0, 30.0,
                            point=Point(3.0, 3.0)))
    ledger.observe(_Msg("route_delivered", _Ack(1, Rect(8, 8, 4, 4))))
    assert ledger.failed == 0


def test_update_ack_must_cover_the_written_point():
    ledger = _ledger(serves_hole=lambda executor, point: False)
    ledger.add(bench_ops.Op(7, "update", _Node(), 1.0, 60.0,
                            point=Point(3.0, 3.0)))
    ledger.observe(_Msg("store_ack", _Ack(7, Rect(4, 0, 4, 4))))
    assert ledger.wrong["update"] == 1


def _range_op(expected):
    return bench_ops.Op(2, "range", _Node(), 0.0, 30.0,
                        rect=Rect(0, 0, 4, 4), expected=expected)


def test_range_completes_when_answers_cover_the_rect():
    ledger = _ledger()
    ledger.add(_range_op({"a", "b"}))
    ledger.observe(_Msg("store_result", _Result(
        2, Rect(0, 0, 2, 4), (_Record("a", Point(1, 1)),))))
    assert ledger.pending, "half the rect answered: not complete yet"
    ledger.observe(_Msg("store_result", _Result(
        2, Rect(2, 0, 6, 8), (_Record("b", Point(3, 3)),))))
    assert not ledger.pending
    assert ledger.latencies["range"] == [5.0]


def test_range_answer_missing_an_object_fails():
    ledger = _ledger()
    ledger.add(_range_op({"a", "b"}))
    ledger.observe(_Msg("store_result", _Result(
        2, Rect(0, 0, 8, 8), (_Record("a", Point(1, 1)),))))
    assert ledger.wrong["range"] == 1


def test_range_answer_with_a_foreign_object_fails():
    ledger = _ledger()
    ledger.add(_range_op({"a"}))
    ledger.observe(_Msg("store_result", _Result(
        2, Rect(0, 0, 8, 8),
        (_Record("a", Point(1, 1)), _Record("z", Point(2, 2))))))
    assert ledger.wrong["range"] == 1


def test_moving_range_answer_from_the_future_fails():
    ledger = _ledger(latest=lambda object_id: 3)
    ledger.add(_range_op(None))
    ledger.observe(_Msg("store_result", _Result(
        2, Rect(0, 0, 8, 8), (_Record("a", Point(1, 1), version=4),))))
    assert ledger.wrong["range"] == 1


def test_unanswered_op_fails_only_while_its_origin_lives():
    ledger = _ledger()
    ledger.add(bench_ops.Op(1, "lookup", _Node(alive=True), 0.0, 30.0,
                            point=Point(1, 1)))
    ledger.add(bench_ops.Op(2, "lookup", _Node(alive=False), 0.0, 30.0,
                            point=Point(1, 1)))
    ledger.expire(29.0)
    assert ledger.failed == 0
    ledger.expire(31.0)
    assert ledger.unanswered["lookup"] == 1
    assert ledger.orphaned == 1
    assert ledger.attempted == 1


def test_lost_acknowledged_objects_count_as_failed_writes():
    ledger = _ledger()
    ledger.add(bench_ops.Op(1, "update", _Node(), 0.0, 40.0,
                            point=Point(1, 1), object_id="a"))
    ledger.observe(_Msg("store_ack", _Ack(1, Rect(0, 0, 4, 4))))
    assert ledger.acked_ids == {"a"} and ledger.failed == 0
    ledger.lost = 1
    assert ledger.failed == 1


def test_union_covers():
    target = Rect(0, 0, 4, 4)
    assert bench_ops.union_covers([Rect(-1, -1, 10, 10)], target)
    assert bench_ops.union_covers([Rect(0, 0, 2, 4), Rect(2, 0, 2, 4)], target)
    assert not bench_ops.union_covers([Rect(0, 0, 2, 4), Rect(2, 0, 2, 3)],
                                      target)
    assert not bench_ops.union_covers([], target)


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert bench_ops.quantile(values, 0.5) == 50.0
    assert bench_ops.quantile(values, 0.99) == 99.0
    assert bench_ops.quantile([7.0], 0.99) == 7.0


class _Region:
    def __init__(self, rect):
        self.rect = rect


class _Space:
    def __init__(self, rects):
        self.bounds = Rect(0, 0, 4, 4)
        self.regions = [_Region(r) for r in rects]


class _Overlay:
    def __init__(self, rects):
        self.space = _Space(rects)


def test_partition_check_accepts_a_tiling_and_rejects_gaps_and_overlaps():
    assert partition_errors(_Overlay([Rect(0, 0, 2, 4), Rect(2, 0, 2, 4)])) == []
    assert partition_errors(_Overlay([Rect(0, 0, 2, 4), Rect(2, 0, 2, 2)]))
    assert partition_errors(_Overlay([Rect(0, 0, 3, 4), Rect(2, 0, 2, 2)]))
