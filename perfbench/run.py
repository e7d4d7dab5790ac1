"""GeoGrid benchmark: one command, three workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup_storm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics from an untraced run.
``--trace 1`` measures the same workload first untraced and then with
every layer boundary wrapped (see ``bench_trace``), and reports the
per-layer split of the traced half plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a human-readable report (every metric with unit and sample count)
and a ``meta`` line stamping the git SHA, Python version and ``nproc``.
The exit code is 1 when an output check fails and 2 when the benchmark
cannot run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench_clock import CalibratedTimer, calibrated_s, wall_s
from bench_ops import quantile

ROOT = Path(__file__).resolve().parent.parent

#: The seed used while the benchmark and changes are developed.
DEFAULT_SEED = 1
#: A seed kept out of development, to confirm a claimed gain holds on
#: inputs it was not tuned on.
HELD_OUT_SEED = 20070625

WORKLOADS = ("lookup_storm", "churn_store", "paper_adapt")

#: Independent instances per run, each built from its own sub-seed of
#: ``--seed``.  ``setup_s`` is the median of their set-up times, and the
#: measured phase steps them in turn, so every metric averages over several
#: cluster layouts and hot-spot fields instead of depending on one.  The
#: model-layer overlay builds in half a second, so it affords more.
INSTANCES = {"lookup_storm": 3, "churn_store": 3, "paper_adapt": 8}

#: Steps measured per second of ``--seconds``: each workload's throughput
#: on the 2-core reference host, so a run measures about ``--seconds`` of
#: work there.  The step count, not a wall-clock deadline, ends the
#: measured phase, so the work, the operations and their outcomes depend
#: only on ``--seed`` and ``--seconds``, and two runs with the same
#: arguments agree exactly on everything but wall time.
STEPS_PER_SECOND = {"lookup_storm": 6.0, "churn_store": 10.0,
                    "paper_adapt": 8.0}

#: Sim units run traced and discarded before the traced window, so the
#: periodic timers armed while untraced have re-armed through the hooks.
TRACE_WARMUP_STEPS = 10

#: Message kinds whose handler time is reported individually.
HANDLER_KINDS = (
    "heartbeat", "route", "shortcut_hop", "route_delivered", "reliable",
    "reliable_ack", "store_ack", "store_lookup", "store_fanout",
    "store_result", "join_request", "join_grant", "neighbor_update",
    "sync_state", "notify",
)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro  # noqa: F401  (fails when the checkout has no program)

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` in the checkout, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
def _make_run(workload: str, seed: int, smoke: bool, tracer: Any) -> Any:
    if workload == "paper_adapt":
        from bench_adapt import AdaptRun

        return AdaptRun(seed, smoke=smoke, tracer=tracer)
    from bench_protocol import ProtocolRun, spec_for

    return ProtocolRun(workload, spec_for(workload, smoke), seed, tracer=tracer)


class Ensemble:
    """The instances of one run, stepped in turn."""

    def __init__(self, runs: List[Any]) -> None:
        self.runs = runs
        self.steps = 0

    @property
    def check_failures(self) -> List[str]:
        return [failure for run in self.runs for failure in run.check_failures]

    @property
    def notes(self) -> List[str]:
        return [note for run in self.runs for note in run.notes]

    @property
    def wi_std(self) -> List[float]:
        return [value for run in self.runs for value in getattr(run, "wi_std", ())]

    @property
    def wi_std_final(self) -> float:
        finals = [run.wi_std[-1] for run in self.runs if getattr(run, "wi_std", None)]
        return statistics.median(finals) if finals else 0.0

    def start(self) -> None:
        for run in self.runs:
            run.start()

    def step(self) -> None:
        self.runs[self.steps % len(self.runs)].step()
        self.steps += 1

    def finish(self) -> None:
        for run in self.runs:
            run.finish()

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for run in self.runs:
            for key, value in run.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def outcomes(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for run in self.runs:
            for key, value in run.outcomes().items():
                if isinstance(value, dict):
                    slot = merged.setdefault(key, {})
                    for op, item in value.items():
                        slot[op] = slot[op] + item if op in slot else item
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged


def _set_up(workload: str, seed: int, smoke: bool, tracer: Any
            ) -> Tuple[Ensemble, List[float]]:
    """Set up the workload's instances from sub-seeds of ``seed``."""
    timers = []
    runs = []
    for index in range(INSTANCES[workload]):
        gc.collect()
        run = _make_run(workload, seed * 16 + index, smoke, tracer)
        timers.append(run.setup())
        runs.append(run)
    return Ensemble(runs), timers


def measured_steps(workload: str, seconds: float) -> int:
    """Steps of the measured phase for ``--seconds`` (see STEPS_PER_SECOND)."""
    return max(4, round(seconds * STEPS_PER_SECOND[workload]))


def _measure(run: Any, steps: int) -> List[Tuple[float, float]]:
    """Step ``run`` exactly ``steps`` times; returns each step's
    (wall seconds, reference-kernel seconds)."""
    timer = CalibratedTimer()
    for _ in range(steps):
        timer.time(run.step)
    return timer.samples


def _rate(samples: List[Tuple[float, float]]) -> float:
    """Steps per second on the reference host (see ``bench_clock``)."""
    return len(samples) / calibrated_s(samples) if samples else 0.0


def _wall_rate(samples: List[Tuple[float, float]]) -> float:
    """Steps per wall second."""
    return len(samples) / wall_s(samples) if samples else 0.0


def run_workload(workload: str, seed: int, steps: int, trace: bool,
                 smoke: bool = False) -> Dict[str, Any]:
    """Run one workload for ``steps`` measured steps; returns every
    measured value and check result."""
    tracer = None
    if trace:
        from bench_trace import LayerTracer

        tracer = LayerTracer()
    run, setup_timers = _set_up(workload, seed, smoke, tracer)
    out: Dict[str, Any] = {
        "setup_times": [timer.calibrated_s for timer in setup_timers],
        "setup_wall": [timer.wall_s for timer in setup_timers],
    }
    run.start()
    if not trace:
        before = _counters(run)
        out["samples"] = _measure(run, steps)
        out["window"] = _delta(before, _counters(run))
    else:
        # Untraced quarters before and after the traced half, so drift
        # in the simulation's state (caches warming, membership changing)
        # affects both arms of the overhead ratio alike.
        half = max(1, steps // 2)
        quarter = max(1, steps // 4)
        untraced = _measure(run, quarter)
        tracer.install()
        try:
            if workload != "paper_adapt":
                _measure(run, TRACE_WARMUP_STEPS)
            tracer.reset()
            before = _counters(run)
            traced = _measure(run, half)
            after = _counters(run)
        finally:
            tracer.uninstall()
        untraced += _measure(run, quarter)
        out["samples"] = untraced + traced
        out["untraced_samples"] = untraced
        out["traced_samples"] = traced
        out["traced_wall"] = sum(step for step, _ in traced)
        out["window"] = _delta(before, after)
        out["self_s"] = dict(tracer.self_s)
        out["calls"] = dict(tracer.calls)
    run.finish()
    out["run"] = run
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _counters(run: Ensemble) -> Dict[str, float]:
    values = run.counters()
    values["steps"] = run.steps
    return values


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _op_outcomes(run: Ensemble) -> Dict[str, Any]:
    """Latencies, attempts and failures over all instances."""
    ops = run.outcomes()
    ops["repeat_share"] = (
        ops["routed_repeat"] / ops["routed"] if ops["routed"] else 0.0
    )
    return ops


def end_to_end(result: Dict[str, Any], ops: Dict[str, Any]
               ) -> Dict[str, Tuple[float, str, int]]:
    """The end-to-end metrics of ``BENCHMARK.json``: name -> (value, unit, n)."""
    run = result["run"]
    pooled = [v for values in ops["latencies"].values() for v in values]
    attempted = ops["attempted"]
    samples = result["samples"]
    return {
        "setup_s": (statistics.median(result["setup_times"]), "s",
                    len(result["setup_times"])),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "steps_per_s": (_rate(samples), "1/s", len(samples)),
        "op_p50_sim": (quantile(pooled, 0.50), "sim", len(pooled)),
        "op_p99_sim": (quantile(pooled, 0.99), "sim", len(pooled)),
        "op_ok_ratio": (
            (attempted - ops["failed"]) / attempted if attempted else 0.0,
            "ratio", attempted,
        ),
    }


def workload_metrics(workload: str, result: Dict[str, Any], ops: Dict[str, Any]
                ) -> Dict[str, Tuple[float, str, int]]:
    """The workload-specific end-to-end metrics, printed in the report."""
    run = result["run"]
    samples = result["samples"]
    named: Dict[str, Tuple[float, str, int]] = {}
    rate_name = ("adapt_rounds_per_s" if workload == "paper_adapt"
                 else "sim_units_per_s")
    named[rate_name] = (_wall_rate(samples), "1/s", len(samples))
    named["setup_wall_s"] = (statistics.median(result["setup_wall"]), "s",
                             len(result["setup_wall"]))
    for op in ("lookup", "update", "range"):
        values = ops["latencies"][op]
        if values:
            named[f"{op}_p50_sim"] = (quantile(values, 0.5), "sim", len(values))
            named[f"{op}_p99_sim"] = (quantile(values, 0.99), "sim", len(values))
    attempted = ops["attempted"]
    named["op_fail_ratio"] = (
        ops["failed"] / attempted if attempted else 0.0, "ratio", attempted
    )
    if run.wi_std:
        named["wi_std"] = (statistics.median(run.wi_std), "index",
                           len(run.wi_std))
        named["wi_std_final"] = (run.wi_std_final, "index", len(run.runs))
    named["setup_unacked_writes"] = (ops["setup_unacked"], "count", 1)
    named["handler_errors"] = (ops["handler_errors"], "count", 1)
    named["lost_objects"] = (ops["lost"], "count", 1)
    return named


def per_layer(workload: str, result: Dict[str, Any], ops: Dict[str, Any]
              ) -> Dict[str, Tuple[float, str, int]]:
    """The traced run's per-layer metrics: name -> (value, unit, n)."""
    self_s: Dict[str, float] = result["self_s"]
    calls: Dict[str, int] = result["calls"]
    window = result["window"]
    run = result["run"]
    sim_units = window.get("sim_now", 0.0)
    metrics: Dict[str, Tuple[float, str, int]] = {}

    def put(name: str, value: float, unit: str, n: int = 1) -> None:
        metrics[name] = (value, unit, n)

    def mean_us(layer: str) -> float:
        count = calls.get(layer, 0)
        return self_s.get(layer, 0.0) / count * 1e6 if count else 0.0

    put("scheduler.events", window.get("events", 0), "count")
    put("scheduler.self_s", self_s.get("scheduler", 0.0), "s")
    sent = window.get("sent", 0)
    put("transport.sent", sent, "count")
    put("transport.msgs_per_sim_unit", sent / sim_units if sim_units else 0.0,
        "1/sim")
    put("transport.send_self_us", mean_us("transport.send"), "us",
        calls.get("transport.send", 0))
    put("transport.deliver_self_us", mean_us("transport.deliver"), "us",
        calls.get("transport.deliver", 0))
    put("transport.dropped_dead", window.get("dropped_dead", 0), "count")
    other_count, other_s = 0, 0.0
    for layer, count in calls.items():
        kind = layer[5:] if layer.startswith("node.") else None
        if kind and kind not in HANDLER_KINDS and kind not in ("timers", "client"):
            other_count += count
            other_s += self_s.get(layer, 0.0)
    for kind in HANDLER_KINDS:
        layer = f"node.{kind}"
        put(f"{layer}.count", calls.get(layer, 0), "count")
        put(f"{layer}.self_us", mean_us(layer), "us", calls.get(layer, 0))
    put("node.other.count", other_count, "count")
    put("node.other.self_us", other_s / other_count * 1e6 if other_count else 0.0,
        "us", other_count)
    for layer in ("node.timers", "node.client"):
        put(f"{layer}.count", calls.get(layer, 0), "count")
        put(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
    rel_sent = window.get("reliable.sent", 0)
    put("reliable.sent", rel_sent, "count")
    put("reliable.retries", window.get("reliable.retries", 0), "count")
    put("reliable.dead_lettered", window.get("reliable.dead_lettered", 0), "count")
    acked = window.get("reliable.acked", 0)
    concluded = acked + window.get("reliable.dead_lettered", 0)
    put("reliable.acked_ratio", acked / concluded if concluded else 0.0,
        "ratio", concluded)
    hits = window.get("shortcut.hits", 0)
    decisions = hits + window.get("shortcut.misses", 0)
    put("shortcuts.hop_share", hits / decisions if decisions else 0.0, "ratio",
        decisions)
    put("shortcuts.misroute_ratio",
        window.get("shortcut.repairs", 0) / hits if hits else 0.0, "ratio", hits)
    put("geometry.calls", calls.get("geometry", 0), "count")
    put("geometry.self_s", self_s.get("geometry", 0.0), "s")
    put("store.index_self_s", self_s.get("store.index", 0.0), "s")
    put("sub.index_self_s", self_s.get("sub.index", 0.0), "s")
    put("sub.notifies", window.get("notifies", 0), "count")
    put("overlay.build_s", statistics.median(result["setup_times"]), "s",
        len(result["setup_times"]))
    put("loadbalance.round_self_s", self_s.get("loadbalance.round", 0.0), "s",
        calls.get("loadbalance.round", 0))
    put("loadbalance.adaptations", window.get("adaptations", 0), "count")
    for key in "abcdefgh":
        put(f"loadbalance.mech_{key}", window.get(f"mech_{key}", 0), "count")
    put("loadbalance.wi_std", statistics.median(run.wi_std) if run.wi_std
        else 0.0, "index", len(run.wi_std))
    put("loadbalance.wi_std_final", run.wi_std_final, "index", len(run.runs))
    put("core.route_self_s", self_s.get("core.route", 0.0), "s",
        calls.get("core.route", 0))
    for op in ("lookup", "update", "range"):
        values = ops["latencies"][op]
        put(f"ops.{op}.p50_sim", quantile(values, 0.5) if values else 0.0,
            "sim", len(values))
        put(f"ops.{op}.p99_sim", quantile(values, 0.99) if values else 0.0,
            "sim", len(values))
        put(f"ops.failed.{op}.unanswered", ops["unanswered"][op], "count")
        put(f"ops.failed.{op}.wrong", ops["wrong"][op], "count")
    put("ops.failed.update.lost", ops["lost"], "count")
    put("ops.orphaned", ops["orphaned"], "count")
    put("ops.failed.setup_unacked", ops["setup_unacked"], "count")
    put("node.handler_errors", ops["handler_errors"], "count")
    put("ops.routed.repeat_share", ops["repeat_share"], "ratio", ops["routed"])
    put("ops.routed.hops_mean",
        ops["routed_hops"] / ops["routed"] if ops["routed"] else 0.0, "count",
        ops["routed"])
    put("bench.gen_s", self_s.get("bench.gen", 0.0), "s")
    put("bench.check_s", self_s.get("bench.check", 0.0), "s")
    untraced = _rate(result["untraced_samples"])
    traced = _rate(result["traced_samples"])
    put("trace.overhead_ratio", untraced / traced if traced else 0.0, "ratio",
        len(result["traced_samples"]))
    put("trace.unattributed_s",
        result["traced_wall"] - sum(self_s.values()), "s")
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_table(title: str, metrics: Dict[str, Tuple[float, str, int]]) -> None:
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<34} {_fmt(value):>14} {unit:<6} n={n}")


def _print_layers(result: Dict[str, Any]) -> None:
    wall = result["traced_wall"]
    print(f"# layer self time over the traced window ({wall:.3f} s)")
    rows = sorted(result["self_s"].items(), key=lambda item: -item[1])
    for layer, seconds in rows:
        share = seconds / wall if wall else 0.0
        print(f"  {layer:<28} {seconds:10.4f} s {share:7.1%}"
              f"  calls={result['calls'].get(layer, 0)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="size of the measured phase: about this many "
                             "seconds of work on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="test-size workload")
    parser.add_argument("--steps", type=int, default=None,
                        help="run exactly this many steps instead of the "
                             "count --seconds gives")
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2

    steps = (args.steps if args.steps is not None
             else measured_steps(args.workload, args.seconds))
    try:
        result = run_workload(args.workload, args.seed, steps,
                              bool(args.trace), smoke=args.smoke)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    run = result["run"]
    ops = _op_outcomes(run)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "steps": steps,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    e2e = end_to_end(result, ops)
    _print_table(f"{args.workload} end-to-end", e2e)
    _print_table(f"{args.workload} workload metrics",
                 workload_metrics(args.workload, result, ops))
    reported = e2e
    if args.trace:
        layers = per_layer(args.workload, result, ops)
        _print_layers(result)
        _print_table(f"{args.workload} per layer", layers)
        reported = layers
    window = result["window"]
    detail = {
        "sim": {name: e2e[name][0]
                for name in ("op_p50_sim", "op_p99_sim", "op_ok_ratio")},
        "window": window,
        "checks": run.check_failures + run.notes,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True, default=float))
    for instance in run.runs:
        first_error = getattr(getattr(instance, "ledger", None), "first_error", None)
        if first_error:
            print("# first handler error: " + first_error.replace("\n", "\n# "))
    for note in run.notes:
        print(f"PROGRAM FAILURE: {note}")
    correct = not run.check_failures
    for failure in run.check_failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(ops["attempted"]),
        "failed": int(ops["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
