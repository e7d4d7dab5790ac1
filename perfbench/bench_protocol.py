"""Protocol-layer workloads: ``lookup_storm`` and ``churn_store``.

Both run a message-level ``ProtocolCluster`` under ``DistanceLatency``
with the default ``NodeConfig``.  Load is open loop in simulated time:
independent clients issue operations at a fixed rate per sim unit, each
from a random live node, whatever state earlier operations are in.  One
*step* is one sim unit.

``lookup_storm`` (read heavy, static membership): point lookups toward
hot-spot targets, whose skew is what the routing shortcut cache learns
from, plus range lookups over a preloaded static object set whose exact
answer is known.

``churn_store`` (write heavy, changing membership): moving-object store
updates, range lookups over the moving population and a few standing
subscriptions, under seeded Poisson joins, graceful departures and
crashes.  As in the ``churn_storm`` chaos scenario, only nodes whose
region has a live counterpart are removed, so no stored object may be
lost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.geometry import Point, Rect
from repro.protocol.cluster import ProtocolCluster
from repro.protocol.reliable import tally_stats
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.latency import DistanceLatency
from repro.workload import HotspotField
from repro.workload.moving import MovingObjectWorkload, StepReport

from bench_ops import (
    LOOKUP, RANGE, UPDATE, Op, OpLedger, client_edge_handler, covers_closed,
)
from bench_clock import CalibratedTimer
from bench_trace import LayerTracer, traced_handler

BOUNDS = Rect(0.0, 0.0, 64.0, 64.0)

#: Simulated time the cluster settles after the last join.
SETTLE_UNITS = 30.0
#: Every node's capacity.  Uniform, so the workload index measures how
#: evenly the partition spreads the served load, not which capacity class
#: happened to land under a hot spot.
CAPACITY = 1.0
#: Attempts at each set-up object write before the set-up fails.
SETUP_WRITE_ATTEMPTS = 3


@dataclass(frozen=True)
class ProtocolSpec:
    """Size and offered load of one protocol workload."""

    nodes: int
    #: Offered operations per sim unit.
    lookup_rate: float
    range_rate: float
    update_rate: float
    #: Stored objects: static preloaded ones, or moving ones.
    objects: int
    moving_objects: bool
    hotspots: int
    #: Side of a range-lookup rect around its center, in miles.
    range_side: float
    subscriptions: int
    #: Poisson churn rates per sim unit (joins, departs, crashes).
    churn: tuple


#: Deadlines per operation kind, in sim units.  Reliable updates retry at
#: 4, 12 and 28 sim units after the first send, so an update still unacked
#: at 40 is lost, not slow.
DEADLINES = {LOOKUP: 30.0, RANGE: 30.0, UPDATE: 40.0}

SPECS: Dict[str, ProtocolSpec] = {
    "lookup_storm": ProtocolSpec(
        nodes=96, lookup_rate=300.0, range_rate=12.0, update_rate=0.0,
        objects=512, moving_objects=False, hotspots=10, range_side=4.0,
        subscriptions=0, churn=(0.0, 0.0, 0.0),
    ),
    "churn_store": ProtocolSpec(
        nodes=96, lookup_rate=0.0, range_rate=12.0, update_rate=80.0,
        objects=400, moving_objects=True, hotspots=0, range_side=4.0,
        subscriptions=8, churn=(0.06, 0.03, 0.03),
    ),
}

#: Test-size variants: same shape, a fraction of the size.
SMOKE = {
    "lookup_storm": dict(nodes=16, lookup_rate=40.0, range_rate=4.0,
                         objects=64),
    "churn_store": dict(nodes=16, update_rate=20.0, range_rate=4.0,
                        objects=64, subscriptions=3, churn=(0.3, 0.15, 0.15)),
}


def spec_for(name: str, smoke: bool) -> ProtocolSpec:
    spec = SPECS[name]
    return replace(spec, **SMOKE[name]) if smoke else spec


class ProtocolRun:
    """One protocol cluster driven by one workload's clients."""

    def __init__(self, name: str, spec: ProtocolSpec, seed: int,
                 tracer: Optional[LayerTracer] = None) -> None:
        self.name = name
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.check_failures: List[str] = []
        #: Failures of the program the report prints without failing the run.
        self.notes: List[str] = []
        self.steps = 0
        self.churn: Optional[ChurnProcess] = None

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{stream}")

    def _span(self, layer: str, fn: Callable, *args: Any) -> Any:
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(layer, fn, *args)

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def setup(self) -> CalibratedTimer:
        """Build the cluster, load objects and subscriptions, timed."""
        self.setup_timer = timer = CalibratedTimer()
        spec = self.spec
        self.cluster = cluster = ProtocolCluster(
            BOUNDS, seed=self.seed, latency=DistanceLatency()
        )
        self.ops_rng = self._rng("ops")
        self.field = (
            HotspotField.random(BOUNDS, spec.hotspots, self._rng("hotspots"))
            if spec.hotspots else None
        )
        self.moving = (
            MovingObjectWorkload(BOUNDS, spec.objects, self._rng("objects"))
            if spec.moving_objects else None
        )
        self.object_ids = self.moving.object_ids() if self.moving else []
        self.ledger = OpLedger(
            lambda: cluster.scheduler.now,
            latest_version=self.moving.version_of if self.moving else None,
            serves_hole=self._serves_hole,
        )
        observe = self.ledger.observe
        if self.tracer is not None:
            observe = self.tracer.wrap("bench.check", observe)
        register = cluster.network.register
        tracer = self.tracer
        ledger = self.ledger

        def register_observed(address, coord, handler):
            handler = client_edge_handler(observe, ledger.record_error, handler)
            if tracer is not None:
                handler = traced_handler(tracer, handler)
            return register(address, coord, handler)

        cluster.network.register = register_observed  # type: ignore[method-assign]

        coords = self._rng("coords")
        for _ in range(spec.nodes):
            coord = Point(coords.uniform(1.0, 63.0), coords.uniform(1.0, 63.0))
            timer.time(cluster.join_node, coord, CAPACITY)
        self._run_for(SETTLE_UNITS)
        self._refresh_live()
        self._load_objects()
        self._load_subscriptions()
        return timer

    def _run_for(self, units: float) -> None:
        """Advance the simulation in timed one-unit chunks."""
        for _ in range(int(units)):
            self.setup_timer.time(self.cluster.run_for, 1.0)

    def _load_objects(self) -> None:
        """Store every object once and wait until each write is acked."""
        placed = self._rng("placement")
        if self.moving is None:
            self.static_points = {
                f"obj{i}": Point(placed.uniform(0.0, 64.0),
                                 placed.uniform(0.0, 64.0))
                for i in range(self.spec.objects)
            }
            reports = [StepReport(object_id, point, None, 0)
                       for object_id, point in self.static_points.items()]
        else:
            reports = list(self.moving.initial_reports())
        # Set-up writes retry like a client library would (the writes are
        # idempotent by version), so the objects exist before the measured
        # phase, whose own updates are never retried.  An object still
        # unacked after that may or may not be stored: it is left out of
        # the range answers' expected sets and of the final count.
        acked = self.ledger.acked_ids
        for _ in range(SETUP_WRITE_ATTEMPTS):
            issued = []
            for report in reports:
                origin = placed.choice(self.live)
                request_id = self.setup_timer.time(
                    self._store_update, origin, report
                )
                issued.append((origin, request_id, report.object_id))
            self._run_for(DEADLINES[UPDATE])
            acked.update(object_id for origin, request_id, object_id in issued
                         if request_id in origin.store_acks)
            reports = [r for r in reports if r.object_id not in acked]
            if not reports:
                break
        self.setup_unacked = len(reports)
        self.ledger.unsure_ids.update(r.object_id for r in reports)

    def _load_subscriptions(self) -> None:
        """Register the standing subscriptions (each retried by the
        cluster helper; one that still fails counts as unacked)."""
        self.subscribers: List[Any] = []
        self.sub_rects: Dict[str, Rect] = {}
        picker = self._rng("subscriptions")
        for _ in range(self.spec.subscriptions):
            origin = picker.choice(self.live)
            center = Point(picker.uniform(8.0, 56.0), picker.uniform(8.0, 56.0))
            rect = Rect(center.x - 8.0, center.y - 8.0, 16.0, 16.0)
            try:
                sub_id, _ = self.setup_timer.time(
                    self.cluster.subscribe, origin.node.node_id, rect, 1e9
                )
            except SimulationError:
                self.setup_unacked += 1
                continue
            self.sub_rects[sub_id] = rect
            if origin not in self.subscribers:
                self.subscribers.append(origin)

    def _serves_hole(self, executor: Any, point: Point) -> bool:
        """Global-view check of a caretaker answer: the executor caretakes
        a hole holding ``point`` and no live primary covers it."""
        nodes = self.cluster.nodes.values()
        if any(
            node.alive and node.is_primary()
            and covers_closed(node.owned.rect, point)
            for node in nodes
        ):
            return False
        return any(
            node.address == executor and node.alive
            and any(covers_closed(hole, point) for hole in node.caretaker_rects)
            for node in nodes
        )

    def _refresh_live(self) -> None:
        self.live = [
            node for node in self.cluster.nodes.values()
            if node.alive and node.joined
        ]

    # ------------------------------------------------------------------
    # Measured phase
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the churn process (if any) at the measured phase."""
        joins, departs, crashes = self.spec.churn
        if joins + departs + crashes == 0:
            return
        cluster = self.cluster
        rng = self._rng("churn")

        def spawn() -> bool:
            coord = Point(rng.uniform(1.0, 63.0), rng.uniform(1.0, 63.0))
            node = cluster.spawn_node(coord, capacity=CAPACITY)
            self._span("node.client", node.start_join)
            return True

        def remove(graceful: bool) -> bool:
            alive = {
                node.address for node in cluster.nodes.values()
                if node.alive and node.joined
            }
            candidates = [
                node for node in cluster.nodes.values()
                if node.alive and node.joined and node.owned is not None
                and node.owned.peer in alive
            ]
            if len(candidates) <= 4:
                return False
            victim = rng.choice(candidates)
            self._span("node.client", victim.depart if graceful else victim.crash)
            return True

        self.churn = ChurnProcess(
            cluster.scheduler, self._rng("churn-process"),
            ChurnConfig(
                join_rate=joins, leave_rate=departs, fail_rate=crashes,
                min_population=max(4, self.spec.nodes // 2),
                max_population=self.spec.nodes * 2,
            ),
            spawn=spawn, remove=remove, population=cluster.alive_count,
        )
        self.churn.start()

    def step(self) -> None:
        """Offer one sim unit of load and advance the simulation by it."""
        self._span("bench.gen", self._schedule_unit)
        scheduler = self.cluster.scheduler
        scheduler.run_until(scheduler.now + 1.0)
        self.steps += 1
        self._span("bench.check", self._after_unit)

    def _schedule_unit(self) -> None:
        spec = self.spec
        now = self.cluster.scheduler.now
        at = self.cluster.scheduler.at
        span = self._span
        issue = self._issue
        for kind, rate in ((LOOKUP, spec.lookup_rate), (UPDATE, spec.update_rate),
                           (RANGE, spec.range_rate)):
            count = int(rate)
            for i in range(count):
                due = now + (i + 0.5) / count
                at(due, lambda kind=kind, due=due: span("bench.gen", issue,
                                                        kind, due))
        self._refresh_live()

    def _issue(self, kind: str, due: float) -> None:
        """Issue one client operation (scheduled at its due time)."""
        rng = self.ops_rng
        origin = rng.choice(self.live)
        while not origin.alive:
            origin = rng.choice(self.live)
        deadline = due + DEADLINES[kind]
        if kind == LOOKUP:
            target = self.field.sample_point(rng)
            request_id = self._span(
                "node.client", origin.send_to_point, target, None
            )
            op = Op(request_id, kind, origin, due, deadline, point=target)
        elif kind == UPDATE:
            object_id = rng.choice(self.object_ids)
            report = self.moving.step_one(object_id)
            request_id = self._span(
                "node.client", self._store_update, origin, report
            )
            op = Op(request_id, kind, origin, due, deadline, point=report.point,
                    object_id=object_id)
        else:
            rect = self._range_rect(rng)
            expected = None
            if self.moving is None:
                expected = {
                    object_id for object_id, point in self.static_points.items()
                    if covers_closed(rect, point)
                } - self.ledger.unsure_ids
            request_id = self._span("node.client", origin.store_lookup, rect)
            op = Op(request_id, kind, origin, due, deadline, rect=rect,
                    expected=expected)
        self.ledger.add(op)

    @staticmethod
    def _store_update(origin: Any, report: Any) -> int:
        return origin.store_update(
            report.object_id, report.point, version=report.version,
            prev_point=report.prev_point,
        )

    def _range_rect(self, rng: random.Random) -> Rect:
        half = self.spec.range_side / 2.0
        if self.field is not None:
            center = self.field.sample_point(rng)
        else:
            center = self.moving.position_of(rng.choice(self.object_ids))
        x = min(max(center.x - half, 0.0), 64.0 - 2 * half)
        y = min(max(center.y - half, 0.0), 64.0 - 2 * half)
        return Rect(x, y, 2 * half, 2 * half)

    def _after_unit(self) -> None:
        self.ledger.expire(self.cluster.scheduler.now)

    # ------------------------------------------------------------------
    # Drain and final checks
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Stop offering load, let every deadline pass, run final checks."""
        if self.churn is not None:
            self.churn.stop()
        cluster = self.cluster
        # With churn, drain the whole deadline so failovers that began
        # just before the end complete before the object count.
        drain = max(DEADLINES.values()) + 1.0
        end = cluster.scheduler.now + drain
        while cluster.scheduler.now < end and (
            self.ledger.pending or self.churn is not None
        ):
            cluster.scheduler.run_until(cluster.scheduler.now + 1.0)
            self.ledger.expire(cluster.scheduler.now)
        held = {
            record.object_id
            for node in cluster.nodes.values()
            if node.alive and node.is_primary()
            for record in node.owned.store.records()
        }
        # A lost acknowledged object is a failed write, not a failed run:
        # the program loses some under churn (see README), and the count
        # must stay comparable between commits rather than end the run.
        lost = sorted(self.ledger.acked_ids - held)
        self.ledger.lost = len(lost)
        if lost:
            self.notes.append(
                f"{len(lost)} acknowledged objects lost, e.g. {lost[:3]}"
            )
        if self.churn is None:
            # A hole a caretaker serves is the protocol's documented
            # degraded state; only an unserved or overlapping stretch of
            # the plane is a broken partition.
            try:
                cluster.check_partition(allow_caretaker_holes=True)
            except SimulationError as error:
                self.check_failures.append(f"partition: {error}")
            hole_area = BOUNDS.area - sum(r.area for r in cluster.primary_rects())
            if hole_area > 1e-6 * BOUNDS.area:
                self.notes.append(
                    f"{hole_area:g} of {BOUNDS.area:g} area served only by "
                    f"caretakers"
                )
        misplaced = sum(
            1 for subscriber in self.subscribers
            for note in subscriber.notifications
            if note.sub_id in self.sub_rects
            and not covers_closed(self.sub_rects[note.sub_id], note.point)
        )
        if misplaced:
            self.check_failures.append(
                f"{misplaced} notifications outside their rect"
            )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def outcomes(self) -> Dict[str, Any]:
        outcomes = self.ledger.outcomes()
        outcomes["setup_unacked"] = self.setup_unacked
        return outcomes

    def counters(self) -> Dict[str, float]:
        """Cumulative program-side counters (deltas give a window's)."""
        cluster = self.cluster
        stats = cluster.network.stats
        nodes = list(cluster.nodes.values())
        reliable = tally_stats(node.reliable for node in nodes)
        return {
            "sim_now": cluster.scheduler.now,
            "events": cluster.scheduler.fired,
            "sent": stats.sent,
            "dropped_dead": stats.dropped_dead,
            "reliable.sent": reliable["sent"],
            "reliable.acked": reliable["acked"],
            "reliable.retries": reliable["retries"],
            "reliable.dead_lettered": reliable["dead_lettered"],
            "shortcut.hits": sum(node.shortcuts.hits for node in nodes),
            "shortcut.misses": sum(node.shortcuts.misses for node in nodes),
            "shortcut.repairs": sum(node.shortcuts.repairs for node in nodes),
            "notifies": sum(len(s.notifications) for s in self.subscribers),
        }
