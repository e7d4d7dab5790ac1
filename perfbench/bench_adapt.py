"""Model-layer workload ``paper_adapt``.

A dual-peer ``DualPeerGeoGrid`` of 2,000 nodes (the population of the
paper's Figures 7-10) under a migrating ``HotspotField``.  One *step* is
one round of the paper's "moving hot spot" scenario: the hot spots move
4-10 migration steps, the ``AdaptationEngine`` runs one round, and clients
issue point lookups toward hot-spot targets from random members.

It is the only workload that runs ``repro.core`` / ``repro.dualpeer`` /
``repro.loadbalance``.  Model-layer lookups have no simulated clock, so
each is priced in sim units with the same ``DistanceLatency`` the
protocol workloads use: every greedy hop between region owners plus the
direct reply from the executor to the origin.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.loadbalance import AdaptationEngine
from repro.sim.latency import DistanceLatency
from repro.sim.rng import RngStreams

from bench_clock import CalibratedTimer
from bench_ops import covers_closed
from bench_trace import LayerTracer

POPULATION = 2000
SMOKE_POPULATION = 200
#: Point lookups issued after each adaptation round.
LOOKUPS_PER_ROUND = 20


def partition_errors(overlay: Any) -> List[str]:
    """Why the overlay's regions fail to tile its bounds (empty if they do).

    Area sum plus a sweep over x for pairwise interior overlap: together
    they imply an exact tiling, in O(n log n) rather than the O(n^2)
    adjacency audit of ``Space.check_invariants``.
    """
    space = overlay.space
    bounds = space.bounds
    rects = [region.rect for region in space.regions]
    errors = []
    outside = [r for r in rects if not bounds.contains_rect(r)]
    if outside:
        errors.append(f"{len(outside)} regions stick out of the bounds")
    area = sum(r.area for r in rects)
    if abs(area - bounds.area) > 1e-9 * bounds.area:
        errors.append(f"region areas sum to {area}, bounds {bounds.area}")
    active: List[Any] = []
    for rect in sorted(rects, key=lambda r: r.x):
        active = [a for a in active if a.x2 > rect.x]
        for other in active:
            if other.y < rect.y2 and rect.y < other.y2:
                errors.append(f"regions {other} and {rect} overlap")
                return errors
        active.append(rect)
    return errors


class AdaptRun:
    """One model-layer overlay adapting under moving hot spots."""

    def __init__(self, seed: int, smoke: bool = False,
                 tracer: Optional[LayerTracer] = None) -> None:
        self.seed = seed
        self.population = SMOKE_POPULATION if smoke else POPULATION
        self.tracer = tracer
        self.check_failures: List[str] = []
        self.notes: List[str] = []
        self.wi_std: List[float] = []
        self.latencies: List[float] = []
        self.issued = 0
        self.wrong = 0
        self.hops = 0
        self.steps = 0

    def _span(self, layer: str, fn: Callable, *args: Any) -> Any:
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(layer, fn, *args)

    def setup(self) -> CalibratedTimer:
        """Build the dual-peer overlay and its engine, timed."""
        timer = CalibratedTimer()
        config = ExperimentConfig(seed=self.seed)
        streams = RngStreams(self.seed)
        self.network = timer.time(
            build_network, SystemVariant.DUAL_PEER, self.population, config,
            streams,
        )
        self.engine = AdaptationEngine(
            self.network.overlay, self.network.calc, config=config.adaptation
        )
        self.motion_rng = streams.stream("bench-motion")
        self.ops_rng = streams.stream("bench-ops")
        self.latency_rng = random.Random(f"{self.seed}:paper_adapt:latency")
        self.latency = DistanceLatency()
        self.members = list(self.network.nodes)
        return timer

    def start(self) -> None:
        pass

    def step(self) -> None:
        """One adaptation round plus the lookups that follow it."""
        field = self.network.field
        self._span("bench.gen", field.migrate_epoch, self.motion_rng, (4, 10))
        self.engine.run_round()
        for _ in range(LOOKUPS_PER_ROUND):
            self._lookup()
        self.steps += 1
        self._span("bench.check", self._sample_index)

    def _lookup(self) -> None:
        rng = self.ops_rng
        origin, target = self._span("bench.gen", self._draw_lookup, rng)
        route = self.network.overlay.route_from(origin, target)
        self.issued += 1
        self._span("bench.check", self._account, origin, target, route)

    def _draw_lookup(self, rng: random.Random):
        return rng.choice(self.members), self.network.field.sample_point(rng)

    def _account(self, origin: Any, target: Any, route: Any) -> None:
        if not covers_closed(route.executor.rect, target):
            self.wrong += 1
            return
        self.hops += route.hops
        delay = self.latency.delay
        rng = self.latency_rng
        total = 0.0
        here = origin.coord
        for region in route.path[1:]:
            hop_to = region.primary.coord
            total += delay(here, hop_to, rng)
            here = hop_to
        total += delay(here, origin.coord, rng)
        self.latencies.append(total)

    def _sample_index(self) -> None:
        self.wi_std.append(self.network.calc.summary().std)

    def finish(self) -> None:
        self.check_failures.extend(partition_errors(self.network.overlay))

    def counters(self) -> Dict[str, float]:
        """Cumulative adaptation counters (deltas give a window's)."""
        usage = self.engine.mechanism_usage()
        values: Dict[str, float] = {
            f"mech_{key}": usage.get(key, 0) for key in "abcdefgh"
        }
        values["adaptations"] = self.engine.total_adaptations
        return values

    def outcomes(self) -> Dict[str, Any]:
        return {
            "latencies": {"lookup": list(self.latencies), "update": [],
                          "range": []},
            "attempted": self.issued,
            "failed": self.wrong,
            "unanswered": {"lookup": 0, "update": 0, "range": 0},
            "wrong": {"lookup": self.wrong, "update": 0, "range": 0},
            "orphaned": 0,
            "routed": self.issued - self.wrong,
            "routed_hops": self.hops,
            "routed_repeat": 0,
            "setup_unacked": 0,
            "handler_errors": 0,
            "lost": 0,
        }
