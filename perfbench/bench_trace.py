"""Layer tracing from outside the program.

The benchmark never edits the code it measures.  In a traced run it wraps
the public entry points of each layer -- class attributes patched for the
duration of the traced window and restored afterwards -- and accumulates,
per layer, a call count and a *self* time: the span's duration minus the
part of it that nested layer spans cover.  Spans are aggregated in memory
rather than kept individually; the millions of geometry calls per second
would otherwise dominate the run.

Layer names follow the repository's modules:

* ``scheduler``         -- ``EventScheduler.at/after/every/run_until``;
* ``transport.send``    -- ``SimNetwork.send``;
* ``transport.deliver`` -- the delivery event ``send`` schedules, minus
  the handler it calls;
* ``node.<kind>``       -- the endpoint handler a node registers through
  ``SimNetwork.register``, keyed by the delivered message kind;
* ``node.timers``       -- protocol timer callbacks fired by the scheduler;
* ``node.client``       -- client calls into the node API (lookups,
  updates, churn joins/departs) issued by the workload;
* ``geometry``          -- public methods of ``Rect``;
* ``store.index`` / ``sub.index`` -- public methods of ``GridIndex`` and
  ``SubIndex``;
* ``loadbalance.round`` -- ``AdaptationEngine.run_round``;
* ``core.route``        -- ``BasicGeoGrid.route_from``;
* ``bench.gen`` / ``bench.check`` -- the benchmark's own generator and
  output checks, so they are seen not to be what is measured.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.geometry import Rect
from repro.loadbalance import AdaptationEngine
from repro.core.overlay import BasicGeoGrid
from repro.sim.scheduler import EventScheduler
from repro.sim.transport import SimNetwork
from repro.store.spatial import GridIndex
from repro.sub import SubIndex

_clock = time.perf_counter


class LayerTracer:
    """Self-time and call-count accounting over nested layer spans."""

    def __init__(self) -> None:
        #: Whether spans are being recorded; wrappers installed at
        #: registration time stay in place and check this flag.
        self.active = False
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Child-time accumulators of the open spans (index 0 = root).
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Scheduled-callback code object -> layer name (classification
        #: is by the callback's origin, decided once per code object).
        self._callback_layer: Dict[Any, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all accumulated spans (open spans keep running)."""
        self.self_s = {}
        self.calls = {}

    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer`` (plain call when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        stack.append(0.0)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            child = stack.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - child
            self.calls[layer] = self.calls.get(layer, 0) + 1
            stack[-1] += elapsed

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(layer, fn, *args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Patching the layers' public entry points
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, layer: str) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original))

    def _patch_public_methods(self, cls: type, layer: str) -> None:
        for name, value in list(cls.__dict__.items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            self._patch(cls, name, layer)

    def install(self) -> None:
        """Wrap every layer boundary and start recording."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(EventScheduler, "run_until", "scheduler")
        self._patch(EventScheduler, "after", "scheduler")
        self._patch(EventScheduler, "every", "scheduler")
        self._patch_scheduler_at()
        self._patch(SimNetwork, "send", "transport.send")
        self._patch_public_methods(Rect, "geometry")
        self._patch_public_methods(GridIndex, "store.index")
        self._patch_public_methods(SubIndex, "sub.index")
        self._patch(AdaptationEngine, "run_round", "loadbalance.round")
        self._patch(BasicGeoGrid, "route_from", "core.route")
        self.active = True

    def uninstall(self) -> None:
        """Restore every patched attribute and stop recording."""
        self.active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch_scheduler_at(self) -> None:
        """``at`` is a scheduler span that also wraps the callback it
        schedules in the span of the layer the callback belongs to."""
        original = EventScheduler.__dict__["at"]
        self._patches.append((EventScheduler, "at", original))
        call = self.call
        classify = self._classify

        def at(scheduler: EventScheduler, when: float, callback: Callable):
            layer = classify(callback)
            if layer is None:
                wrapped = callback
            else:
                def wrapped() -> None:
                    call(layer, callback)
            return call("scheduler", original, scheduler, when, wrapped)

        EventScheduler.at = at  # type: ignore[method-assign]

    def _classify(self, callback: Callable) -> Optional[str]:
        """Layer of a scheduled callback, or ``None`` for benchmark
        callbacks that open their own span."""
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", None)
        layer = self._callback_layer.get(code)
        if layer is not None or code in self._callback_layer:
            return layer
        qualname = getattr(func, "__qualname__", "")
        module = getattr(func, "__module__", "") or ""
        if qualname == "SimNetwork.send.<locals>.<lambda>":
            layer = "transport.deliver"
        elif module == "repro.sim.churn":
            layer = "bench.gen"
        elif module.startswith("repro"):
            # Protocol timers, reliable-channel retries and the periodic
            # wrapper of ``EventScheduler.every``.
            layer = "node.timers"
        else:
            layer = None
        self._callback_layer[code] = layer
        return layer


def traced_handler(
    tracer: LayerTracer, handler: Callable[[Any], None]
) -> Callable[[Any], None]:
    """A registered endpoint handler timed per delivered message kind."""
    call = tracer.call
    layers: Dict[str, str] = {}

    def handle(message: Any) -> None:
        if not tracer.active:
            handler(message)
            return
        layer = layers.get(message.kind)
        if layer is None:
            layer = layers[message.kind] = f"node.{message.kind}"
        call(layer, handler, message)

    return handle
