"""Client-edge operation ledger and output checks.

Every client operation is registered with its *due* time (open loop: the
moment the schedule says it is sent) and a deadline.  Completion is
observed at the origin's registered endpoint handler, where the first
matching answer arrives:

* a point lookup completes at the first ``ROUTE_DELIVERED`` for its
  request id;
* a store update completes at the first ``STORE_ACK``;
* a range lookup completes at the ``STORE_RESULT`` whose answering
  region rects, together with the earlier answers, first cover the
  query rect.

At completion the answer is checked; a wrong answer is a failed
operation.  An operation that is unanswered at its deadline while its
origin is still alive is a failed operation too; one whose origin left
first is *orphaned* and not counted as attempted.  An acknowledged object
that no live primary holds at the end is a failed (lost) write.
"""

from __future__ import annotations

import math
import traceback
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Set

if TYPE_CHECKING:
    from repro.geometry import Point, Rect

LOOKUP = "lookup"
UPDATE = "update"
RANGE = "range"
OP_KINDS = (LOOKUP, UPDATE, RANGE)

#: Wire kinds that answer a client operation.
_ANSWER_KINDS = {
    "route_delivered": LOOKUP,
    "store_ack": UPDATE,
    "store_result": RANGE,
}


def covers_closed(rect: Rect, point: Point) -> bool:
    """Closed-edge point coverage (the store's range-query semantics)."""
    return rect.x <= point.x <= rect.x2 and rect.y <= point.y <= rect.y2


def union_covers(parts: List[Rect], target: Rect) -> bool:
    """Whether the union of ``parts`` covers ``target`` (up to area 1e-9).

    Exact by coordinate compression: the target is cut along every part
    edge inside it, and each resulting cell must lie in some part.
    """
    xs = {target.x, target.x2}
    ys = {target.y, target.y2}
    clipped = []
    for part in parts:
        x0, x1 = max(part.x, target.x), min(part.x2, target.x2)
        y0, y1 = max(part.y, target.y), min(part.y2, target.y2)
        if x0 >= x1 or y0 >= y1:
            continue
        clipped.append((x0, y0, x1, y1))
        xs.update((x0, x1))
        ys.update((y0, y1))
    if not clipped:
        return target.area <= 1e-9
    xs_sorted = sorted(xs)
    ys_sorted = sorted(ys)
    for i in range(len(xs_sorted) - 1):
        cx = (xs_sorted[i] + xs_sorted[i + 1]) / 2.0
        for j in range(len(ys_sorted) - 1):
            cy = (ys_sorted[j] + ys_sorted[j + 1]) / 2.0
            if not any(
                x0 <= cx <= x1 and y0 <= cy <= y1
                for x0, y0, x1, y1 in clipped
            ):
                return False
    return True


class Op:
    """One outstanding client operation."""

    __slots__ = (
        "request_id", "kind", "origin", "due", "deadline", "point", "rect",
        "expected", "object_id", "regions", "records", "done",
    )

    def __init__(self, request_id: int, kind: str, origin: Any, due: float,
                 deadline: float, point: Optional[Point] = None,
                 rect: Optional[Rect] = None,
                 expected: Optional[Set[Any]] = None,
                 object_id: Any = None) -> None:
        self.request_id = request_id
        self.kind = kind
        self.origin = origin
        self.due = due
        self.deadline = deadline
        self.point = point
        self.rect = rect
        #: Exact expected answer of a range lookup (object ids), or
        #: ``None`` when the object set moves and only plausibility can
        #: be checked.
        self.expected = expected
        #: The object a store update writes.
        self.object_id = object_id
        self.regions: List[Rect] = []
        self.records: Dict[Any, Any] = {}
        self.done = False


class OpLedger:
    """Outstanding operations, their outcomes and latencies."""

    def __init__(self, clock: Callable[[], float],
                 latest_version: Optional[Callable[[Any], int]] = None,
                 serves_hole: Optional[Callable[[Any, Point], bool]] = None,
                 ) -> None:
        self.clock = clock
        #: Highest version written per object id (moving-object store
        #: checks); ``None`` when objects are static.
        self.latest_version = latest_version
        #: Whether an executor whose own region misses a point answered
        #: it legitimately, as caretaker of a hole no live primary covers.
        self.serves_hole = serves_hole
        self.pending: Dict[int, Op] = {}
        self._by_due: Dict[str, Deque[Op]] = {kind: deque() for kind in OP_KINDS}
        self.latencies: Dict[str, List[float]] = {kind: [] for kind in OP_KINDS}
        self.issued = {kind: 0 for kind in OP_KINDS}
        self.unanswered = {kind: 0 for kind in OP_KINDS}
        self.wrong = {kind: 0 for kind in OP_KINDS}
        self.orphaned = 0
        #: Routed operations (lookups, updates) and how many landed on a
        #: region that already answered one from the same origin.
        self.routed = 0
        self.routed_hops = 0
        self.routed_repeat = 0
        self._seen_executors: Set[Any] = set()
        #: Objects with at least one acknowledged write: none may be lost.
        self.acked_ids: Set[Any] = set()
        #: Acknowledged objects that no live primary held at the end.
        self.lost = 0
        #: Objects whose writes were never acknowledged: they may or may
        #: not be stored, so range checks ignore them.
        self.unsure_ids: Set[Any] = set()
        #: Messages whose handler raised, and the first such traceback.
        self.handler_errors = 0
        self.first_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, op: Op) -> None:
        self.pending[op.request_id] = op
        self._by_due[op.kind].append(op)
        self.issued[op.kind] += 1

    # ------------------------------------------------------------------
    # Answers (called from the origin's registered handler)
    # ------------------------------------------------------------------
    def observe(self, message: Any) -> None:
        """Account an answer-bearing message if it answers a pending op."""
        kind = _ANSWER_KINDS.get(message.kind)
        if kind is None:
            return
        body = message.body
        op = self.pending.get(body.request_id)
        if op is None or op.done or op.kind != kind:
            return
        if kind == RANGE:
            op.regions.append(body.region)
            for record in body.records:
                held = op.records.get(record.object_id)
                if held is None or record.version > held.version:
                    op.records[record.object_id] = record
            if not union_covers(op.regions, op.rect):
                return
            self._finish(op, self.check_range(op))
            return
        region = body.region
        ok = region is not None and covers_closed(region, op.point)
        if not ok and self.serves_hole is not None:
            ok = self.serves_hole(body.executor, op.point)
        if ok and region is not None:
            self.routed += 1
            self.routed_hops += body.hops
            key = (op.origin.address, region)
            if key in self._seen_executors:
                self.routed_repeat += 1
            else:
                self._seen_executors.add(key)
        self._finish(op, ok)

    def check_range(self, op: Op) -> bool:
        """Whether a completed range answer is right."""
        inside = {
            object_id
            for object_id, record in op.records.items()
            if covers_closed(op.rect, record.point)
        } - self.unsure_ids
        if op.expected is not None:
            return inside == op.expected
        if len(inside) != len(op.records.keys() - self.unsure_ids):
            return False
        latest = self.latest_version
        return all(
            latest is not None and record.version <= latest(object_id)
            for object_id, record in op.records.items()
        )

    def _finish(self, op: Op, ok: bool) -> None:
        op.done = True
        del self.pending[op.request_id]
        if ok:
            self.latencies[op.kind].append(self.clock() - op.due)
            if op.object_id is not None:
                self.acked_ids.add(op.object_id)
                self.unsure_ids.discard(op.object_id)
        else:
            self.wrong[op.kind] += 1

    def record_error(self, message: Any, error: BaseException) -> None:
        """Account a handler that raised while processing ``message``."""
        self.handler_errors += 1
        if self.first_error is None:
            self.first_error = (
                f"{message.kind} handler raised "
                + "".join(traceback.format_exception(error)).strip()
            )

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def expire(self, now: float) -> None:
        """Close every op whose deadline passed before ``now``."""
        for kind, queue in self._by_due.items():
            while queue and queue[0].deadline < now:
                op = queue.popleft()
                if op.done:
                    continue
                op.done = True
                del self.pending[op.request_id]
                if op.origin.alive:
                    self.unanswered[kind] += 1
                else:
                    self.orphaned += 1

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def attempted(self) -> int:
        return sum(self.issued.values()) - self.orphaned - len(self.pending)

    @property
    def failed(self) -> int:
        return (sum(self.unanswered.values()) + sum(self.wrong.values())
                + self.lost)

    def outcomes(self) -> Dict[str, Any]:
        """Latencies and outcome counts, for merging across instances."""
        return {
            "latencies": {kind: list(values)
                          for kind, values in self.latencies.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "unanswered": dict(self.unanswered),
            "wrong": dict(self.wrong),
            "orphaned": self.orphaned,
            "routed": self.routed,
            "routed_hops": self.routed_hops,
            "routed_repeat": self.routed_repeat,
            "handler_errors": self.handler_errors,
            "lost": self.lost,
        }


def client_edge_handler(
    observe: Callable[[Any], None],
    on_error: Callable[[Any, BaseException], None],
    handler: Callable[[Any], None],
) -> Callable[[Any], None]:
    """The origin-side observation point, in front of the node handler.

    It is also the node's process boundary: a handler that raises loses
    that one message, as a server process logging the error would, and
    the error is reported instead of ending the whole simulation.
    """

    def handle(message: Any) -> None:
        if message.kind in _ANSWER_KINDS:
            observe(message)
        try:
            handler(message)
        except Exception as error:  # noqa: BLE001 - reported by on_error
            on_error(message, error)

    return handle


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``values`` need not be sorted)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]
