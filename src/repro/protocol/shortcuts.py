"""The adaptive routing shortcut cache (long-range entries per node).

GeoGrid's greedy routing only ever consults direct neighbors, paying the
full O(2*sqrt(N)) straight-line walk for every request.  Adaptive
overlays (GeoP2P-style) show that caching remote peers gleaned from
passing traffic collapses this: a node that has *seen* a far-away region
-- in heartbeat gossip, on a STORE_ACK return path, in a query result --
can jump straight toward it, while the strict-progress rule keeps greedy
termination intact.

This module holds the bounded, LRU-ordered cache each node maintains.
Entries are learned passively (zero new steady-state messages), evicted
eagerly whenever the node hears about a partition change overlapping the
cached rectangle, and repaired lazily through MISROUTE NACKs when a
stale entry is exercised anyway.  An entry nobody re-confirms also ages
out: a far region whose primary departs or crashes is announced only to
its neighbors, and a hop sent to a vanished endpoint gets no NACK, so
only expiry keeps such an entry from black-holing requests for good.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

from repro.core.node import NodeAddress
from repro.geometry import Point, Rect
from repro.protocol import messages as m


class ShortcutCache:
    """A bounded LRU of learned ``(rect, primary, secondary)`` entries.

    Keys are region rectangles; values are :class:`~repro.protocol.
    messages.NeighborInfo` records naming the region's current owner(s).
    Capacity zero disables the cache entirely (used by forensic replays,
    where routing must be bit-for-bit reproducible against the journal).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        #: Forwarding decisions resolved through a cached entry.
        self.hits = 0
        #: Forwarding decisions that fell back to a plain neighbor hop.
        self.misses = 0
        #: Stale entries repaired through a MISROUTE NACK.
        self.repairs = 0
        #: Entries in LRU order, least recently used first.  A plain dict
        #: (re-inserting a key moves it to the end): iterating an
        #: ``OrderedDict`` re-hashes every key, and ``best`` iterates the
        #: cache on every routing hop.
        self._entries: Dict[Rect, m.NeighborInfo] = {}
        #: When each entry was last learned (or re-confirmed).
        self._learned_at: Dict[Rect, float] = {}
        #: A lower bound on the stamps in ``_learned_at``: no entry can
        #: expire before ``fresh_since`` passes it.
        self._stamp_floor = math.inf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything (capacity zero disables)."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rect: Rect) -> bool:
        return rect in self._entries

    def get(self, rect: Rect) -> Optional[m.NeighborInfo]:
        """The cached info for exactly ``rect``, or ``None``."""
        return self._entries.get(rect)

    def entries(self) -> List[m.NeighborInfo]:
        """All cached entries, least recently used first."""
        return list(self._entries.values())

    def rects(self) -> Iterator[Rect]:
        """The cached rectangles, least recently used first."""
        return iter(list(self._entries))

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def learn(self, info: m.NeighborInfo, now: float = 0.0) -> bool:
        """Insert or refresh an entry; returns whether anything changed.

        ``now`` stamps the entry as confirmed at that time.  A new
        rectangle that overlaps cached rectangles replaces them (the
        overlapped entries describe a pre-split/pre-merge partition and
        are stale by construction).  Insertion past capacity evicts the
        least recently used entry.
        """
        if not self.enabled:
            return False
        self._learned_at[info.rect] = now
        if now < self._stamp_floor:
            self._stamp_floor = now
        existing = self._entries.pop(info.rect, None)
        if existing is not None:
            self._entries[info.rect] = info
            return existing != info
        for rect in self._overlapping(info.rect):
            self._drop(rect)
        self._entries[info.rect] = info
        while len(self._entries) > self.capacity:
            self._drop(next(iter(self._entries)))
        return True

    def touch(self, rect: Rect) -> None:
        """Mark ``rect`` as most recently used (after a successful hop)."""
        info = self._entries.pop(rect, None)
        if info is not None:
            self._entries[rect] = info

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _overlapping(self, rect: Rect) -> List[Rect]:
        """Cached rects sharing area with ``rect`` (``Rect.intersects``,
        inlined: gossip runs this for every learned claim)."""
        x, y, x2, y2 = rect.x, rect.y, rect.x2, rect.y2
        return [
            r for r in self._entries
            if r.x < x2 and x < r.x2 and r.y < y2 and y < r.y2
        ]

    def _drop(self, rect: Rect) -> None:
        del self._entries[rect]
        self._learned_at.pop(rect, None)

    def invalidate_rect(self, rect: Rect) -> bool:
        """Drop the entry for exactly ``rect``; returns whether one existed."""
        if rect not in self._entries:
            return False
        self._drop(rect)
        return True

    def invalidate_overlapping(self, rect: Rect) -> int:
        """Drop every entry equal to or sharing area with ``rect``.

        Called for every partition change the node hears about: a split,
        merge, adaptation or failover announcement for ``rect`` makes any
        cached claim overlapping it suspect.  Returns the eviction count.
        """
        stale = self._overlapping(rect)
        if rect in self._entries and rect not in stale:
            stale.append(rect)  # a rect too thin for float arithmetic
        for r in stale:
            self._drop(r)
        return len(stale)

    def invalidate_address(self, address: NodeAddress) -> int:
        """Drop entries routed through a now-suspected ``address``.

        Entries whose *primary* is the dead address are removed; entries
        that merely name it as secondary survive with the secondary
        cleared (the primary can still accept shortcut hops).  Returns
        the number of removed entries.
        """
        removed = 0
        for rect in list(self._entries):
            info = self._entries[rect]
            if info.primary == address:
                self._drop(rect)
                removed += 1
            elif info.secondary == address:
                self._entries[rect] = info.with_secondary(None)
        return removed

    def clear(self) -> int:
        """Drop everything (ownership changed under us); returns count."""
        count = len(self._entries)
        self._entries.clear()
        self._learned_at.clear()
        self._stamp_floor = math.inf
        return count

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def best(
        self,
        target: Point,
        better_than: float,
        eps: float = 1e-12,
        fresh_since: Optional[float] = None,
    ) -> Optional[m.NeighborInfo]:
        """The cached entry closest to ``target``, if strictly better.

        Returns the entry whose rectangle minimizes the distance to
        ``target``, provided that distance is strictly below
        ``better_than`` (the caller passes its best plain-neighbor
        distance, preserving the strict-progress termination argument).
        Entries last confirmed before ``fresh_since`` are expired first;
        ties go to the least recently used entry.
        """
        if fresh_since is not None and fresh_since > self._stamp_floor:
            self._expire(fresh_since)
        best_info: Optional[m.NeighborInfo] = None
        best_dist = better_than - eps
        if best_dist <= 0.0:
            return None  # no distance is negative
        tx = target.x
        ty = target.y
        # Rect.distance_to_point, inlined: this scan runs on every hop.
        for rect, info in self._entries.items():
            dx = rect.x - tx
            if dx < 0.0:
                dx = tx - rect.x2
                if dx < 0.0:
                    dx = 0.0
            dy = rect.y - ty
            if dy < 0.0:
                dy = ty - rect.y2
                if dy < 0.0:
                    dy = 0.0
            distance = (dx * dx + dy * dy) ** 0.5
            if distance < best_dist:
                best_info, best_dist = info, distance
                if distance == 0.0:
                    break  # ties go to the earlier entry
        return best_info

    def _expire(self, fresh_since: float) -> None:
        """Drop entries last confirmed before ``fresh_since``.

        Entries without a stamp never expire.
        """
        learned_at = self._learned_at
        for rect in [r for r, at in learned_at.items() if at < fresh_since]:
            self._drop(rect)
        self._stamp_floor = min(learned_at.values(), default=math.inf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShortcutCache(capacity={self.capacity}, "
            f"entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, repairs={self.repairs})"
        )
