"""Location-based publish/subscribe on top of the GeoGrid overlay.

Subscriptions are standing location queries (Section 2.2): a subscription
over a rectangle is routed to the region covering its center and fanned
out to every region overlapping the rectangle, where it stays registered
until it expires.  A publication is a geo-tagged event routed to the
region covering its coordinate; the owning region matches it against its
registered subscriptions and notifies the focal nodes.

The service survives overlay restructuring: when a region splits, the new
half inherits the subscriptions overlapping it; when regions merge, the
survivor absorbs the absorbed region's subscriptions.  (In the deployed
system this state travels with the region hand-off messages; here it hooks
the overlay's structural listeners.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.geometry import Point
from repro.core.node import Node
from repro.core.overlay import BasicGeoGrid
from repro.core.query import LocationQuery, Subscription
from repro.core.region import Region


@dataclass(frozen=True)
class Notification:
    """One delivered event: which subscription matched which publication."""

    subscription: Subscription
    event_point: Point
    payload: Any
    published_at: float

    @property
    def subscriber(self) -> Node:
        """The node that registered the matching subscription."""
        return self.subscription.query.focal


@dataclass
class PubSubStats:
    """Service counters."""

    subscriptions: int = 0
    publications: int = 0
    notifications: int = 0
    expired: int = 0
    rehomed_on_split: int = 0
    absorbed_on_merge: int = 0


class GeoPubSub:
    """The publish/subscribe service of the GeoGrid middleware."""

    def __init__(self, overlay: BasicGeoGrid) -> None:
        self.overlay = overlay
        self._by_region: Dict[Region, List[Subscription]] = {}
        self.stats = PubSubStats()
        #: Notifications delivered, newest last (the "inbox" the examples
        #: and tests read; a deployment would send these over the wire).
        self.delivered: List[Notification] = []
        overlay.split_listeners.append(self._on_region_split)
        overlay.merge_listeners.append(self._on_region_merge)

    # ------------------------------------------------------------------
    # Subscribe
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query: LocationQuery,
        duration: float,
        now: float = 0.0,
    ) -> Subscription:
        """Register a standing location query for ``duration`` time units.

        The subscription is installed at every region overlapping the
        query rectangle, mirroring the paper's fan-out example (regions 2
        and 3 receive the subscription whose center lies in region 5).
        Returns the subscription handle.
        """
        subscription = Subscription(
            query=query, registered_at=now, duration=duration
        )
        outcome = self.overlay.submit_query(query)
        for region in outcome.covered:
            self._by_region.setdefault(region, []).append(subscription)
        self.stats.subscriptions += 1
        return subscription

    def subscriptions_at(self, region: Region) -> List[Subscription]:
        """The subscriptions currently registered at ``region``."""
        return list(self._by_region.get(region, []))

    def active_subscription_count(self, now: float) -> int:
        """Distinct live subscriptions across all regions."""
        live: Set[int] = set()
        for subscriptions in self._by_region.values():
            for subscription in subscriptions:
                if subscription.is_live_at(now):
                    live.add(subscription.query.query_id)
        return len(live)

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        origin: Node,
        point: Point,
        payload: Any,
        now: float = 0.0,
    ) -> List[Notification]:
        """Publish a geo-tagged event; returns the notifications sent.

        The event is routed from ``origin`` to the region covering
        ``point``; that region's registered subscriptions are matched by
        area (the query rectangle must cover the event point), liveness,
        and filter condition.
        """
        route = self.overlay.route_from(origin, point)
        region = route.executor
        self.stats.publications += 1
        notifications: List[Notification] = []
        seen: Set[int] = set()
        for subscription in self._by_region.get(region, []):
            query = subscription.query
            if query.query_id in seen:
                continue
            if not subscription.is_live_at(now):
                continue
            if not query.query_rect.covers(
                point, closed_low_x=True, closed_low_y=True
            ):
                continue
            if not query.matches(payload):
                continue
            seen.add(query.query_id)
            notification = Notification(
                subscription=subscription,
                event_point=point,
                payload=payload,
                published_at=now,
            )
            notifications.append(notification)
            self.delivered.append(notification)
        self.stats.notifications += len(notifications)
        return notifications

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Drop subscriptions whose lifetime ended; returns how many."""
        dropped_ids: Set[int] = set()
        for region, subscriptions in list(self._by_region.items()):
            keep = []
            for subscription in subscriptions:
                if subscription.is_live_at(now):
                    keep.append(subscription)
                else:
                    dropped_ids.add(subscription.query.query_id)
            if keep:
                self._by_region[region] = keep
            else:
                del self._by_region[region]
        self.stats.expired += len(dropped_ids)
        return len(dropped_ids)

    # ------------------------------------------------------------------
    # Overlay restructuring hooks
    # ------------------------------------------------------------------
    def _on_region_split(self, parent: Region, child: Region) -> None:
        """The new half inherits the subscriptions touching it.

        Closed-rect ``touches``, the same rule :meth:`subscribe` fans out
        by: a half that only shares an edge with the watched rect can
        still own matching events on that edge.
        """
        subscriptions = self._by_region.get(parent)
        if not subscriptions:
            return
        parent_keep: List[Subscription] = []
        child_list: List[Subscription] = []
        for subscription in subscriptions:
            rect = subscription.query.query_rect
            if rect.touches(parent.rect):
                parent_keep.append(subscription)
            if rect.touches(child.rect):
                child_list.append(subscription)
                self.stats.rehomed_on_split += 1
        if parent_keep:
            self._by_region[parent] = parent_keep
        else:
            self._by_region.pop(parent, None)
        if child_list:
            self._by_region.setdefault(child, []).extend(child_list)

    def _on_region_merge(self, survivor: Region, absorbed: Region) -> None:
        """The survivor absorbs the absorbed region's subscriptions."""
        subscriptions = self._by_region.pop(absorbed, None)
        if not subscriptions:
            return
        target = self._by_region.setdefault(survivor, [])
        present = {s.query.query_id for s in target}
        for subscription in subscriptions:
            if subscription.query.query_id not in present:
                target.append(subscription)
                present.add(subscription.query.query_id)
                self.stats.absorbed_on_merge += 1

    def check_consistency(self, now: Optional[float] = None) -> None:
        """Assert every stored subscription touches its host region.

        Used by tests after churn: restructuring must never leave a
        subscription registered at a region its query cannot match in.
        """
        for region, subscriptions in self._by_region.items():
            if region not in self.overlay.space.regions:
                raise AssertionError(
                    f"subscriptions registered at dead region {region!r}"
                )
            for subscription in subscriptions:
                if not subscription.query.query_rect.touches(region.rect):
                    raise AssertionError(
                        f"subscription {subscription.query.query_id} does "
                        f"not touch its host region {region!r}"
                    )
