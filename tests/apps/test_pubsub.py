"""Tests for repro.apps.pubsub -- the publish/subscribe service."""

import random

import pytest

from repro.apps import GeoPubSub
from repro.core.overlay import BasicGeoGrid
from repro.core.query import LocationQuery
from repro.dualpeer import DualPeerGeoGrid
from repro.geometry import Point, Rect
from tests.conftest import make_node

BOUNDS = Rect(0, 0, 64, 64)


def build_service(n=40, seed=2, dual=False):
    cls = DualPeerGeoGrid if dual else BasicGeoGrid
    grid = cls(BOUNDS, rng=random.Random(seed))
    rng = random.Random(seed + 1)
    nodes = []
    for i in range(n):
        node = make_node(i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
        grid.join(node)
        nodes.append(node)
    return GeoPubSub(grid), grid, nodes


class TestSubscribe:
    def test_subscription_lands_on_overlapping_regions(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(20, 20, 10, 10), focal=nodes[0])
        service.subscribe(query, duration=30.0)
        hosts = [
            region for region in grid.space.regions
            if query.query_rect.intersects(region.rect)
        ]
        for region in hosts:
            assert any(
                s.query is query for s in service.subscriptions_at(region)
            )
        service.check_consistency()

    def test_active_count(self):
        service, grid, nodes = build_service()
        for i in range(3):
            service.subscribe(
                LocationQuery(
                    query_rect=Rect(10 + i, 10, 4, 4), focal=nodes[i]
                ),
                duration=10.0,
                now=0.0,
            )
        assert service.active_subscription_count(now=5.0) == 3
        assert service.active_subscription_count(now=15.0) == 0


class TestPublish:
    def test_matching_event_notifies_subscriber(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 6, 6), focal=nodes[1])
        service.subscribe(query, duration=60.0)
        notifications = service.publish(
            nodes[2], Point(32, 32), "traffic jam", now=1.0
        )
        assert len(notifications) == 1
        assert notifications[0].subscriber == nodes[1]
        assert notifications[0].payload == "traffic jam"

    def test_event_outside_query_rect_not_matched(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 2, 2), focal=nodes[1])
        service.subscribe(query, duration=60.0)
        assert service.publish(nodes[2], Point(50, 50), "far away") == []

    def test_expired_subscription_not_notified(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 6, 6), focal=nodes[1])
        service.subscribe(query, duration=5.0, now=0.0)
        assert service.publish(nodes[2], Point(32, 32), "late", now=10.0) == []

    def test_condition_filters_payload(self):
        service, grid, nodes = build_service()
        query = LocationQuery(
            query_rect=Rect(30, 30, 6, 6),
            focal=nodes[1],
            condition=lambda payload: "parking" in payload,
        )
        service.subscribe(query, duration=60.0)
        assert service.publish(nodes[2], Point(32, 32), "traffic") == []
        assert len(service.publish(nodes[2], Point(32, 32), "parking open")) == 1

    def test_multiple_subscribers_all_notified(self):
        service, grid, nodes = build_service()
        for i in range(4):
            service.subscribe(
                LocationQuery(query_rect=Rect(28, 28, 8, 8), focal=nodes[i]),
                duration=60.0,
            )
        notifications = service.publish(nodes[9], Point(32, 32), "event")
        assert len(notifications) == 4
        assert {n.subscriber for n in notifications} == set(nodes[:4])

    def test_stats_counted(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 6, 6), focal=nodes[1])
        service.subscribe(query, duration=60.0)
        service.publish(nodes[2], Point(32, 32), "x")
        assert service.stats.subscriptions == 1
        assert service.stats.publications == 1
        assert service.stats.notifications == 1


class TestRestructuring:
    def test_split_rehomes_subscriptions(self):
        service, grid, nodes = build_service(n=2)
        query = LocationQuery(query_rect=Rect(1, 1, 62, 62), focal=nodes[0])
        service.subscribe(query, duration=60.0)
        # New joins split regions; the subscription must follow.
        rng = random.Random(9)
        for i in range(20):
            grid.join(
                make_node(100 + i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            )
        service.check_consistency()
        # An event anywhere inside the big rect still notifies.
        notifications = service.publish(nodes[0], Point(48, 17), "hello")
        assert len(notifications) == 1

    def test_merge_absorbs_subscriptions(self):
        service, grid, nodes = build_service(n=30)
        query = LocationQuery(query_rect=Rect(10, 10, 20, 20), focal=nodes[0])
        service.subscribe(query, duration=60.0)
        rng = random.Random(5)
        leavers = [n for n in nodes[1:] if n.node_id in grid.nodes][:15]
        for node in leavers:
            grid.leave(node)
        service.check_consistency()
        notifications = service.publish(nodes[0], Point(20, 20), "after churn")
        assert len(notifications) == 1

    def test_split_then_merge_round_trip_keeps_one_registration(self):
        """A split followed by the reverse merge must be a no-op.

        Regression guard: the split hands a copy of every overlapping
        subscription to the new half, and the merge folds it back into
        the survivor -- without id-based dedup that round trip would
        leave the survivor hosting the subscription twice (double
        notifications), and stale region keys would keep phantom
        registrations alive at dead regions.
        """
        service, grid, nodes = build_service(n=2)
        query = LocationQuery(query_rect=Rect(1, 1, 62, 62), focal=nodes[0])
        service.subscribe(query, duration=60.0)
        hosted_before = sum(
            len(service.subscriptions_at(region))
            for region in grid.space.regions
        )
        # Split: a third joiner takes half of some region; the wide
        # subscription overlaps both halves, so it is copied across.
        joiner = make_node(100, 48.0, 48.0)
        grid.join(joiner)
        assert service.stats.rehomed_on_split >= 1
        service.check_consistency()
        # Merge: the joiner departs again, folding its half (and the
        # copied subscription) back into a neighbor.
        grid.leave(joiner)
        service.check_consistency()
        # Round trip complete: same number of live registrations as
        # before, every host region holds the subscription exactly once,
        # and none live at regions no longer in the partition.
        assert service.active_subscription_count(now=0.0) == 1
        hosted_after = 0
        for region in grid.space.regions:
            hosts = [
                s
                for s in service.subscriptions_at(region)
                if s.query is query
            ]
            assert len(hosts) <= 1, f"duplicate registration at {region!r}"
            hosted_after += len(hosts)
        assert hosted_after == hosted_before
        phantom_regions = [
            region
            for region in service._by_region
            if region not in grid.space.regions
        ]
        assert not phantom_regions
        # And exactly one notification for a matching event.
        notifications = service.publish(nodes[0], Point(48, 48), "ping")
        assert len(notifications) == 1

    @pytest.mark.parametrize(
        "owner_coord, joiner_coord",
        [((50.0, 50.0), (10.0, 10.0)), ((10.0, 10.0), (50.0, 50.0))],
        ids=["edge-half-is-child", "edge-half-is-parent"],
    )
    def test_edge_touching_subscription_survives_split(
        self, owner_coord, joiner_coord
    ):
        """Regression: ``subscribe`` registers at every region whose
        closed rect touches the watched rect, but the split hook kept a
        subscription only where the rects overlapped in their interiors.
        The half that merely shares an edge with the watched rect lost it,
        though closed-high point coverage makes that half the owner of
        events on the shared edge."""
        grid = BasicGeoGrid(BOUNDS, rng=random.Random(1))
        owner = make_node(0, *owner_coord)
        grid.join(owner)
        service = GeoPubSub(grid)
        # The watched rect's low edge lies on the y = 32 split line.
        query = LocationQuery(query_rect=Rect(10, 32, 10, 10), focal=owner)
        service.subscribe(query, duration=60.0)
        grid.join(make_node(1, *joiner_coord))
        edge_point = Point(15, 32)
        low_half = next(
            region for region in grid.space.regions
            if region.rect == Rect(0, 0, 64, 32)
        )
        assert any(
            s.query is query for s in service.subscriptions_at(low_half)
        )
        notifications = service.publish(owner, edge_point, "on the edge")
        assert [n.payload for n in notifications] == ["on the edge"]
        service.check_consistency()

    def test_consistency_under_dual_peer_churn(self):
        service, grid, nodes = build_service(n=40, dual=True)
        rng = random.Random(7)
        for i in range(6):
            service.subscribe(
                LocationQuery(
                    query_rect=Rect(
                        rng.uniform(2, 40), rng.uniform(2, 40), 12, 12
                    ),
                    focal=nodes[i],
                ),
                duration=120.0,
            )
        alive = list(nodes)
        next_id = 500
        for _ in range(40):
            if rng.random() < 0.5 and len(alive) > 5:
                victim = alive.pop(rng.randrange(len(alive)))
                if rng.random() < 0.5:
                    grid.leave(victim)
                else:
                    grid.fail(victim)
            else:
                node = make_node(
                    next_id, rng.uniform(0.001, 64), rng.uniform(0.001, 64)
                )
                next_id += 1
                grid.join(node)
                alive.append(node)
        grid.check_invariants()
        service.check_consistency()


class TestExpiry:
    def test_expire_removes_dead_subscriptions(self):
        service, grid, nodes = build_service()
        service.subscribe(
            LocationQuery(query_rect=Rect(10, 10, 4, 4), focal=nodes[0]),
            duration=5.0, now=0.0,
        )
        service.subscribe(
            LocationQuery(query_rect=Rect(40, 40, 4, 4), focal=nodes[1]),
            duration=50.0, now=0.0,
        )
        dropped = service.expire(now=10.0)
        assert dropped == 1
        assert service.active_subscription_count(now=10.0) == 1
        service.check_consistency()
