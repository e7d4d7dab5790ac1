"""Neighbor-table repairs that keep routing correct under churn.

Each test pins one mechanism the seeded churn property
(``test_shortcuts.TestChurnProperty``) depends on: stale claims are
retracted or withheld instead of gossiped, a hole's far borders become
the caretaker's neighbors, a stale pre-split claim is not mistaken for a
hole, and a graceful successor keeps its region against the departed
primary's in-flight heartbeats.
"""

import random

from repro.core.node import synthetic_address
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.sim.transport import Message

BOUNDS = Rect(0, 0, 64, 64)


def build_cluster(count=10, seed=11, config=None):
    cluster = ProtocolCluster(BOUNDS, seed=seed, config=config)
    rng = random.Random(seed)
    nodes = [
        cluster.join_node(
            Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
            capacity=rng.choice([1, 10, 100]),
        )
        for _ in range(count)
    ]
    cluster.settle(60)
    return cluster, nodes


def adjacent_primaries(nodes):
    """The first primary with a live primary neighbor, and that neighbor."""
    by_address = {n.address: n for n in nodes if n.alive}
    for node in nodes:
        if not (node.alive and node.is_primary()):
            continue
        for rect, entry in sorted(
            node.neighbor_table.items(), key=lambda kv: kv[0].as_tuple()
        ):
            other = by_address.get(entry.primary)
            if other is not None and other.is_primary():
                return node, other
    raise AssertionError("no two adjacent primaries")


def near_half(rect, of):
    """The half of ``rect`` that keeps its whole shared edge with ``of``."""
    if abs(rect.x - of.x2) < 1e-9:
        return Rect(rect.x, rect.y, rect.width / 2, rect.height)
    if abs(rect.x2 - of.x) < 1e-9:
        return Rect(
            rect.x + rect.width / 2, rect.y, rect.width / 2, rect.height
        )
    if abs(rect.y - of.y2) < 1e-9:
        return Rect(rect.x, rect.y, rect.width, rect.height / 2)
    return Rect(rect.x, rect.y + rect.height / 2, rect.width, rect.height / 2)


class TestStaleClaims:
    def test_first_hand_heartbeat_retracts_the_senders_older_claim(self):
        """A neighbor's heartbeat for its region drops any other table
        entry overlapping that region under the same primary (the
        region it held before a split)."""
        cluster, nodes = build_cluster()
        node, neighbor = adjacent_primaries(nodes)
        stale = near_half(neighbor.owned.rect, node.owned.rect)
        node.neighbor_table[stale] = m.NeighborInfo(
            rect=stale, primary=neighbor.address
        )
        cluster.settle(12)
        assert stale not in node.neighbor_table
        assert node.neighbor_table[neighbor.owned.rect].primary == (
            neighbor.address
        )

    def test_stale_split_claim_is_dropped_not_caretaken(self):
        """A silent claim whose ground a live neighbor already holds is
        a leftover of an older partition, not a hole to caretake."""
        cluster, nodes = build_cluster()
        node, neighbor = adjacent_primaries(nodes)
        ghost = synthetic_address(99)
        stale = near_half(neighbor.owned.rect, node.owned.rect)
        node.neighbor_table[stale] = m.NeighborInfo(rect=stale, primary=ghost)
        node.last_seen[ghost] = cluster.scheduler.now - 1_000.0
        node._check_failures()
        assert stale not in node.neighbor_table
        assert stale not in node.caretaker_rects

    def test_gossip_relays_a_suspected_primary_as_its_secondary(self):
        """Heartbeat gossip names whoever we would route to: the
        secondary of a suspected primary, never the suspect itself."""
        cluster, nodes = build_cluster(count=12, seed=5)
        node, entry = next(
            (n, e)
            for n in nodes
            if n.alive and n.is_primary()
            for e in n.neighbor_table.values()
            if e.secondary is not None
        )
        node.suspected.add(entry.primary)
        beats = []
        send = cluster.network.send

        def spy(source, destination, kind, body):
            if source == node.address and kind == m.HEARTBEAT:
                beats.append(body)
            send(source, destination, kind, body)

        cluster.network.send = spy
        node._send_neighbor_heartbeats()
        assert beats
        for beat in beats:
            relayed = [i for i in beat.neighbors if i.rect == entry.rect]
            assert relayed == [
                m.NeighborInfo(rect=entry.rect, primary=entry.secondary)
            ]
            assert all(i.primary != entry.primary for i in beat.neighbors)


class TestHoleBorders:
    def crashed_strip(self):
        """Crash the middle of three stacked regions on the right half.

        The partition is the bottom half, the top-left quadrant and two
        stacked strips on the top right; crashing the lower strip leaves
        a hole between the bottom half and the upper strip, which only
        border each other across it.  The shortcut cache is off, so
        routing sees only neighbor tables.
        """
        cluster = ProtocolCluster(
            BOUNDS,
            seed=3,
            config=NodeConfig(dual_peer=False, shortcut_cache_size=0),
        )
        for x, y in [(16, 16), (48, 16), (16, 48), (48, 48)]:
            cluster.join_node(Point(x, y))
        cluster.settle(40)

        def at(x, y):
            return next(
                n
                for n in cluster.nodes.values()
                if n.alive and n.owned.rect.covers(Point(x, y))
            )

        victim, above, below = at(48, 40), at(48, 56), at(16, 16)
        assert not above.owned.rect.is_neighbor_of(below.owned.rect)
        assert victim.owned.rect.is_neighbor_of(above.owned.rect)
        assert victim.owned.rect.is_neighbor_of(below.owned.rect)
        hole = victim.owned.rect
        cluster.crash_node(victim.node.node_id)
        cluster.settle(90)
        return cluster, hole, above, below

    def test_caretakers_adopt_the_holes_far_borders(self):
        cluster, hole, above, below = self.crashed_strip()
        assert hole in above.caretaker_rects and hole in below.caretaker_rects
        assert above.neighbor_table[below.owned.rect].primary == below.address
        assert below.neighbor_table[above.owned.rect].primary == above.address

    def test_routing_crosses_the_hole(self):
        """Without the far border the request dead-ends at the caretaker:
        no neighbor of the bottom half is strictly closer to the target
        (the top-left quadrant is 30 away, the bottom half itself 18)."""
        cluster, _, above, below = self.crashed_strip()
        ack = cluster.lookup(below.node.node_id, Point(62, 50))
        assert ack.executor == above.address

    def test_borders_are_dropped_once_the_hole_is_filled(self):
        cluster, hole, above, below = self.crashed_strip()
        cluster.join_node(Point(48, 40))
        cluster.settle(60)
        assert hole not in below.caretaker_rects
        assert above.owned.rect not in below.neighbor_table
        assert below.owned.rect not in above.neighbor_table


class TestDepartureHandoff:
    def test_successor_keeps_region_against_departed_heartbeat(self):
        """A heartbeat the departing primary sent before leaving must not
        win the region back from its successor (the departer's address
        sorts first, so first-hand evidence would make us yield)."""
        cluster = ProtocolCluster(BOUNDS, seed=5)
        first = cluster.join_node(Point(10, 10), capacity=10)
        second = cluster.join_node(Point(20, 20), capacity=10)
        cluster.settle(20)
        assert second.owned.role == "secondary"
        assert second.owned.peer == first.address
        cluster.depart_node(first.node.node_id)
        cluster.settle(5)
        assert second.is_primary()
        rect = second.owned.rect
        second._on_heartbeat(
            Message(
                source=first.address,
                destination=second.address,
                kind=m.HEARTBEAT,
                body=m.HeartbeatBody(rect=rect, role="primary"),
                sent_at=cluster.scheduler.now,
            )
        )
        assert second.is_primary()
        assert second.owned.rect == rect
