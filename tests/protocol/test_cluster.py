"""Integration tests: the protocol cluster end to end."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.sim.latency import DistanceLatency

BOUNDS = Rect(0, 0, 64, 64)


def grow_cluster(cluster, count, seed=20, capacities=(1, 10, 100)):
    rng = random.Random(seed)
    nodes = []
    for _ in range(count):
        nodes.append(
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=rng.choice(capacities),
            )
        )
    return nodes


class TestGrowth:
    def test_twenty_nodes_consistent_partition(self):
        cluster = ProtocolCluster(BOUNDS, seed=6)
        grow_cluster(cluster, 20)
        cluster.settle(60)
        cluster.check_partition()
        assert cluster.alive_count() == 20

    def test_partition_under_latency(self):
        cluster = ProtocolCluster(BOUNDS, seed=7, latency=DistanceLatency())
        grow_cluster(cluster, 15)
        cluster.settle(60)
        cluster.check_partition()

    def test_partition_under_message_loss(self):
        cluster = ProtocolCluster(BOUNDS, seed=8, drop_probability=0.02)
        grow_cluster(cluster, 15)
        cluster.settle(90)
        cluster.check_partition()

    def test_dual_peer_regions_form(self):
        cluster = ProtocolCluster(BOUNDS, seed=9)
        grow_cluster(cluster, 20)
        cluster.settle(30)
        secondaries = sum(
            1 for node in cluster.nodes.values()
            if node.alive and node.is_secondary()
        )
        assert secondaries > 0
        assert len(cluster.primary_rects()) + secondaries == 20


class TestRouting:
    def test_lookup_from_every_node(self):
        cluster = ProtocolCluster(BOUNDS, seed=10)
        nodes = grow_cluster(cluster, 12)
        cluster.settle(60)
        for node in nodes[:6]:
            ack = cluster.lookup(node.node.node_id, Point(32, 32))
            assert ack is not None

    def test_hops_bounded(self):
        cluster = ProtocolCluster(BOUNDS, seed=11)
        nodes = grow_cluster(cluster, 25)
        cluster.settle(60)
        region_count = len(cluster.primary_rects())
        bound = 2 * (region_count ** 0.5)
        rng = random.Random(2)
        total_hops = []
        for _ in range(10):
            node = rng.choice(nodes)
            ack = cluster.lookup(
                node.node.node_id,
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            )
            total_hops.append(ack.hops)
        assert sum(total_hops) / len(total_hops) <= bound


class TestFailover:
    def test_crash_of_backed_primary_promotes_secondary(self):
        cluster = ProtocolCluster(BOUNDS, seed=12)
        grow_cluster(cluster, 16)
        cluster.settle(40)
        victim = next(
            node for node in cluster.nodes.values()
            if node.alive and node.is_primary() and node.owned.peer is not None
        )
        rect = victim.owned.rect
        peer_address = victim.owned.peer
        cluster.crash_node(victim.node.node_id)
        cluster.settle(30)
        promoted = [
            node for node in cluster.nodes.values()
            if node.alive and node.is_primary() and node.owned.rect == rect
        ]
        assert len(promoted) == 1
        assert promoted[0].address == peer_address
        cluster.check_partition()

    def test_replicated_data_survives_crash(self):
        cluster = ProtocolCluster(BOUNDS, seed=13)
        nodes = grow_cluster(cluster, 10)
        cluster.settle(40)
        victim = next(
            node for node in cluster.nodes.values()
            if node.alive and node.is_primary() and node.owned.peer is not None
        )
        inside = victim.owned.rect.center
        observer = next(
            node for node in nodes
            if node.node.node_id != victim.node.node_id
        )
        cluster.publish(observer.node.node_id, inside, "precious")
        cluster.run_for(15)  # let replication flow
        cluster.crash_node(victim.node.node_id)
        cluster.settle(30)
        records = cluster.store_lookup(
            observer.node.node_id,
            Rect(inside.x - 1, inside.y - 1, 2, 2),
        )
        assert "precious" in [record.payload for record in records]

    def test_takeover_restarts_inherited_neighbor_clocks(self):
        """Regression: a secondary hears its region's neighbors only
        through incidental traffic (an ack, a relayed request), so its
        last sighting of one can be arbitrarily old.  Failover judged the
        inherited neighbor table by those sightings, suspected live
        neighbors on the first sweep and caretook their regions; the
        neighbor, still addressing the dead primary, never heartbeated
        the new one, and the link stayed broken for good (found by the
        pubsub chaos campaign, crash_restart, population 8, seed 7)."""
        cluster = ProtocolCluster(BOUNDS, seed=12)
        grow_cluster(cluster, 16)
        cluster.settle(40)
        secondary = next(
            node for node in cluster.nodes.values()
            if node.alive and node.is_secondary()
            and node._replicated_neighbors
        )
        for info in secondary._replicated_neighbors:
            secondary.last_seen[info.primary] = 0.0  # heard long ago
        secondary._take_over_primary()
        secondary._check_failures()
        inherited = {
            info.primary for info in secondary.neighbor_table.values()
        }
        assert inherited
        assert not inherited & secondary.suspected
        assert not secondary.caretaker_rects

    def test_crash_of_secondary_is_harmless(self):
        cluster = ProtocolCluster(BOUNDS, seed=14)
        grow_cluster(cluster, 10)
        cluster.settle(30)
        victim = next(
            node for node in cluster.nodes.values()
            if node.alive and node.is_secondary()
        )
        cluster.crash_node(victim.node.node_id)
        cluster.settle(30)
        cluster.check_partition()

    def test_join_fills_hole_after_unbacked_failure(self):
        """When a region's last owner dies, the hole is filled by the next
        join routed into it (caretaker behavior)."""
        cluster = ProtocolCluster(
            BOUNDS, seed=15, config=NodeConfig(dual_peer=False)
        )
        grow_cluster(cluster, 8)
        cluster.settle(40)
        victim = next(
            node for node in cluster.nodes.values()
            if node.alive and node.is_primary()
        )
        hole = victim.owned.rect
        cluster.crash_node(victim.node.node_id)
        cluster.settle(40)  # neighbors detect and become caretakers
        joiner = cluster.join_node(hole.center, capacity=5)
        cluster.settle(40)
        assert joiner.is_primary()
        assert joiner.owned.rect == hole
        cluster.check_partition()


class TestChurnIntegration:
    def test_mixed_churn_stays_consistent(self):
        cluster = ProtocolCluster(BOUNDS, seed=16)
        nodes = grow_cluster(cluster, 14)
        cluster.settle(40)
        rng = random.Random(5)
        # Interleave departures, crashes of backed primaries, and joins.
        departures = 0
        for _ in range(4):
            candidates = [
                node for node in cluster.nodes.values()
                if node.alive and (
                    node.is_secondary()
                    or (node.is_primary() and node.owned.peer is not None)
                )
            ]
            victim = rng.choice(candidates)
            if rng.random() < 0.5:
                cluster.depart_node(victim.node.node_id)
            else:
                cluster.crash_node(victim.node.node_id)
            departures += 1
            cluster.settle(40)
            cluster.join_node(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
                capacity=rng.choice([1, 10]),
            )
            cluster.settle(40)
        cluster.check_partition()
        assert cluster.alive_count() == 14
