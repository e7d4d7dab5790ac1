#!/usr/bin/env python
"""Traffic monitor: the message-level protocol under churn and failure.

A city deploys GeoGrid proxies that collect roadside reports ("accident at
mile 12", "slowdown near the bridge") published to the region covering the
incident; each report is a write into the covering region's location
store.  Drivers issue rectangular range lookups ("what is happening
within 5 miles of my route?").  Midway, a proxy crashes: its dual-peer
secondary detects the silence via heartbeats, promotes itself, and the
data keeps being served -- all of it over the simulated network with
geographic latency, no global state.

Run:  python examples/traffic_monitor.py
"""

import random

from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster
from repro.sim.latency import DistanceLatency

BOUNDS = Rect(0, 0, 64, 64)

#: The I-85 corridor: incidents happen along this diagonal.
HIGHWAY = [Point(4 + i * 3.0, 10 + i * 2.5) for i in range(18)]


def main() -> None:
    rng = random.Random(17)
    cluster = ProtocolCluster(
        BOUNDS, seed=17, latency=DistanceLatency(), drop_probability=0.01
    )

    print("deploying 30 roadside proxies...")
    nodes = []
    for _ in range(30):
        coord = Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5))
        nodes.append(
            cluster.join_node(coord, capacity=rng.choice([1, 10, 100]))
        )
    cluster.settle(60)
    cluster.check_partition()
    print(f"  {cluster.alive_count()} proxies, "
          f"{len(cluster.primary_rects())} regions, partition consistent")

    print("publishing rush-hour incident reports along the corridor...")
    acked = 0
    for index, point in enumerate(HIGHWAY):
        reporter = rng.choice(nodes)
        request_id = cluster.publish(
            reporter.node.node_id, point, f"incident-{index} at {point}"
        )
        acked += request_id in reporter.store_acks
    print(f"  {len(HIGHWAY)} reports published, {acked} acknowledged "
          f"by the covering region")

    commuter = nodes[0].node.node_id
    window = Rect(10, 12, 14, 12)
    found = sorted(
        record.payload for record in cluster.store_lookup(commuter, window)
    )
    print(f"commuter lookup over {window}: "
          f"{len(found)} incidents: {found[:4]}...")

    # Crash the primary proxy serving the middle of the corridor.
    mid = HIGHWAY[len(HIGHWAY) // 2]
    victim = None
    for pnode in cluster.nodes.values():
        if (
            pnode.alive and pnode.is_primary()
            and pnode.owned.rect.covers(mid, closed_low_x=True, closed_low_y=True)
            and pnode.owned.peer is not None
        ):
            victim = pnode
            break
    if victim is None:
        print("(no dual-peer primary covers the corridor midpoint; skipping crash)")
        return
    print(f"crashing proxy {victim.node.node_id} "
          f"(serves {victim.owned.rect}, backup at {victim.owned.peer})...")
    reports_before = len(victim.owned.store)
    cluster.crash_node(victim.node.node_id)
    cluster.settle(40)
    cluster.check_partition()

    survivors = [
        pnode for pnode in cluster.nodes.values()
        if pnode.alive and pnode.is_primary()
        and pnode.owned.rect == victim.owned.rect
    ]
    print(f"  secondary {survivors[0].node.node_id} took over; "
          f"{len(survivors[0].owned.store)}/{reports_before} replicated "
          f"reports survived")

    found_after = cluster.store_lookup(commuter, window)
    print(f"commuter re-lookup: {len(found_after)} incidents still served "
          f"after the failure")
    stats = cluster.network.stats
    print(f"transport: {stats.sent} messages sent, {stats.delivered} "
          f"delivered, {stats.dropped_random} lost in the network")


if __name__ == "__main__":
    main()
