"""The message-level GeoGrid protocol.

The overlay model in :mod:`repro.core` / :mod:`repro.dualpeer` is the
authoritative, synchronous description of GeoGrid's structure; this
package executes the same logic the way the paper's prototype did -- as
asynchronous message handlers running over a simulated network with
latency, loss and failures:

* join requests routed greedily to the covering region, answered with a
  split grant or (dual peer) a secondary-slot grant;
* location-store updates and range lookups routed hop by hop using each
  node's *local* neighbor table only, with primary-to-secondary
  replication (a geo-tagged publish is a store update);
* continuous-query subscriptions notified of matching store updates;
* heartbeats at two frequencies -- fast between the owners of one region,
  slower between neighbor primaries -- driving failure detection, and
  dual-peer failover when a primary dies.

Degraded-state behavior (documented in DESIGN.md): when the *last* owner
of a region fails, adjacent nodes become caretakers for routing purposes
and the hole is filled by the next join routed into it; when unreliable
failure detection double-assigns territory (split brain), witnesses
forward the deterministic winner's claim, the claimants confront each
other directly, and the loser abandons and rejoins.  The full repair
process is also modeled authoritatively in the overlay layer.
"""

from repro.protocol.messages import (
    HEARTBEAT,
    JOIN_GRANT,
    JOIN_REQUEST,
    NEIGHBOR_UPDATE,
    RELIABLE,
    RELIABLE_ACK,
    ROUTE,
    ROUTE_DELIVERED,
    SYNC_STATE,
    NeighborInfo,
)
from repro.protocol.node import NodeConfig, OwnedRegion, ProtocolNode
from repro.protocol.cluster import ProtocolCluster
from repro.protocol.reliable import (
    DeadLetter,
    ReliableChannel,
    ReliableStats,
    RetryPolicy,
)

__all__ = [
    "ProtocolNode",
    "ProtocolCluster",
    "NodeConfig",
    "OwnedRegion",
    "NeighborInfo",
    "ReliableChannel",
    "ReliableStats",
    "RetryPolicy",
    "DeadLetter",
    "JOIN_REQUEST",
    "JOIN_GRANT",
    "NEIGHBOR_UPDATE",
    "ROUTE",
    "ROUTE_DELIVERED",
    "RELIABLE",
    "RELIABLE_ACK",
    "HEARTBEAT",
    "SYNC_STATE",
]
