"""A fingerprint of a seeded protocol run's full message stream.

Runs a 32-node :class:`~repro.protocol.ProtocolCluster` under
:class:`~repro.sim.latency.DistanceLatency` with point lookups, store
updates, range lookups and one crash, and records every send.  The
fingerprint is the per-kind send counts, the number of fired scheduler
events, and a sha256 over the ordered ``(sent_at, kind, source,
destination)`` of every send.  A change that claims to alter only how
fast the simulator runs must leave all three unchanged::

    PYTHONPATH=src python -m tests.protocol.stream_digest --seed 1

``test_stream_digest.py`` pins the fingerprint for a few seeds.
"""

import argparse
import hashlib
import json
import random
import sys
from typing import Any, Dict

from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster
from repro.sim.latency import DistanceLatency

BOUNDS = Rect(0, 0, 64, 64)
NODES = 32


def _random_point(rng: random.Random) -> Point:
    return Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5))


def stream_digest(seed: int) -> Dict[str, Any]:
    """Run the seeded scenario; return its message-stream fingerprint."""
    cluster = ProtocolCluster(BOUNDS, seed=seed, latency=DistanceLatency())
    network = cluster.network
    scheduler = cluster.scheduler
    digest = hashlib.sha256()
    send = network.send

    def recorded_send(source, destination, kind, body):
        digest.update(
            f"{scheduler.now!r}|{kind}|{source}|{destination}\n".encode()
        )
        send(source, destination, kind, body)

    # Nodes and their reliable channels call ``network.send`` through the
    # instance, so shadowing it there sees every send.
    network.send = recorded_send  # type: ignore[method-assign]
    rng = random.Random(seed)
    nodes = [cluster.join_node(_random_point(rng)) for _ in range(NODES)]
    cluster.settle(30)

    def traffic(units: int) -> None:
        live = [n for n in nodes if n.alive and n.joined]
        for unit in range(units):
            for _ in range(12):
                rng.choice(live).send_to_point(_random_point(rng), None)
            for index in range(4):
                rng.choice(live).store_update(
                    ("obj", index), _random_point(rng), version=unit
                )
            corner = _random_point(rng)
            rng.choice(live).store_lookup(
                Rect(corner.x, corner.y,
                     min(8.0, 64.0 - corner.x), min(8.0, 64.0 - corner.y))
            )
            cluster.run_for(1.0)

    traffic(20)
    victim = next(n for n in reversed(nodes) if n.is_primary())
    cluster.crash_node(victim.node.node_id)
    traffic(40)
    cluster.settle(20)
    return {
        "seed": seed,
        "sent_by_kind": dict(sorted(network.stats.by_kind.items())),
        "fired": scheduler.fired,
        "sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(stream_digest(args.seed), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
