"""The seeded message stream is pinned: speed-ups must not change it.

Each expected fingerprint (see ``stream_digest.py``) is the stream the
protocol sent before the scheduler, transport, geometry and routing hot
paths were optimized.  A change that only makes the simulator faster
sends exactly the same messages in the same order, so a mismatch here is
a behaviour change, to be made on purpose and re-pinned with
``python -m tests.protocol.stream_digest --seed N``.
"""

import pytest

from tests.protocol.stream_digest import stream_digest

PINNED = {
    1: {
        "sent_by_kind": {
            "grant_decline": 1, "heartbeat": 4980, "join_request": 53,
            "neighbor_update": 353, "reliable": 741, "reliable_ack": 721,
            "route": 605, "route_delivered": 710, "shortcut_hop": 645,
            "store_ack": 235, "store_fanout": 106, "store_lookup": 52,
            "store_result": 130, "store_sync": 85, "sync_state": 255,
        },
        "fired": 21539,
        "sha256": "4e9c42ddc4e4a720e9cadba84681d8ec"
                  "84e1cb61c31754f93a4e3b6d1bf44056",
    },
    2: {
        "sent_by_kind": {
            "grant_decline": 3, "heartbeat": 4865, "join_grant": 1,
            "join_request": 71, "neighbor_update": 348, "reliable": 636,
            "reliable_ack": 624, "route": 572, "route_delivered": 705,
            "secondary_released": 4, "shortcut_hop": 720, "store_ack": 237,
            "store_fanout": 90, "store_lookup": 45, "store_pull": 2,
            "store_repair": 2, "store_result": 123, "store_sync": 80,
            "sync_state": 248,
        },
        "fired": 21322,
        "sha256": "f2bf95c839479403adeffc7436fcbc3d"
                  "62d10250ca1df5720c5c3a9de3a69adf",
    },
    3: {
        "sent_by_kind": {
            "heartbeat": 5194, "join_request": 53, "neighbor_update": 331,
            "reliable": 658, "reliable_ack": 646, "route": 565,
            "route_delivered": 714, "shortcut_hop": 651, "store_ack": 237,
            "store_fanout": 110, "store_lookup": 51, "store_result": 125,
            "store_sync": 88, "sync_state": 248,
        },
        "fired": 21555,
        "sha256": "f39addf5953a09d6cf706fbea024e057"
                  "2649884a8f0e314896180dcf4ed935af",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_message_stream_is_pinned(seed):
    assert stream_digest(seed) == {"seed": seed, **PINNED[seed]}
