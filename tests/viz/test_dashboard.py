"""Tests for repro.viz.dashboard (the ``repro top`` page renderer)."""

from repro.obs.telemetry import cluster_sample, demo_cluster, drive_traffic
from repro.viz import render_dashboard


def _node_row(address="10.0.0.1:7000", **overrides):
    row = {
        "address": address,
        "version": 3,
        "sent_rate": 1.5,
        "recv_rate": 1.25,
        "retry_rate": 0.0,
        "dead_letters": 0,
        "store_size": 4,
        "anti_entropy_debt": 0,
        "shortcut_hit_rate": 0.5,
        "handler_ms": 0.012,
        "queue_depth": 0,
        "digest_bytes": 87,
        "peers_tracked": 3,
        "flags": [],
    }
    row.update(overrides)
    return row


def _sample(**overrides):
    sample = {
        "time": 42.0,
        "rates": {"sent": 3.0, "recv": 2.5, "retries": 0.0},
        "nodes": [_node_row()],
        "flagged": [],
        "slo": {
            "slo.route.completion": {
                "count": 5, "p50": 1.0, "p95": 2.0, "p99": 2.5, "max": 3.0,
            },
        },
    }
    sample.update(overrides)
    return sample


class TestRenderDashboard:
    def test_no_samples(self):
        assert render_dashboard([]) == "(no samples yet)"

    def test_full_page_sections(self):
        page = render_dashboard([_sample()])
        assert "repro top -- t=42.0s" in page
        assert "cluster rates" in page
        assert "client-edge SLO latency" in page
        assert "slo.route.completion" in page
        assert "10.0.0.1:7000" in page
        # A healthy, retry-free cluster has no offender section.
        assert "worst offender" not in page

    def test_empty_slo_renders_placeholder(self):
        page = render_dashboard([_sample(slo={})])
        assert "(no client-edge operations completed yet)" in page

    def test_flagged_node_is_marked(self):
        page = render_dashboard(
            [_sample(flagged=["10.0.0.1:7000"])]
        )
        assert "flagged=1" in page
        assert "GRAY?" in page
        assert "worst offender: 10.0.0.1:7000" in page
        assert "flagged gray by the neighborhood" in page

    def test_observer_flags_are_listed(self):
        sample = _sample(
            nodes=[_node_row(flags=["10.0.0.9:7000"])]
        )
        page = render_dashboard([sample])
        assert "sees 10.0.0.9:7000" in page

    def test_retry_pressure_names_unflagged_offender(self):
        sample = _sample(
            nodes=[
                _node_row(),
                _node_row(address="10.0.0.2:7000", retry_rate=1.25),
            ],
        )
        page = render_dashboard([sample])
        assert "worst offender: 10.0.0.2:7000" in page
        assert "not flagged" in page

    def test_sparkline_span_tracks_history(self):
        history = [
            _sample(rates={"sent": float(i), "recv": 0.0, "retries": 0.0})
            for i in range(6)
        ]
        page = render_dashboard(history, width=4)
        assert "now=5.00" in page

    def test_renders_a_real_cluster_sample(self):
        cluster, rng = demo_cluster(seed=7, population=6)
        drive_traffic(cluster, rng, duration=20.0, operations=8)
        page = render_dashboard([cluster_sample(cluster)])
        assert "node vitals" in page
        assert "slo." in page


class TestSubscriptionPanel:
    def test_idle_plane_renders_placeholder(self):
        page = render_dashboard([_sample()])
        assert "continuous queries" in page
        assert "(no continuous queries registered)" in page

    def test_active_nodes_get_rows(self):
        sample = _sample(
            nodes=[
                _node_row(
                    sub_registered=3, sub_matched=7, sub_notified=5,
                    sub_dead_letters=1,
                ),
                _node_row(address="10.0.0.2:7000"),
            ]
        )
        page = render_dashboard([sample])
        assert "registered=3 matched=7 notified=5 notify-dead-letters=1" in (
            page
        )
        assert "reg=3" in page and "ntfy=5" in page
        # The idle node contributes no row of its own.
        idle_rows = [
            line for line in page.splitlines()
            if "10.0.0.2:7000" in line and "reg=" in line
        ]
        assert idle_rows == []

    def test_samples_predating_the_plane_degrade_gracefully(self):
        row = _node_row()
        assert "sub_registered" not in row  # fixture predates the plane
        page = render_dashboard([_sample(nodes=[row])])
        assert "(no continuous queries registered)" in page

    def test_real_sample_with_subscriptions_fills_the_panel(self):
        from repro.workload.subscriptions import SubscriptionWorkload

        cluster, rng = demo_cluster(seed=7, population=6)
        workload = SubscriptionWorkload(
            cluster.bounds, subscriptions=2, rng=rng, duration=10_000.0
        )
        live = sorted(
            (p for p in cluster.nodes.values() if p.alive),
            key=lambda p: (p.address.ip, p.address.port),
        )
        for op in workload.initial_subscriptions():
            cluster.subscribe(
                live[op.subscriber % len(live)].node.node_id,
                op.rect,
                duration=op.duration,
            )
        cluster.settle(15.0)
        for op in workload.publish_step(count=6):
            origin = live[op.publisher % len(live)]
            cluster.publish(origin.node.node_id, op.point, op.payload)
        page = render_dashboard([cluster_sample(cluster)])
        assert "continuous queries" in page
        assert "(no continuous queries registered)" not in page
        assert "registered=" in page


class TestOverloadPanel:
    def test_idle_plane_renders_placeholder(self):
        page = render_dashboard([_sample()])
        assert "overload" in page
        assert "(no overload observed)" in page

    def test_active_nodes_get_rows(self):
        sample = _sample(
            nodes=[
                _node_row(
                    pressure=0.8, sheds=12, shed_received=0,
                ),
                _node_row(address="10.0.0.2:7000"),
            ]
        )
        page = render_dashboard([sample])
        assert (
            "shed=12 shed-nacks-received=0 peak-pressure=0.80"
            in page
        )
        assert "pressure=0.80" in page
        # The idle node contributes no row of its own.
        idle_rows = [
            line for line in page.splitlines()
            if "10.0.0.2:7000" in line and "pressure=" in line
        ]
        assert idle_rows == []

    def test_samples_predating_the_plane_degrade_gracefully(self):
        row = _node_row()
        assert "sheds" not in row  # fixture predates the plane
        page = render_dashboard([_sample(nodes=[row])])
        assert "(no overload observed)" in page
