"""The live cluster dashboard behind ``python -m repro top``.

Renders a sequence of :func:`repro.obs.telemetry.cluster_sample` dicts
as a terminal page: cluster-rate sparklines over the retained history,
SLO latency tiles (p50/p95/p99 per client-edge operation), a per-node
vitals table with gray flags called out, and a drill-down on the worst
offender.  Pure text in, pure text out -- the CLI owns screen clearing
and timing, so the renderer stays trivially testable and usable in
one-shot CI mode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.viz.sparkline import render_sparkline

__all__ = ["render_dashboard"]

#: Node-table columns: (header, sample-row field, width, value spec).
_COLUMNS = (
    ("node", "address", 18, "<18"),
    ("tx/s", "sent_rate", 7, ">7.2f"),
    ("rx/s", "recv_rate", 7, ">7.2f"),
    ("rty/s", "retry_rate", 6, ">6.2f"),
    ("dead", "dead_letters", 5, ">5d"),
    ("store", "store_size", 5, ">5d"),
    ("debt", "anti_entropy_debt", 5, ">5d"),
    ("sc-hit", "shortcut_hit_rate", 6, ">6.0%"),
    ("hndl-ms", "handler_ms", 7, ">7.3f"),
    ("queue", "queue_depth", 5, ">5d"),
    ("bytes", "digest_bytes", 5, ">5d"),
    ("peers", "peers_tracked", 5, ">5d"),
)


def _series(samples: Sequence[Dict[str, Any]], kind: str) -> List[float]:
    return [sample.get("rates", {}).get(kind, 0.0) for sample in samples]


def _rate_lines(samples: Sequence[Dict[str, Any]], width: int) -> List[str]:
    span = samples[-width:]
    lines = []
    for kind, label in (
        ("sent", "sent/s"),
        ("recv", "recv/s"),
        ("retries", "rty/s"),
    ):
        values = _series(span, kind)
        spark = render_sparkline(values, minimum=0.0)
        lines.append(
            f"  {label:<8} {spark:<{width}} now={values[-1]:.2f}"
        )
    return lines


def _slo_lines(sample: Dict[str, Any]) -> List[str]:
    slo = sample.get("slo", {})
    if not slo:
        return ["  (no client-edge operations completed yet)"]
    lines = []
    for name in sorted(slo):
        row = slo[name]
        lines.append(
            f"  {name:<26} n={row['count']:<6d} "
            f"p50={row['p50']:<8.3f} p95={row['p95']:<8.3f} "
            f"p99={row['p99']:<8.3f} max={row['max']:.3f}"
        )
    return lines


def _node_lines(sample: Dict[str, Any]) -> List[str]:
    header = " ".join(
        format(title, f"<{width}" if spec.startswith('<') else f">{width}")
        for title, _, width, spec in _COLUMNS
    )
    lines = [header + "  flags"]
    flagged = set(sample.get("flagged", ()))
    for row in sample.get("nodes", ()):
        cells = []
        for _, field, _, spec in _COLUMNS:
            cells.append(format(row[field], spec))
        marker = ""
        if row["address"] in flagged:
            marker = "GRAY?"
        elif row["flags"]:
            marker = "sees " + ",".join(row["flags"])
        lines.append(" ".join(cells) + ("  " + marker if marker else ""))
    return lines


def _subscription_lines(sample: Dict[str, Any]) -> List[str]:
    """The continuous-query panel: registered/matched/notify health.

    Older samples (or hand-built fixtures) may predate the subscription
    plane, so every field read is a ``.get`` with a zero default and the
    panel degrades to its idle line rather than crashing.
    """
    nodes = list(sample.get("nodes", ()))
    registered = sum(row.get("sub_registered", 0) for row in nodes)
    matched = sum(row.get("sub_matched", 0) for row in nodes)
    notified = sum(row.get("sub_notified", 0) for row in nodes)
    dead = sum(row.get("sub_dead_letters", 0) for row in nodes)
    lines = [
        f"  registered={registered} matched={matched} "
        f"notified={notified} notify-dead-letters={dead}"
    ]
    if registered == 0 and matched == 0 and notified == 0 and dead == 0:
        lines.append("  (no continuous queries registered)")
        return lines
    for row in nodes:
        if not any(
            row.get(key, 0)
            for key in (
                "sub_registered",
                "sub_matched",
                "sub_notified",
                "sub_dead_letters",
            )
        ):
            continue
        lines.append(
            f"  {row.get('address', '?'):<18} "
            f"reg={row.get('sub_registered', 0):<4d} "
            f"match={row.get('sub_matched', 0):<5d} "
            f"ntfy={row.get('sub_notified', 0):<5d} "
            f"dead={row.get('sub_dead_letters', 0):d}"
        )
    return lines


def _overload_lines(sample: Dict[str, Any]) -> List[str]:
    """The overload panel: backpressure and shedding.

    Like the subscription panel, every field read is a ``.get`` with a
    zero default so samples predating the overload plane (or from a
    cluster with it disabled) degrade to the idle line.
    """
    nodes = list(sample.get("nodes", ()))
    sheds = sum(row.get("sheds", 0) for row in nodes)
    nacked = sum(row.get("shed_received", 0) for row in nodes)
    peak = max((row.get("pressure", 0.0) for row in nodes), default=0.0)
    lines = [
        f"  shed={sheds} shed-nacks-received={nacked} "
        f"peak-pressure={peak:.2f}"
    ]
    if sheds == 0 and nacked == 0 and peak == 0.0:
        lines.append("  (no overload observed)")
        return lines
    for row in nodes:
        if not (
            row.get("sheds", 0)
            or row.get("shed_received", 0)
            or row.get("pressure", 0.0)
        ):
            continue
        lines.append(
            f"  {row.get('address', '?'):<18} "
            f"pressure={row.get('pressure', 0.0):<5.2f} "
            f"shed={row.get('sheds', 0):<5d} "
            f"nacked={row.get('shed_received', 0):d}"
        )
    return lines


def _offender_lines(sample: Dict[str, Any]) -> List[str]:
    nodes = list(sample.get("nodes", ()))
    if not nodes:
        return []
    flagged = set(sample.get("flagged", ()))

    def badness(row: Dict[str, Any]) -> tuple:
        return (
            row["address"] in flagged,
            row["retry_rate"],
            row["dead_letters"],
            row["queue_depth"],
        )

    worst = max(nodes, key=badness)
    if not badness(worst)[0] and worst["retry_rate"] == 0.0 and (
        worst["dead_letters"] == 0
    ):
        return []
    verdict = (
        "flagged gray by the neighborhood"
        if worst["address"] in flagged
        else "worst retry pressure (not flagged)"
    )
    return [
        "",
        f"worst offender: {worst['address']} -- {verdict}",
        f"  retry_rate={worst['retry_rate']:.3f}/s "
        f"dead_letters={worst['dead_letters']} "
        f"queue_depth={worst['queue_depth']} "
        f"handler_ms={worst['handler_ms']:.3f} "
        f"digest v{worst['version']} ({worst['digest_bytes']} bytes)",
    ]


def render_dashboard(
    samples: Sequence[Dict[str, Any]], width: int = 48
) -> str:
    """Render the dashboard page for a history of cluster samples.

    ``samples`` is ordered oldest-first; the last one is "now".  ``width``
    caps the sparkline length (one column per retained sample).
    """
    if not samples:
        return "(no samples yet)"
    sample = samples[-1]
    nodes = sample.get("nodes", ())
    flagged = sample.get("flagged", ())
    title = (
        f"repro top -- t={sample.get('time', 0.0):.1f}s  "
        f"nodes={len(nodes)}  flagged={len(flagged)}"
    )
    if flagged:
        title += "  [" + ", ".join(flagged) + "]"
    sections = [
        title,
        "",
        "cluster rates (per sim-second)",
        *_rate_lines(samples, width),
        "",
        "client-edge SLO latency (sim-seconds)",
        *_slo_lines(sample),
        "",
        "continuous queries",
        *_subscription_lines(sample),
        "",
        "overload",
        *_overload_lines(sample),
        "",
        "node vitals",
        *_node_lines(sample),
        *_offender_lines(sample),
    ]
    return "\n".join(sections)
