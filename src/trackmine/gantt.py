"""The Gantt chart of an event log: one SVG lane per location or entity
class, one tick per event start; no numpy.

Only ``trackmine gantt`` imports this module.
"""

from __future__ import annotations

from .errors import DataError
from .eventlog import Entity, EventLog, Group, to_datetime, to_seconds

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def gantt_lane(group: Group, entity: Entity, lane_key: str) -> str:
    """The lane ``gantt`` charts an entity in: its group's location, or its
    class (its property, else its id)."""
    return group.location_id if lane_key == "location" else entity.prop or entity.entity_id


def gantt(log: EventLog, lane_key: str = "location") -> str:
    """Render event start times as an SVG chart: one lane per key, one
    tick per event start.  lane_key is 'location' or 'entity'.

    Each lane's y, each (lane, class) pair's stroke and each distinct tick
    time's x are formatted once per call; a tick is then a concatenation.
    Lane and legend text is HTML-escaped: a name keeps ``name_ok``, so it
    holds no character that XML 1.0 forbids."""
    from html import escape

    if not log.records:
        raise DataError("cannot chart an empty event log")
    if lane_key not in ("location", "entity"):
        raise DataError(f"lane_key must be 'location' or 'entity', got {lane_key!r}")

    # (lane, class) -> the times of its ticks; ticks are coloured by the entity lane
    ticks: dict[tuple[str, str], list[float]] = {}
    for r in log.records:
        t = to_seconds(r.timestamp)
        for g in r.groups:
            for e in g.entities:
                ticks.setdefault((gantt_lane(g, e, lane_key), gantt_lane(g, e, "entity")),
                                 []).append(t)

    lanes = sorted({lane for lane, _ in ticks})
    classes = sorted({cls for _, cls in ticks})
    colors = {cls: _PALETTE[i % len(_PALETTE)] for i, cls in enumerate(classes)}

    t0 = min(map(min, ticks.values()))
    t1 = max(map(max, ticks.values()))
    span = max(t1 - t0, 1.0)

    margin_l, margin_t, lane_h, plot_w = 110, 30, 24, 640
    legend_h = 20 * len(classes) + 10
    width = margin_l + plot_w + 40
    height = margin_t + lane_h * len(lanes) + 40 + legend_h

    def sx(t: float) -> float:
        return margin_l + (t - t0) / span * plot_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    tick_y: dict[str, tuple[str, str]] = {}
    for i, lane in enumerate(lanes):
        y = margin_t + i * lane_h
        out.append(
            f'<text x="{margin_l - 8}" y="{y + lane_h * 0.7:.1f}" text-anchor="end">'
            f"{escape(lane)}</text>"
        )
        out.append(
            f'<line x1="{margin_l}" y1="{y + lane_h:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{y + lane_h:.1f}" stroke="#ddd"/>'
        )
        # a tick's line in this lane from after x1 to x2, and from after x2 to its colour
        tick_y[lane] = f'" y1="{y + 4:.1f}" x2="', f'" y2="{y + lane_h - 4:.1f}" stroke="'
    axis_y = margin_t + lane_h * len(lanes)
    out.append(
        f'<line x1="{margin_l}" y1="{axis_y}" x2="{margin_l + plot_w}" y2="{axis_y}" '
        f'stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t0 + frac * span
        # the time of day; the axis may run past the calendar's last second
        label = to_datetime(t % 86400.0).strftime("%H:%M:%S")
        out.append(
            f'<text x="{sx(t):.1f}" y="{axis_y + 16}" text-anchor="middle">{label}</text>'
        )
    xs: dict[float, str] = {}  # a tick time -> its x
    for lane, cls in sorted(ticks):  # in (lane, class, time) order
        mid, y2 = tick_y[lane]
        tail = f'{y2}{colors[cls]}" stroke-width="3"/>'
        for t in sorted(ticks[lane, cls]):
            if (x := xs.get(t)) is None:
                x = xs[t] = f"{sx(t):.1f}"
            out.append(f'<line class="tick" x1="{x}{mid}{x}{tail}')
    ly = axis_y + 34
    for i, cls in enumerate(classes):
        y = ly + 20 * i
        out.append(f'<rect x="{margin_l}" y="{y}" width="14" height="14" fill="{colors[cls]}"/>')
        out.append(f'<text x="{margin_l + 20}" y="{y + 12}">{escape(cls)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
