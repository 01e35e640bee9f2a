"""Event-log model, textual format, cycle segmentation, Gantt charts, precision.

The canonical record form is
    ``EL1: {s1, (E1,v1), (E3,h1); s2, (E2,v2), 2024/08/15/17:40:50}``
one record per line: semicolon-separated location groups, each a location id
followed by (entity, property) pairs, with the timestamp last.  The
abbreviated form ``{v1_s1, 2024/08/15/17:40:50}`` fuses property and
location into one token.
"""

from __future__ import annotations

import html
import json
import re
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import groupby
from operator import attrgetter
from typing import Iterator, Sequence

from .errors import DataError
from .events import TIMESTAMP_FMT, Occurrence

_EPOCH = datetime(1970, 1, 1)


def to_datetime(seconds: float) -> datetime:
    return _EPOCH + timedelta(seconds=seconds)


def to_seconds(ts: datetime) -> float:
    return (ts - _EPOCH).total_seconds()


@dataclass(frozen=True)
class Entity:
    entity_id: str
    prop: str = ""


@dataclass(frozen=True)
class Group:
    location_id: str
    entities: tuple[Entity, ...]

    def __post_init__(self):
        if not self.entities:
            raise DataError(f"group at {self.location_id!r} has no entities")


@dataclass(frozen=True)
class EventRecord:
    groups: tuple[Group, ...]
    timestamp: datetime

    def __post_init__(self):
        if not self.groups:
            raise DataError("record has no location groups")
        locs = [g.location_id for g in self.groups]
        if len(set(locs)) != len(locs):
            raise DataError(f"duplicate location within one record: {locs}")

    @property
    def event_count(self) -> int:
        return sum(len(g.entities) for g in self.groups)


@dataclass(frozen=True)
class EventLog:
    records: tuple[EventRecord, ...]
    label: str = ""

    def __post_init__(self):
        times = [r.timestamp for r in self.records]
        for a, b in zip(times, times[1:]):
            if b < a:
                warnings.warn(
                    f"event log {self.label!r}: decreasing timestamp {b} after {a}; "
                    f"order preserved as given",
                    stacklevel=2,
                )
                break


@dataclass(frozen=True)
class Cycle:
    index: int
    records: tuple[EventRecord, ...]
    cycle_time: float

    def __post_init__(self):
        if not self.records:
            raise DataError(f"cycle {self.index} is empty")
        if self.cycle_time < 0:
            raise DataError(f"cycle {self.index} has negative cycle_time")


# ---------------------------------------------------------------------------
# parsing / serialization

_PAIR_RE = re.compile(r"^\(\s*([^,()]+?)\s*,\s*([^,()]*?)\s*\)$")
_TS_RE = re.compile(r"^\d{4}/\d{2}/\d{2}/\d{2}:\d{2}:\d{2}$")
_ISO_RE = re.compile(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}$")


def _parse_timestamp(token: str, lineno: int) -> datetime:
    token = token.strip()
    try:
        if _TS_RE.match(token):
            return datetime.strptime(token, TIMESTAMP_FMT)
        if _ISO_RE.match(token):
            return datetime.strptime(token.replace(" ", "T"), "%Y-%m-%dT%H:%M:%S")
    except ValueError:  # the right shape but out of range, e.g. month 13
        pass
    raise DataError(f"line {lineno}: unparseable timestamp {token!r}")


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_record(line: str, lineno: int = 0) -> tuple[str, EventRecord]:
    """Parse one record line; returns (log label or '', record)."""
    stripped = line.strip()
    label = ""
    m = re.match(r"^([A-Za-z0-9_]+)\s*:\s*(\{.*)$", stripped)
    if m:
        label, stripped = m.group(1), m.group(2)
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise DataError(f"line {lineno}: record must be enclosed in braces: {line!r}")
    body = stripped[1:-1].strip()

    parts = [p.strip() for p in _split_top(body, ",")]
    if len(parts) < 2:
        raise DataError(f"line {lineno}: record needs at least a label and a timestamp")
    timestamp = _parse_timestamp(parts[-1], lineno)
    payload = ",".join(parts[:-1])

    groups = []
    for chunk in _split_top(payload, ";"):
        chunk = chunk.strip()
        if not chunk:
            raise DataError(f"line {lineno}: empty location group")
        tokens = [t.strip() for t in _split_top(chunk, ",")]
        head = tokens[0]
        if head.startswith("("):
            raise DataError(f"line {lineno}: group must start with a location id, got {head!r}")
        if len(tokens) == 1 and "_" in head:
            # abbreviated form: property_location fused into one token
            prop, loc = head.rsplit("_", 1)
            groups.append(Group(location_id=loc, entities=(Entity(head, prop),)))
            continue
        if len(tokens) == 1:
            raise DataError(f"line {lineno}: location {head!r} has no entities")
        entities = []
        for tok in tokens[1:]:
            pm = _PAIR_RE.match(tok)
            if not pm:
                raise DataError(f"line {lineno}: malformed (entity,property) pair {tok!r}")
            entities.append(Entity(pm.group(1), pm.group(2)))
        groups.append(Group(location_id=head, entities=tuple(entities)))
    return label, EventRecord(groups=tuple(groups), timestamp=timestamp)


def parse_log(text: str) -> EventLog:
    """Parse a document with one record per line."""
    label = ""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rec_label, record = parse_record(line, lineno)
        if rec_label and not label:
            label = rec_label
        records.append(record)
    return EventLog(records=tuple(records), label=label)


def serialize_record(record: EventRecord, label: str = "") -> str:
    parts = []
    for g in record.groups:
        toks = [g.location_id] + [f"({e.entity_id},{e.prop})" for e in g.entities]
        parts.append(", ".join(toks))
    body = "; ".join(parts)
    ts = record.timestamp.strftime(TIMESTAMP_FMT)
    prefix = f"{label}: " if label else ""
    return f"{prefix}{{{body}, {ts}}}"


def serialize_log(log: EventLog) -> str:
    """Canonical full-form text; parse(serialize(log)) == log."""
    lines = [serialize_record(r, log.label) for r in log.records]
    return "\n".join(lines) + ("\n" if lines else "")


def log_to_jsonl(log: EventLog) -> str:
    lines = []
    for r in log.records:
        lines.append(
            json.dumps(
                {
                    "locations": [
                        {
                            "id": g.location_id,
                            "entities": [
                                {"id": e.entity_id, "prop": e.prop} for e in g.entities
                            ],
                        }
                        for g in r.groups
                    ],
                    "ts": r.timestamp.strftime(TIMESTAMP_FMT),
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def log_from_jsonl(text: str, label: str = "") -> EventLog:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            groups = tuple(
                Group(
                    location_id=g["id"],
                    entities=tuple(Entity(e["id"], e.get("prop", "")) for e in g["entities"]),
                )
                for g in obj["locations"]
            )
            ts = datetime.strptime(obj["ts"], TIMESTAMP_FMT)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        records.append(EventRecord(groups=groups, timestamp=ts))
    return EventLog(records=tuple(records), label=label)


def occurrences_to_log(occurrences: Sequence[Occurrence], label: str = "") -> EventLog:
    """Build an event log from detected occurrences.

    Occurrences sharing a start time merge into one simultaneous record;
    the entity id is the track id (or the class when untracked) and the
    property is the entity class.
    """
    records = []
    for t, occs in groupby(sorted(occurrences), key=attrgetter("start_time")):
        groups: dict[str, list[Entity]] = {}
        for occ in occs:
            ent = Entity(occ.track_id or occ.entity_class, occ.entity_class)
            groups.setdefault(occ.location_id, []).append(ent)
        grouped = tuple(Group(loc, tuple(ents)) for loc, ents in groups.items())
        records.append(EventRecord(groups=grouped, timestamp=to_datetime(t)))
    return EventLog(records=tuple(records), label=label)


# ---------------------------------------------------------------------------
# cycles

def _record_labels(record: EventRecord) -> Iterator[str]:
    for g in record.groups:
        yield g.location_id
        for e in g.entities:
            yield e.entity_id
            if e.prop:
                yield f"{e.prop}_{g.location_id}"


def segment_cycles(
    log: EventLog,
    anchor: str | None = None,
    boundaries: Sequence[datetime] | None = None,
) -> list[Cycle]:
    """Split a log into production cycles.

    ``anchor`` is a regex matched against each record's location ids,
    entity ids and fused property_location labels; a cycle runs from one
    anchor record up to (not including) the next.  Alternatively explicit
    ``boundaries`` timestamps delimit the cycles.  Cycle time is
    anchor-to-anchor, except the last cycle which spans its own records.
    """
    if (anchor is None) == (boundaries is None):
        raise DataError("exactly one of anchor or boundaries is required")

    records, n = log.records, len(log.records)
    if anchor is not None:
        pattern = re.compile(anchor)
        starts = [
            i
            for i, r in enumerate(records)
            if any(pattern.search(lbl) for lbl in _record_labels(r))
        ]
        if not starts:
            available = sorted({lbl for r in records for lbl in _record_labels(r)})
            raise DataError(
                f"anchor {anchor!r} matches no record; available labels: "
                f"{', '.join(available)}"
            )
        start_times = [records[i].timestamp for i in starts]
    else:
        # a linear scan, not bisect: timestamps may decrease (EventLog warns)
        start_times = sorted(boundaries)
        starts = [
            next((i for i, r in enumerate(records) if r.timestamp >= b), n)
            for b in start_times
        ]

    cycles = []
    for k, (lo, hi) in enumerate(zip(starts, starts[1:] + [n])):
        recs = records[lo:hi]
        if not recs:
            continue
        end = start_times[k + 1] if k + 1 < len(starts) else recs[-1].timestamp
        cycles.append(Cycle(len(cycles) + 1, recs, (end - start_times[k]).total_seconds()))
    return cycles


# ---------------------------------------------------------------------------
# Gantt chart

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def gantt(log: EventLog, lane_key: str = "location") -> str:
    """Render event start times as an SVG chart: one lane per key, one
    tick per event start.  lane_key is 'location' or 'entity'."""
    if not log.records:
        raise DataError("cannot chart an empty event log")
    if lane_key not in ("location", "entity"):
        raise DataError(f"lane_key must be 'location' or 'entity', got {lane_key!r}")

    ticks = []  # (lane, class, seconds)
    for r in log.records:
        t = to_seconds(r.timestamp)
        for g in r.groups:
            for e in g.entities:
                cls = e.prop or e.entity_id
                ticks.append((g.location_id if lane_key == "location" else cls, cls, t))

    lanes = sorted({lane for lane, _, _ in ticks})
    rows = {lane: i for i, lane in enumerate(lanes)}
    classes = sorted({cls for _, cls, _ in ticks})
    colors = {cls: _PALETTE[i % len(_PALETTE)] for i, cls in enumerate(classes)}

    t0 = min(t for _, _, t in ticks)
    t1 = max(t for _, _, t in ticks)
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
    for i, lane in enumerate(lanes):
        y = margin_t + i * lane_h
        out.append(
            f'<text x="{margin_l - 8}" y="{y + lane_h * 0.7:.1f}" text-anchor="end">'
            f"{html.escape(lane)}</text>"
        )
        out.append(
            f'<line x1="{margin_l}" y1="{y + lane_h:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{y + lane_h:.1f}" stroke="#ddd"/>'
        )
    axis_y = margin_t + lane_h * len(lanes)
    out.append(
        f'<line x1="{margin_l}" y1="{axis_y}" x2="{margin_l + plot_w}" y2="{axis_y}" '
        f'stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t0 + frac * span
        label = to_datetime(t).strftime("%H:%M:%S")
        out.append(
            f'<text x="{sx(t):.1f}" y="{axis_y + 16}" text-anchor="middle">{label}</text>'
        )
    for lane, cls, t in sorted(ticks):
        y = margin_t + rows[lane] * lane_h
        out.append(
            f'<line class="tick" x1="{sx(t):.1f}" y1="{y + 4:.1f}" x2="{sx(t):.1f}" '
            f'y2="{y + lane_h - 4:.1f}" stroke="{colors[cls]}" stroke-width="3"/>'
        )
    ly = axis_y + 34
    for i, cls in enumerate(classes):
        y = ly + 20 * i
        out.append(f'<rect x="{margin_l}" y="{y}" width="14" height="14" fill="{colors[cls]}"/>')
        out.append(f'<text x="{margin_l + 20}" y="{y + 12}">{html.escape(cls)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# precision

def precision(
    detected: Sequence[Occurrence],
    truth: Sequence[Occurrence],
    match_window: float,
) -> float:
    """Fraction of detected occurrences that match a ground-truth one.

    Greedy one-to-one matching in time order on identical
    (location, entity_class) within match_window.  An empty detected
    stream scores 1.0 (no false positives).
    """
    if match_window < 0:
        raise DataError("match_window must be >= 0")
    detected = sorted(detected)
    if not detected:
        return 1.0
    # per (location, class): the truth start times not yet matched or passed
    queues: defaultdict[tuple[str, str], deque[float]] = defaultdict(deque)
    for t in sorted(truth, key=attrgetter("start_time")):
        queues[t.location_id, t.entity_class].append(t.start_time)
    matched = 0
    for d in detected:
        q = queues[d.location_id, d.entity_class]
        # too early for this detection, so too early for every later one
        while q and d.start_time - q[0] > match_window:
            q.popleft()
        # the head is not too early, so this is abs(q[0] - d) <= match_window
        if q and q[0] - d.start_time <= match_window:
            q.popleft()
            matched += 1
    return matched / len(detected)
