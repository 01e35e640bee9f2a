"""Occurrences, the detector's output: their CSV, the merge of per-camera
streams, the event log built from them, and their precision against ground
truth; no numpy.

Only the subcommands that read or write occurrences import this module
(``detect``, ``merge``, ``precision`` and ``simulate``, through ``events``
and ``sim`` too), so ``cycles``, ``dfg`` and ``rank`` do not compile it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple, Sequence

from .errors import DataError
from .eventlog import (Entity, EventLog, EventRecord, Group, _csv_rows, _name, parse_time,
                       to_datetime, write_atomic)


class Occurrence(NamedTuple):
    """One detected event: an entity started a task at a location."""

    start_time: float
    location_id: str
    entity_class: str
    track_id: str = ""  # "" when untracked


def merge_camera_streams(
    streams: Sequence[Sequence[Occurrence]], dedup_window: float
) -> list[Occurrence]:
    """Merge per-camera occurrence streams into one time-ordered stream.

    Occurrences with identical (location, class, track) whose start times
    differ by at most dedup_window collapse to the earliest one.
    """
    if not dedup_window >= 0:  # nan fails too
        raise DataError("dedup_window must be >= 0")
    merged = sorted(occ for stream in streams for occ in stream)
    out: list[Occurrence] = []
    last_kept: dict[tuple, float] = {}
    for occ in merged:
        key = (occ.location_id, occ.entity_class, occ.track_id)
        prev = last_kept.get(key)
        if prev is not None and occ.start_time - prev <= dedup_window:
            continue
        out.append(occ)
        last_kept[key] = occ.start_time
    return out


def write_occurrences_csv(path, occurrences: Sequence[Occurrence]) -> None:
    """The occurrence CSV at `path`, one f-string per row ending in "\\r\\n": the
    text csv's writer gives, since no name that keeps ``name_ok`` needs quoting."""
    write_atomic(path, "".join(["location_id,entity_class,track_id,start_time\r\n"] + [
        f"{o.location_id},{o.entity_class},{o.track_id},{o.start_time!r}\r\n"
        for o in occurrences]))


def load_occurrences_csv(path) -> list[Occurrence]:
    header = ["location_id", "entity_class", "track_id", "start_time"]
    passed: set[str] = set()  # names that kept the rule: each distinct one is checked once

    def occurrence(location, cls, track, start):
        if location not in passed or cls not in passed or track not in passed:
            passed.update(map(_name, (location, cls, track), header))
        if not (location and (cls or track)):
            raise DataError("location_id is empty" if not location
                            else "entity_class and track_id are both empty")
        return Occurrence(parse_time(start), location, cls, track)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return list(_csv_rows(fh, path, header, occurrence))


def occurrences_to_log(occurrences: Sequence[Occurrence], label: str = "") -> EventLog:
    """Build an event log from detected occurrences.

    Occurrences sharing a start time merge into one simultaneous record;
    the entity id is the track id (or the class when untracked) and the
    property is the entity class.

    Each distinct (track id, class) Entity and (location id, entities)
    Group is built and checked once per call, in the order a build of
    every one would take, so the first error is the same.
    """
    entities: dict[tuple[str, str], Entity] = {}  # (track id, class) -> its Entity
    groups: dict[tuple, Group] = {}  # (location id, entities) -> its Group
    records = []
    for t, occs in groupby(sorted(occurrences), key=attrgetter("start_time")):
        by_location: dict[str, list[Entity]] = {}
        for occ in occs:
            key = occ.track_id, occ.entity_class
            if (ent := entities.get(key)) is None:
                ent = entities[key] = Entity(occ.track_id or occ.entity_class, occ.entity_class)
            by_location.setdefault(occ.location_id, []).append(ent)
        grouped = []
        for loc, ents in by_location.items():
            key = loc, tuple(ents)
            if (group := groups.get(key)) is None:
                group = groups[key] = Group(*key)
            grouped.append(group)
        # the locations are dict keys, so distinct: EventRecord's check cannot fail
        records.append(EventRecord._make((tuple(grouped), to_datetime(t))))
    return EventLog(records=tuple(records), label=label)


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
    if not match_window >= 0:  # nan fails too
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
