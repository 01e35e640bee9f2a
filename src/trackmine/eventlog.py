"""Calendar time, occurrences with their CSV and stream merge, the detection
settings, atomic file writes, and event logs: model, text and JSONL formats,
cycles, Gantt charts, precision; no numpy.

The record types are immutable NamedTuples.  Those with checks are declared
under ``@checked``, which has each construction return the record's
``_checked()``; ``_make`` and ``_replace`` build without the checks.

Every name (location, camera, class, track, entity id, property, category)
keeps one rule, ``name_ok``, checked where it enters: by the record types,
the scenario and zones readers, the tracks readers and the occurrence CSV
reader.  So no writer quotes a field or replaces a character.

One record per line, e.g. ``EL1: {s1, (E1,v1), (E3,h1); s2, (E2,v2), 2024/08/15/17:40:50}``
or the abbreviated ``{v1_s1, 2024/08/15/17:40:50}``; ``parse_record`` has the grammar.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from bisect import bisect_left
from collections import defaultdict, deque
from datetime import datetime, timedelta
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import DataError

# ---------------------------------------------------------------------------
# calendar time and occurrences

_TIMESTAMP_RE = re.compile(
    r"\d{4}(?:/\d\d/\d\d/|-\d\d-\d\d[T ])(?:[01]\d|2[0-3]):\d\d:\d\d(?:\.\d{6})?", re.ASCII)
_EPOCH = datetime(1970, 1, 1)


def parse_timestamp(text: str) -> datetime:
    """Zero-padded ``YYYY/MM/DD/hh:mm:ss`` or ISO ``YYYY-MM-DD[T ]hh:mm:ss``,
    either with an optional ``.ffffff`` -> datetime; the one calendar-time
    parser.

    ``_TIMESTAMP_RE`` fixes the shape (ASCII digits, hours 00-23), and
    ``datetime.fromisoformat`` reads the text with its slashes made ISO and
    rejects out-of-range fields.  Nothing is cached: the log readers memoize
    groups and record heads, not times, which rarely repeat."""
    text = text.strip()
    if _TIMESTAMP_RE.fullmatch(text):
        try:
            return datetime.fromisoformat(text.replace("/", "-", 2).replace("/", "T", 1))
        except ValueError:  # the right shape but out of range, e.g. month 13
            pass
    raise DataError(f"unparseable timestamp {text!r}")


def format_timestamp(ts: datetime) -> str:
    """``YYYY/MM/DD/hh:mm:ss`` with a four-digit year, plus ``.ffffff`` when
    the microsecond is nonzero; ``parse_timestamp`` reads it back."""
    # isoformat pads the year to four digits; strftime's %Y does not everywhere
    return ts.isoformat("/").replace("-", "/")


def to_datetime(seconds: float) -> datetime:
    try:
        return _EPOCH + timedelta(seconds=seconds)
    except OverflowError:
        raise DataError(f"time {seconds!r} s is outside the calendar years 1-9999") from None


def to_seconds(ts: datetime) -> float:
    return (ts - _EPOCH).total_seconds()


def parse_time(text: str) -> float:
    """Decimal seconds or a ``parse_timestamp`` form -> epoch seconds.

    Decimal seconds take ASCII digits and no ``_``, as a timestamp does;
    ``float`` alone would also read ``"\uff12"`` and ``"1_0"``."""
    text = text.strip()
    if text.isascii() and "_" not in text:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if not math.isfinite(value):
                raise DataError(f"time {text!r} is not finite")
            return value
    return to_seconds(parse_timestamp(text))


class Occurrence(NamedTuple):
    """One detected event: an entity started a task at a location."""

    start_time: float
    location_id: str
    entity_class: str
    track_id: str = ""  # "" when untracked


def checked(cls):
    """Make building a record of the NamedTuple class `cls` return its ``_checked()``:
    the record, or a copy with a field converted, unless the hook raises DataError.
    ``__new__`` is compiled from the field names, as ``namedtuple`` compiles its own, so
    the hook is the one call it adds.  ``_make`` and ``_replace`` skip the hook."""
    fields = ", ".join(cls._fields)  # identifiers, none starting with "_"
    ns = {"_tuple_new": tuple.__new__}
    exec(f"def __new__(_cls, {fields}): return _tuple_new(_cls, ({fields},))._checked()", ns)
    ns["__new__"].__defaults__ = cls.__new__.__defaults__
    cls.__new__ = ns["__new__"]
    return cls


@checked
class DetectionConfig(NamedTuple):
    """The detection thresholds; ``_field_defaults`` holds the defaults."""

    min_duration: float = 3.0
    min_overlap_ratio: float = 0.10
    sample_period: float = 1.0
    dedup_window: float = 2.0

    def _checked(self):
        # each check is written so that nan fails it
        if not self.min_duration >= 0:
            raise DataError("min_duration must be >= 0")
        if not 0.0 <= self.min_overlap_ratio <= 1.0:
            raise DataError("min_overlap_ratio must be in [0, 1]")
        if not self.sample_period > 0:
            raise DataError("sample_period must be > 0")
        if not self.dedup_window >= 0:
            raise DataError("dedup_window must be >= 0")
        return self


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


def _csv_rows(fh, path, header, build):
    """Check that the header row is exactly `header`, a list, or yield header(*row) when
    `header` is a callable; then yield build(*row) for each non-blank data row, which must be
    as wide as the header.  The one CSV record loop: its callers catch nothing.

    A ValueError or DataError from `header` or `build`, a row of another width and a csv.Error
    (a field over csv's size limit, a NUL on Python 3.10) are DataErrors at the reader's line,
    the physical line on which the row ends; a UnicodeDecodeError, raised a chunk ahead of the
    reader, is one on the file, and so is a header other than `header`."""
    reader = csv.reader(fh)
    try:
        first = next(reader, [])
        if callable(header):
            yield header(*first)
        if callable(header) or first == header:
            for row in reader:
                if row:
                    if len(row) != len(first):
                        raise DataError(f"expected {len(first)} fields, got {len(row)}")
                    yield build(*row)
            return
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (csv.Error, ValueError, DataError) as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    # only a header other than `header` gets here: the file's fault, not a line's
    raise DataError(f"{path}: expected header {','.join(header)}, got {','.join(first)!r}")


def write_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename; the file
    gets the permissions ``open`` gives a new file.  An OSError that names
    the temp file is raised again naming `path`."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        fh = open(tmp, "x", newline="", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


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


# ---------------------------------------------------------------------------
# names and records

_NOT_IN_NAMES = frozenset(',;()"')
_LABEL_RE = re.compile(r"[A-Za-z0-9_]*")


def name_ok(name: str) -> bool:
    """The one character rule for every name: printable, with no whitespace at
    either end and none of ``,;()"``.  ``str.isprintable`` refuses each line
    break, NUL, tab, lone surrogate and code point that XML 1.0 forbids.  Whether
    a name may be empty is the caller's rule."""
    return name.isprintable() and name == name.strip() and _NOT_IN_NAMES.isdisjoint(name)


def _name(value, field: str) -> str:
    """`value` if it is a string that keeps ``name_ok``, else a DataError naming `field`:
    ``_string``'s for a value that is no string or holds a lone surrogate."""
    if isinstance(value, str) and name_ok(value):
        return value
    _string(value, field)
    raise DataError(f"{field} {value!r} is not a name: a name is printable, with none of "
                    ",;()\" and no whitespace at either end")


@checked
class Entity(NamedTuple):
    entity_id: str
    prop: str = ""

    def _checked(self):
        if not self.entity_id:
            raise DataError("entity id is empty")
        _name(self.entity_id, "entity id")
        _name(self.prop, "property")
        return self


@checked
class Group(NamedTuple):
    location_id: str
    entities: tuple[Entity, ...]

    def _checked(self):
        location_id, entities = self
        if not location_id:
            raise DataError("location id is empty")
        _name(location_id, "location id")
        if not entities:
            raise DataError(f"group at {location_id!r} has no entities")
        if not isinstance(entities, tuple) or not all(map(isinstance, entities, repeat(Entity))):
            raise DataError(f"group at {location_id!r}: entities {entities!r} "
                            f"are not a tuple of Entity")
        return self


@checked
class EventRecord(NamedTuple):
    groups: tuple[Group, ...]
    timestamp: datetime

    def _checked(self):
        if not self.groups:
            raise DataError("record has no location groups")
        if len(self.groups) > 1:  # most records have one group, which cannot repeat
            locs = [g.location_id for g in self.groups]
            if len(set(locs)) != len(locs):
                raise DataError(f"duplicate location within one record: {locs}")
        return self

    @property
    def event_count(self) -> int:
        return sum(len(g.entities) for g in self.groups)


@checked
class EventLog(NamedTuple):
    """Records in time order (equal timestamps allowed) under one label."""

    records: tuple[EventRecord, ...]
    label: str = ""

    def _checked(self):
        records, label = self
        if not _LABEL_RE.fullmatch(label):
            raise DataError(f"log label {label!r} holds a character other than "
                            f"A-Z, a-z, 0-9 and _")
        times = [r.timestamp for r in records]
        for i, (a, b) in enumerate(zip(times, times[1:]), start=2):
            if b < a:
                raise DataError(
                    f"event log {label!r}: record {i} at {format_timestamp(b)} is "
                    f"earlier than record {i - 1} at {format_timestamp(a)}")
        return self


class Cycle(NamedTuple):
    index: int
    records: tuple[EventRecord, ...]
    cycle_time: float


# ---------------------------------------------------------------------------
# parsing / serialization

_RECORD_RE = re.compile(r"(?:([A-Za-z0-9_]+)\s*:\s*)?\{(?:(.*),)?(.*)\}", re.DOTALL)
_LABEL_LINE_RE = re.compile(r"([A-Za-z0-9_]+)\s*:")
_PAIR_SEP_RE = re.compile(r",(?=\s*\()")  # a ',' before a '('
_PAIR_RE = re.compile(r"^\(\s*([^,()]+?)\s*,\s*([^,()]*?)\s*\)$")


def parse_record(line: str, lineno: int = 0) -> tuple[str, EventRecord]:
    """Parse one record line; returns (log label or '', record).

        line  := [label ":"] "{" group (";" group)* "," timestamp "}"
        group := location ("," "(" entity "," property ")")+ | prop "_" location

    Whitespace around separators is ignored; a label is ``[A-Za-z0-9_]+``,
    and the timestamp, after the last comma, is read by ``parse_timestamp``.
    The fused ``prop_location`` token is the entity id and splits at its
    last ``_``.  The record types check the names: each keeps ``name_ok``
    (none holds ``;``, so every ``;`` separates groups), and a location id
    and an entity id are non-empty, while a property may be empty.
    """
    label, chunks, ts = _split_record(line, lineno)
    return label, _record({}, chunks, ts, lineno, _raw_group)


def _split_record(line: str, lineno: int) -> tuple[str, list[str], str]:
    """(label or '', the group texts, the timestamp text) of a record line."""
    m = _RECORD_RE.fullmatch(line.strip())
    if not m:
        raise DataError(f"line {lineno}: record must be enclosed in braces: {line!r}")
    label, payload, ts = m.groups()
    if payload is None:
        raise DataError(f"line {lineno}: record needs at least a label and a timestamp")
    return label or "", payload.split(";"), ts


def _raw_group(chunk: str) -> tuple[str, list[tuple[str, str]]]:
    """(location id, [(entity id, property)]) of one group text, names unchecked."""
    head, *pairs = (tok.strip() for tok in _PAIR_SEP_RE.split(chunk))
    if not pairs:
        if "_" not in head:
            raise DataError(f"location {head!r} has no entities")
        # abbreviated form: property_location fused into one token
        prop, loc = head.rsplit("_", 1)
        return loc, [(head, prop)]
    entities = []
    for tok in pairs:
        pm = _PAIR_RE.match(tok)
        if not pm:
            raise DataError(f"malformed (entity,property) pair {tok!r}")
        entities.append(pm.groups())
    return head, entities


def _record(memo: dict, keys: list, ts: str, lineno: int, parse) -> EventRecord:
    """The record at timestamp text ts of the groups that `keys` name.

    ``parse`` reads each key not in `memo` into (location id, [(entity id,
    property)]), all of them before any name is checked; each one's checked
    Group is then stored in `memo`.  A key in `memo` raises nothing, so the
    first error is the one a read of every key would give.  Errors name the
    line."""
    try:
        new = [k for k in keys if k not in memo]
        if new:
            raw = [parse(k) for k in new]
            memo.update(zip(new, (Group(loc, tuple(Entity(*e) for e in ents))
                                  for loc, ents in raw)))
        return EventRecord(tuple([memo[k] for k in keys]), parse_timestamp(ts))
    except DataError as exc:
        raise DataError(f"line {lineno}: {exc}") from None


def parse_log(text: str) -> EventLog:
    """Parse a document with one record per line, or a label line,
    ``label ":"``, which labels a log that has no records; every labeled
    line carries the same label.

    Each distinct group text (a ``;``-separated part of a record) is parsed
    and checked once per call: a dict that lives for the call maps it to its
    Group, which every record holding that text shares.  So is each distinct
    record head, the stripped line before its last comma: once a line has
    parsed, its head maps to its (label, groups), and a later line of that
    head whose tail ends in ``}`` reads only its timestamp.  That line
    matches the record grammar with the same label and groups, which passed
    every check but the timestamp's.  Errors and their line numbers are
    those of ``parse_record`` on each line."""
    label, records = "", []
    memo: dict[str, Group] = {}
    heads: dict[str, tuple[str, tuple[Group, ...]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        head, _, tail = stripped.rpartition(",")
        if (known := heads.get(head)) is not None and tail.endswith("}"):
            lbl, groups = known
            try:
                records.append(EventRecord._make((groups, parse_timestamp(tail[:-1]))))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from None
        elif stripped[-1] == ":" and (m := _LABEL_LINE_RE.fullmatch(stripped)):
            lbl = m[1]
        else:
            lbl, chunks, ts = _split_record(line, lineno)
            record = _record(memo, chunks, ts, lineno, _raw_group)
            records.append(record)
            heads[head] = lbl, record.groups
        if lbl and label and lbl != label:
            raise DataError(f"line {lineno}: label {lbl!r} differs from the log's label {label!r}")
        label = label or lbl
    return EventLog(records=tuple(records), label=label)


def serialize_log(log: EventLog) -> str:
    """Canonical full-form text with the label on each record line, or on
    a label line when the log has no records; parse(serialize(log)) == log.
    Each distinct Group's text is made once per call."""
    if log.label and not log.records:
        return f"{log.label}:\n"
    head = f"{log.label}: {{" if log.label else "{"
    memo: dict[Group, str] = {}
    lines = []
    for r in log.records:
        texts = []
        for g in r.groups:
            if (text := memo.get(g)) is None:
                text = memo[g] = ", ".join(
                    [g.location_id] + [f"({e.entity_id},{e.prop})" for e in g.entities])
            texts.append(text)
        lines.append(f"{head}{'; '.join(texts)}, {format_timestamp(r.timestamp)}}}\n")
    return "".join(lines)


def log_to_jsonl(log: EventLog) -> str:
    """One compact ``{"locations":[{"id":...,"entities":[{"id":...,"prop":...}]}],"ts":...}``
    line per record, escaped as by ``json.dumps``' default ``ensure_ascii``.
    Each distinct Group's JSON is made once per call."""
    encode = encode_basestring_ascii
    memo: dict[Group, str] = {}
    lines = []
    for r in log.records:
        texts = []
        for g in r.groups:
            if (text := memo.get(g)) is None:
                ents = ",".join([f'{{"id":{encode(e.entity_id)},"prop":{encode(e.prop)}}}'
                                 for e in g.entities])
                text = memo[g] = f'{{"id":{encode(g.location_id)},"entities":[{ents}]}}'
            texts.append(text)
        # a formatted timestamp holds only digits, "/", ":" and ".", which JSON takes as they are
        lines.append(f'{{"locations":[{",".join(texts)}],'
                     f'"ts":"{format_timestamp(r.timestamp)}"}}\n')
    return "".join(lines)


def _string(value, field: str) -> str:
    """`value` if it is a str that UTF-8 can encode: a JSON escape such as
    ``"\\ud800"`` gives a lone surrogate, which no writer could store."""
    if not isinstance(value, str):
        raise DataError(f"{field} must be a string, got {value!r}")
    try:
        value.encode()
    except UnicodeEncodeError:
        raise DataError(f"{field} {value!r} holds a lone surrogate") from None
    return value


def _number(value, field: str) -> float:
    # float() alone would also take a string or a boolean
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{field} must be a number")
    return float(value)


def _reason(exc: Exception) -> str:
    """A JSON reader's error as text: a KeyError, whose text is only the key, names it missing."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`, a leading BOM skipped; the one reader of whole
    input files.  A file that is not UTF-8 is a DataError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_json(path):
    """The JSON value in the file at `path` (see ``read_text``)."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError
        raise DataError(f"{path}: invalid JSON: {exc}") from None


def log_from_jsonl(text: str, label: str = "") -> EventLog:
    """One ``{"locations": [{"id", "entities": [{"id", "prop"}]}], "ts"}``
    object per line; every id, prop and ts is a string, and prop may be omitted.

    Each distinct group, a location id with its (entity id, property)
    pairs, is checked once per call: a dict that lives for the call maps it
    to its Group, which every record holding that group shares."""
    records = []
    memo: dict[tuple, Group] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            groups = [
                (_string(g["id"], "id"), tuple(
                    (_string(e["id"], "id"), _string(e.get("prop", ""), "prop"))
                    for e in g["entities"]
                ))
                for g in obj["locations"]
            ]
            ts = _string(obj["ts"], "ts")
        except (ValueError, KeyError, TypeError, RecursionError, DataError) as exc:
            raise DataError(f"line {lineno}: {_reason(exc)}") from None
        records.append(_record(memo, groups, ts, lineno, lambda group: group))
    return EventLog(records=tuple(records), label=label)


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


# ---------------------------------------------------------------------------
# cycles

def _group_labels(group: Group) -> Iterator[str]:
    yield group.location_id
    for e in group.entities:
        yield e.entity_id
        if e.prop:
            yield f"{e.prop}_{group.location_id}"


def segment_cycles(
    log: EventLog,
    anchor: str | None = None,
    boundaries: Sequence[datetime] | None = None,
) -> list[Cycle]:
    """Split a log into production cycles.

    ``anchor`` is a regex matched against each record's location ids,
    entity ids and fused property_location labels, once per distinct Group;
    a cycle runs from one anchor record up to (not including) the next.
    Alternatively explicit ``boundaries`` timestamps delimit the cycles.
    Cycle time is anchor-to-anchor, except the last cycle which spans its
    own records.
    """
    if (anchor is None) == (boundaries is None):
        raise DataError("exactly one of anchor or boundaries is required")

    records, n = log.records, len(log.records)
    if anchor is not None:
        try:
            pattern = re.compile(anchor)
        except re.error as exc:
            raise DataError(f"bad anchor pattern {anchor!r}: {exc}") from None
        hits: dict[Group, bool] = {}  # a distinct group -> whether a label of it matches
        starts = []
        for i, r in enumerate(records):
            for g in r.groups:
                if (hit := hits.get(g)) is None:
                    hit = hits[g] = any(pattern.search(lbl) for lbl in _group_labels(g))
                if hit:
                    starts.append(i)
                    break
        if not starts:  # so every group was looked at
            available = sorted({lbl for g in hits for lbl in _group_labels(g)})
            raise DataError(
                f"anchor {anchor!r} matches no record; available labels: "
                f"{', '.join(available)}"
            )
        start_times = [records[i].timestamp for i in starts]
    else:
        start_times = sorted(boundaries)
        times = [r.timestamp for r in records]
        starts = [bisect_left(times, b) for b in start_times]

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
