"""Calendar time, the detection settings, atomic file writes, and event logs:
the name rule, the record types, the text format and cycles; no numpy.

This is the log code that every subcommand runs, and ``import trackmine.cli``
loads it.  The rest lives where only the subcommands that run it import it:
occurrences with their CSV, stream merge, log builder and precision in
``occurrences``, the JSONL format in ``jsonl`` and the Gantt chart in
``gantt``; this module imports none of them.

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
from datetime import datetime, timedelta
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

from .errors import DataError

# ---------------------------------------------------------------------------
# calendar time

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
# names read here that moved out: the benchmark harness reads each as eventlog.<name>

_MOVED = {"gantt": "gantt", "log_to_jsonl": "jsonl", "log_from_jsonl": "jsonl",
          "occurrences_to_log": "occurrences", "precision": "occurrences"}


def __getattr__(name):
    """A name in ``_MOVED``, from the module that holds it now, imported on the first
    read and cached in this module's namespace (PEP 562); any other name is missing."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__package__}.{_MOVED[name]}"), name)
    return value
