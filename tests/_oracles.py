"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths.
"""

import csv
import html
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from trackmine.errors import ConvergenceError, DataError
from trackmine.eventlog import (_LABEL_LINE_RE, _PAIR_SEP_RE, _PALETTE, _RECORD_RE, Cycle,
                                Entity, EventLog, EventRecord, Group, Occurrence, _name,
                                _string, format_timestamp, gantt_lane, parse_time, to_datetime,
                                to_seconds)
from trackmine.events import (_TRACKS_FIELDS, DetectionConfig, DetectionSample, Rect, ZoneSpec,
                              detect_events, merge_camera_streams)
from trackmine.ranking import SYMMETRY_TOL, _fix_sign
from trackmine.sim import _BOX_SIZES, _DEFAULT_BOX, TRAVEL_SPEED, Scenario, _zone_center


def power_iteration_oracle(A, iters=200_000, tol=1e-14):
    """Plain power method; reference dominant eigenpair of a symmetric
    PSD matrix."""
    n = A.shape[0]
    x = 1.0 + 1e-6 * np.arange(1, n + 1)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = A @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            break
        x = y / norm
        lam = float(x @ (A @ x))
        if np.linalg.norm(A @ x - lam * x) <= tol:
            break
    i = int(np.argmax(np.abs(x)))
    if x[i] < 0:
        x = -x
    return x, lam


# The two iterative solvers the library ranked with before it took one
# dense solve per ranking: Rayleigh-quotient ascent for ``gradient`` and
# the power method for ``hits_pm_norm`` and ``pagerank_norm``.  They share
# the library's sign rule; the start vector and the iteration cap are
# their own.

MAX_ITERATIONS = 100_000


def _start_vector(n: int) -> np.ndarray:
    # near-uniform with a deterministic ramp so the start is never exactly
    # orthogonal to a structured dominant eigenvector
    x = 1.0 + 1e-6 * np.arange(1, n + 1)
    return x / np.linalg.norm(x)


def grad_dominant_eigvec_loop(S: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, float, int]:
    """Dominant eigenpair of a symmetric PSD matrix by Rayleigh-quotient
    ascent with exact line search.

    Each step maximizes the Rayleigh quotient over span{x, gradient},
    which reduces to a closed-form 2x2 symmetric eigenproblem; no step
    size or damping parameter is involved.  Returns (unit vector,
    eigenvalue, iterations) with ``||S v - lam v|| <= tol``; the
    largest-magnitude component of v is positive.
    """
    if tol <= 0:
        raise DataError("tol must be > 0")
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("symmetric matrix must be square")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if np.abs(A - A.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise DataError("matrix is not symmetric")
    n = A.shape[0]
    if n == 1:
        return np.array([1.0]), float(A[0, 0]), 0

    x = _start_vector(n)
    for it in range(1, MAX_ITERATIONS + 1):
        y = A @ x
        rho = float(x @ y)
        r = y - rho * x  # sphere gradient of the Rayleigh quotient
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol:
            return _fix_sign(x), rho, it
        r -= (x @ r) * x  # re-orthogonalize; rounding in r leaks along x
        rn2 = float(np.linalg.norm(r))
        if rn2 == 0.0:
            return _fix_sign(x), rho, it
        u = r / rn2
        # exact step: dominant eigenvector of A restricted to span{x, u}
        a = rho
        b = float(u @ y)
        d = float(u @ (A @ u))
        theta = 0.5 * math.atan2(2.0 * b, a - d)
        c, s = math.cos(theta), math.sin(theta)
        if c * c * a + 2 * c * s * b + s * s * d < s * s * a - 2 * c * s * b + c * c * d:
            c, s = -s, c
        x = c * x + s * u
        x /= np.linalg.norm(x)
    raise ConvergenceError(
        f"gradient eigensolver did not reach tol={tol} in {MAX_ITERATIONS} iterations "
        f"(residual {rnorm:.3e})"
    )


def power_iteration_loop(M: np.ndarray, tol: float) -> tuple[np.ndarray, float, float, int]:
    """Power method with L2 renormalization each step.

    Returns (unit vector, Rayleigh quotient lam, residual ||M v - lam v||,
    iterations); the largest-magnitude component of v is positive.  Stops
    once a step moves the vector by at most 1e-12 or the residual is
    <= tol.  The one mat-vec per step serves lam, the residual and the
    next step.
    """
    x = _start_vector(M.shape[0])
    y = M @ x
    for it in range(1, MAX_ITERATIONS + 1):
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to zero")
        x_new = y / norm
        y = M @ x_new
        lam = float(x_new @ y)
        res = float(np.linalg.norm(y - lam * x_new))
        stalled = float(np.linalg.norm(x_new - x)) <= 1e-12
        x = x_new
        if stalled or res <= tol:
            return _fix_sign(x), lam, res, it
    raise ConvergenceError(
        f"power iteration did not converge in {MAX_ITERATIONS} iterations "
        f"(residual {res:.3e})"
    )


def brute_force_dfg(labels):
    """Count adjacent pairs and occurrences by direct enumeration."""
    edges = {}
    for a, b in zip(labels, labels[1:]):
        edges[(a, b)] = edges.get((a, b), 0) + 1
    counts = {}
    for lbl in labels:
        counts[lbl] = counts.get(lbl, 0) + 1
    return edges, counts


def random_psd(rng, n, gap_max=0.999):
    """Random symmetric PSD matrix with spectral-gap ratio <= gap_max."""
    while True:
        eigs = np.sort(rng.uniform(0.0, 1.0, size=n))
        if eigs[-1] <= 0:
            continue
        if n >= 2 and eigs[-2] / eigs[-1] > gap_max:
            continue
        break
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ np.diag(eigs) @ Q.T


def stochastic_columns_loop(L):
    """Column-stochastic matrix of L built column by column; zero columns
    become uniform."""
    n = L.shape[0]
    S = np.empty_like(L, dtype=float)
    for j in range(n):
        col = L[:, j].sum()
        S[:, j] = 1.0 / n if col == 0 else L[:, j] / col
    return S


def precision_scan(detected, truth, match_window):
    """Reference precision: for each detection in order, scan the sorted
    truth list from its start for the first unused match."""
    if match_window < 0:
        raise DataError("match_window must be >= 0")
    detected = sorted(detected)
    truth = sorted(truth)
    if not detected:
        return 1.0
    matched = 0
    used = [False] * len(truth)
    for d in detected:
        for i, t in enumerate(truth):
            if used[i]:
                continue
            if t.start_time - d.start_time > match_window:
                break
            if (
                t.location_id == d.location_id
                and t.entity_class == d.entity_class
                and abs(t.start_time - d.start_time) <= match_window
            ):
                used[i] = True
                matched += 1
                break
    return matched / len(detected)


# eventlog's CSV record loop as it was before it took a build callable,
# so the row oracle below does not share the loop that it checks.

def _csv_rows(fh, path, expected: list[str] | None = None):
    """Yield (line number, row) for the header when `expected` is None, else check it is exactly
    `expected`; then for each non-blank data row, which must be as wide as the header.

    A csv.Error (a field over csv's size limit, a NUL on Python 3.10) is a DataError at the
    reader's line; a UnicodeDecodeError, raised a chunk ahead of the reader, is one on the file."""
    reader = csv.reader(fh)
    try:
        header = next(reader, [])
        if expected is not None and header != expected:
            raise DataError(
                f"{path}: expected header {','.join(expected)}, got {','.join(header)!r}"
            )
        if expected is None:
            yield reader.line_num, header
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, row
    except (csv.Error, UnicodeDecodeError) as exc:
        where = f":{reader.line_num}" if isinstance(exc, csv.Error) else ""
        raise DataError(f"{path}{where}: {exc}") from None


def load_tracks_rows(path) -> list[DetectionSample]:
    """The tracks CSV reader row by row: every row through ``_csv_rows`` above,
    a check that its class or track id is not empty, the name rule,
    ``parse_time`` and ``Rect``, as ``load_tracks_csv`` read before its
    one-pass loop."""
    samples = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, (camera, time, cls, track, x, y, w, h) in _csv_rows(fh, path, _TRACKS_FIELDS):
            try:
                if not cls and not track:
                    raise DataError("entity_class and track_id are both empty")
                samples.append(DetectionSample(
                    _name(camera, "camera_id"), parse_time(time), _name(cls, "entity_class"),
                    _name(track, "track_id"), *Rect(float(x), float(y), float(w), float(h))))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return samples


def tracks_to_csv_writer(samples: Iterable[DetectionSample]) -> str:
    """The tracks CSV with every row written by csv: floats as repr, rows
    ending in "\\n", and an id quoted where csv needs it."""
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    # csv quotes only the row end's characters: a "\r" in an id quotes its row
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(_TRACKS_FIELDS)
    for s in samples:
        b = s.box
        (quoted if "\r" in s.camera_id + s.entity_class + s.track_id else plain).writerow(
            [s.camera_id, repr(s.time), s.entity_class, s.track_id,
             repr(b.x), repr(b.y), repr(b.w), repr(b.h)])
    return buf.getvalue()


def overlap_ratio(entity_box: Rect, zone_box: Rect) -> float:
    """Fraction of the entity box covered by the zone.

    The denominator is the entity box area, so a small entity fully inside
    a large zone scores 1.0.
    """
    for name, box in (("entity_box", entity_box), ("zone_box", zone_box)):
        if box.w * box.h <= 0:
            raise DataError(f"{name} has non-positive area: {box}")
    ix = min(entity_box.x + entity_box.w, zone_box.x + zone_box.w) - max(
        entity_box.x, zone_box.x
    )
    iy = min(entity_box.y + entity_box.h, zone_box.y + zone_box.h) - max(
        entity_box.y, zone_box.y
    )
    if ix <= 0 or iy <= 0:
        return 0.0
    return (ix * iy) / (entity_box.w * entity_box.h)


@dataclass
class _Run:
    start: float
    last: float
    emitted: bool = False


def detect_events_loop(
    samples: Iterable[DetectionSample],
    zones: Sequence[ZoneSpec],
    cfg: DetectionConfig,
) -> list[Occurrence]:
    """Lift a detection stream to event occurrences.

    An occurrence is emitted when a (track, zone) pair keeps an overlap
    ratio >= cfg.min_overlap_ratio for at least cfg.min_duration, allowing
    one missing sample between qualifying samples.  The start time is the
    first sample of the qualifying run; a new occurrence for the same pair
    requires the overlap to first drop below threshold.
    """
    samples = list(samples)

    seen = {}
    for loc in zones:
        key = (loc.camera_id, loc.location_id)
        if key in seen:
            raise DataError(f"duplicate zone {loc.location_id!r} on camera {loc.camera_id!r}")
        seen[key] = loc
    if samples:
        cameras = {s.camera_id for s in samples}
        for loc in zones:
            if loc.camera_id not in cameras:
                raise DataError(
                    f"zone {loc.location_id!r} references camera {loc.camera_id!r} "
                    f"absent from the sample stream"
                )

    last_time: dict[tuple, float] = {}
    for pos, s in enumerate(samples):
        stream = (s.camera_id, s.track_id)
        if stream in last_time and s.time < last_time[stream]:
            raise DataError(
                f"samples not time-sorted: inversion at position {pos} "
                f"(camera {s.camera_id!r}, track {s.track_id!r}, "
                f"{s.time} < {last_time[stream]})"
            )
        last_time[stream] = s.time

    by_camera: dict[str, list[ZoneSpec]] = {}
    for loc in zones:
        by_camera.setdefault(loc.camera_id, []).append(loc)

    # One run state per (track stream, zone); a gap longer than one missing
    # sample (delta > 2 * sample_period) closes the run.
    max_delta = 2.0 * cfg.sample_period
    runs: dict[tuple, _Run] = {}
    out: list[Occurrence] = []
    for s in samples:
        for loc in by_camera.get(s.camera_id, ()):
            key = (s.camera_id, s.track_id, s.entity_class, loc.location_id)
            ratio = overlap_ratio(s.box, loc.box)
            run = runs.get(key)
            if ratio >= cfg.min_overlap_ratio:
                if run is None or s.time - run.last > max_delta:
                    run = _Run(start=s.time, last=s.time)
                    runs[key] = run
                else:
                    run.last = s.time
                if not run.emitted and run.last - run.start >= cfg.min_duration:
                    out.append(
                        Occurrence(
                            start_time=run.start,
                            location_id=loc.location_id,
                            entity_class=s.entity_class,
                            track_id=s.track_id,
                        )
                    )
                    run.emitted = True
            else:
                runs.pop(key, None)
    out.sort()
    return out


# How ``events.detect_streams`` ran before it took one ``detect_events`` pass:
# each camera's samples split out in Python and detected against that
# camera's zones alone.  It skips the checks that need the whole stream (a
# zone on a camera without samples, an unsorted track on a camera without
# zones) and counts error positions within one camera's samples.

def detect_streams_split(
    samples: Sequence[DetectionSample], zones: Sequence[ZoneSpec], cfg: DetectionConfig
) -> list[Occurrence]:
    """Detect each camera's samples against that camera's zones, cameras
    in sorted order, then merge the streams with cfg.dedup_window."""
    by_camera: dict[str, list[ZoneSpec]] = {}
    for z in zones:
        by_camera.setdefault(z.camera_id, []).append(z)
    streams = [
        detect_events([s for s in samples if s.camera_id == cam], cam_zones, cfg)
        for cam, cam_zones in sorted(by_camera.items())
    ]
    return merge_camera_streams(streams, cfg.dedup_window)


TIMESTAMP_FMT = "%Y/%m/%d/%H:%M:%S"

# The event-log record parser the library used before its regex parser: a
# depth-counting character splitter applied three times, and strptime for
# the timestamp.

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


def parse_record_split_top(line: str, lineno: int = 0) -> tuple[str, EventRecord]:
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


# The event-log readers before they memoized groups: every record line is
# parsed and checked on its own, and every timestamp field by field.  The
# grouped regex is the library's old one, made ASCII as the library's is.

_TIMESTAMP_RE = re.compile(
    r"(\d{4})(?:/(\d\d)/(\d\d)/|-(\d\d)-(\d\d)[T ])(\d\d):(\d\d):(\d\d)(?:\.(\d{6}))?", re.ASCII)


def parse_timestamp_fields(text: str) -> datetime:
    """Zero-padded ``YYYY/MM/DD/hh:mm:ss`` (``TIMESTAMP_FMT``) or ISO
    ``YYYY-MM-DD[T ]hh:mm:ss``, either with an optional ``.ffffff``
    -> datetime, read field by field with ``int``."""
    text = text.strip()
    m = _TIMESTAMP_RE.fullmatch(text)
    try:
        if m:
            return datetime(*(int(g) for g in m.groups() if g))
    except ValueError:  # the right shape but out of range, e.g. month 13
        pass
    raise DataError(f"unparseable timestamp {text!r}")


def parse_record_per_line(line: str, lineno: int = 0) -> tuple[str, EventRecord]:
    """Parse one record line; returns (log label or '', record)."""
    m = _RECORD_RE.fullmatch(line.strip())
    if not m:
        raise DataError(f"line {lineno}: record must be enclosed in braces: {line!r}")
    label, payload, ts = m.groups()
    if payload is None:
        raise DataError(f"line {lineno}: record needs at least a label and a timestamp")

    groups = []
    for chunk in payload.split(";"):
        head, *pairs = (tok.strip() for tok in _PAIR_SEP_RE.split(chunk))
        if not pairs:
            if "_" not in head:
                raise DataError(f"line {lineno}: location {head!r} has no entities")
            # abbreviated form: property_location fused into one token
            prop, loc = head.rsplit("_", 1)
            groups.append((loc, [(head, prop)]))
            continue
        entities = []
        for tok in pairs:
            pm = _PAIR_RE.match(tok)
            if not pm:
                raise DataError(f"line {lineno}: malformed (entity,property) pair {tok!r}")
            entities.append(pm.groups())
        groups.append((head, entities))
    return label or "", _record_per_line(groups, ts, lineno)


def _record_per_line(groups, ts: str, lineno: int) -> EventRecord:
    """The record of (location id, [(entity id, property)]) groups at
    timestamp text ts; its errors, the name rules' included, name the line."""
    try:
        return EventRecord(
            tuple(Group(loc, tuple(Entity(*e) for e in ents)) for loc, ents in groups),
            parse_timestamp_fields(ts),
        )
    except DataError as exc:
        raise DataError(f"line {lineno}: {exc}") from None


def parse_log_per_line(text: str) -> EventLog:
    """Parse a document with one record per line, or a label line,
    ``label ":"``, which labels a log that has no records; every labeled
    line carries the same label."""
    label, records = "", []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        if stripped[-1] == ":" and (m := _LABEL_LINE_RE.fullmatch(stripped)):
            lbl = m[1]
        else:
            lbl, record = parse_record_per_line(line, lineno)
            records.append(record)
        if lbl and label and lbl != label:
            raise DataError(f"line {lineno}: label {lbl!r} differs from the log's label {label!r}")
        label = label or lbl
    return EventLog(records=tuple(records), label=label)


def log_from_jsonl_per_line(text: str, label: str = "") -> EventLog:
    """One ``{"locations": [{"id", "entities": [{"id", "prop"}]}], "ts"}``
    object per line; every id, prop and ts is a string, and prop may be omitted."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            groups = [
                (_string(g["id"], "id"), [
                    (_string(e["id"], "id"), _string(e.get("prop", ""), "prop"))
                    for e in g["entities"]
                ])
                for g in obj["locations"]
            ]
            ts = _string(obj["ts"], "ts")
        except (ValueError, KeyError, TypeError, RecursionError, DataError) as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        records.append(_record_per_line(groups, ts, lineno))
    return EventLog(records=tuple(records), label=label)


# The log writers as they were before each distinct group was written
# once per call: each record, group and tick formatted, and each name
# checked, on its own.

def serialize_record(record: EventRecord, label: str = "") -> str:
    body = "; ".join(
        ", ".join([g.location_id] + [f"({e.entity_id},{e.prop})" for e in g.entities])
        for g in record.groups
    )
    prefix = f"{label}: " if label else ""
    return f"{prefix}{{{body}, {format_timestamp(record.timestamp)}}}"


def serialize_log_per_record(log: EventLog) -> str:
    """Canonical full-form text with the label on each record line, or on
    a label line when the log has no records; parse(serialize(log)) == log."""
    if log.label and not log.records:
        return f"{log.label}:\n"
    return "".join(serialize_record(r, log.label) + "\n" for r in log.records)


def log_to_jsonl_dumps(log: EventLog) -> str:
    return "".join(
        json.dumps({
            "locations": [
                {"id": g.location_id,
                 "entities": [{"id": e.entity_id, "prop": e.prop} for e in g.entities]}
                for g in r.groups
            ],
            "ts": format_timestamp(r.timestamp),
        }, separators=(",", ":")) + "\n"
        for r in log.records
    )


def occurrences_to_log_per_occurrence(occurrences: Sequence[Occurrence], label: str = "") -> EventLog:
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


def gantt_per_tick(log: EventLog, lane_key: str = "location") -> str:
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
            for e in g.entities:  # ticks are coloured by the entity lane
                ticks.append((gantt_lane(g, e, lane_key), gantt_lane(g, e, "entity"), t))

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
        # the time of day; the axis may run past the calendar's last second
        label = to_datetime(t % 86400.0).strftime("%H:%M:%S")
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



# ``segment_cycles`` by boundaries as it ran while a log's timestamps could
# still decrease: a linear scan from the first record for each boundary.

def segment_cycles_scan(log: EventLog, boundaries: Sequence[datetime]) -> list[Cycle]:
    """Cycles between sorted boundaries; a cycle starts at the first record
    at or after its boundary, and empty cycles are dropped."""
    records, n = log.records, len(log.records)
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


# ``segment_cycles`` by anchor as it ran before it matched once per distinct
# group: the anchor is searched in every label of every record.

def _record_labels(record: EventRecord) -> Iterable[str]:
    for g in record.groups:
        yield g.location_id
        for e in g.entities:
            yield e.entity_id
            if e.prop:
                yield f"{e.prop}_{g.location_id}"


def segment_cycles_per_record(log: EventLog, anchor: str) -> list[Cycle]:
    """Cycles from one anchor record up to (not including) the next; cycle
    time is anchor-to-anchor, except the last cycle's, which spans its own
    records."""
    records, n = log.records, len(log.records)
    try:
        pattern = re.compile(anchor)
    except re.error as exc:
        raise DataError(f"bad anchor pattern {anchor!r}: {exc}") from None
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

    cycles = []
    for k, (lo, hi) in enumerate(zip(starts, starts[1:] + [n])):
        recs = records[lo:hi]
        if not recs:
            continue
        end = start_times[k + 1] if k + 1 < len(starts) else recs[-1].timestamp
        cycles.append(Cycle(len(cycles) + 1, recs, (end - start_times[k]).total_seconds()))
    return cycles


# The simulator before it sampled from arrays: a per-sample scan of the
# actor's stops from the first one.

def simulate_loop(
    sc: Scenario, min_duration: float = DetectionConfig._field_defaults["min_duration"]
) -> tuple[list[DetectionSample], list[Occurrence]]:
    """Run the scenario; returns (samples, ground-truth occurrences).

    Each actor sample is emitted once per camera present in the scenario
    (overlapping-view cameras see the same pixel frame); stream merging
    downstream collapses the duplicates.  Ground truth holds one
    occurrence per itinerary stop whose dwell reaches ``min_duration``,
    stamped with the arrival time at the zone.
    """
    rng = np.random.default_rng(sc.seed)
    cameras = sorted({z.camera_id for z in sc.zones})
    centers = {}
    for z in sc.zones:
        centers.setdefault(z.location_id, _zone_center(z))

    samples: list[DetectionSample] = []
    truth: list[Occurrence] = []
    for idx, actor in enumerate(sc.actors):
        track_id = actor.track_id or f"T{idx}"
        bw, bh = _BOX_SIZES.get(actor.entity_class, _DEFAULT_BOX)
        # waypoints: (arrival time, departure time, x, y)
        t = 0.0
        stops = []
        prev = None
        for loc, dwell in actor.itinerary:
            cx, cy = centers[loc]
            if prev is not None:
                dist = float(np.hypot(cx - prev[0], cy - prev[1]))
                t += dist / TRAVEL_SPEED
            stops.append((loc, t, t + dwell, cx, cy))
            if dwell >= min_duration:
                truth.append(
                    Occurrence(
                        start_time=t,
                        location_id=loc,
                        entity_class=actor.entity_class,
                        track_id=track_id,
                    )
                )
            t += dwell
            prev = (cx, cy)

        def position(at: float) -> tuple[float, float]:
            for k, (_, arr, dep, cx, cy) in enumerate(stops):
                if at <= dep:
                    if at >= arr or k == 0:
                        return (cx, cy)
                    # traveling from previous stop
                    _, _, pdep, px, py = stops[k - 1]
                    frac = (at - pdep) / (arr - pdep)
                    return (px + frac * (cx - px), py + frac * (cy - py))
            return (stops[-1][3], stops[-1][4])

        end = stops[-1][2]
        n_steps = int(np.floor(end / sc.sample_period)) + 1
        # per actor: every sample's dropout draw, then the x row and the y row of jitter
        dropped = rng.random(n_steps) < sc.dropout if sc.dropout > 0 else np.zeros(n_steps, bool)
        jitter = iter(zip(*rng.normal(0.0, sc.jitter, (2, n_steps - int(dropped.sum()))).tolist())
                      if sc.jitter > 0 else ())
        for step in range(n_steps):
            at = step * sc.sample_period
            if dropped[step]:
                continue
            x, y = position(at)
            if sc.jitter > 0:
                dx, dy = next(jitter)
                x += dx
                y += dy
            box = Rect(x - bw / 2.0, y - bh / 2.0, bw, bh)
            for cam in cameras:
                samples.append(DetectionSample(cam, at, actor.entity_class, track_id, *box))
    samples.sort(key=lambda s: (s.camera_id, s.track_id, s.time))
    truth.sort()
    return samples, truth
