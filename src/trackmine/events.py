"""Zone-overlap event detection on per-camera detection tracks, and the
tracks CSV and zones JSON readers and writers.

A detection track is a time-ordered stream of bounding boxes per
(camera, track).  An event occurrence (``occurrences.Occurrence``) is emitted
when a track stays on a declared zone long enough; only the start time is
recorded.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
from itertools import repeat
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .eventlog import (DetectionConfig, _csv_rows, _name, _number, _reason, checked, load_json,
                       name_ok, parse_time)
# the occurrence CSV's reader and writer stay reachable as events.*, which only the benchmark
# harness reads; the package and its tests import them from occurrences
from .occurrences import (Occurrence, load_occurrences_csv, merge_camera_streams,  # noqa: F401
                          write_occurrences_csv)

_CHUNK = 1 << 18  # characters of whole lines per column pass


def _collector_paused(fn):
    """`fn` with CPython's cyclic collector paused, and its state restored however `fn`
    ends: for functions that build many records holding no reference cycle, which the
    collector would walk again and again and never free.  Nothing allocates once it is
    restored, so the records take their first (young) collection after `fn` returns.
    The state is process-wide: a thread running beside `fn` finds it paused too."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused


@checked
class Rect(NamedTuple):
    """An axis-aligned rectangle in pixel coordinates, checked by its ``_checked`` hook:
    every coordinate finite, w > 0 and h > 0, and so w * h > 0 (a product that underflows
    to 0 is refused too, as the overlap divides by it).  ``_make`` and ``_replace`` skip it."""

    x: float
    y: float
    w: float
    h: float

    def _checked(self):
        if not all(map(math.isfinite, self)):
            raise DataError(f"box {self} has a non-finite coordinate")
        if not (self.w > 0 and self.w * self.h > 0):
            raise DataError(f"box {self} has a non-positive width, height or area")
        return self


@checked
class DetectionSample(NamedTuple):
    """One time-stamped bounding box of one entity seen by one camera, its box held
    inline as four floats, so that a sample is one object.  Its ``_checked`` hook
    refuses the x, y, w, h that ``Rect`` refuses, with its message; ``box`` gives them
    back as a ``Rect``.  ``_make`` and ``_replace`` skip the hook."""

    camera_id: str
    time: float  # seconds
    entity_class: str
    track_id: str  # "" when untracked
    x: float
    y: float
    w: float
    h: float

    def _checked(self):
        Rect(*self[4:])
        return self

    @property
    def box(self) -> Rect:
        return Rect._make(self[4:])


_TRACKS_FIELDS = list(DetectionSample._fields)  # the tracks CSV's header
# the header line: ending in "\n" as ``tracks_to_csv`` writes it or in "\r\n" as Excel
# does, or alone in its file
_TRACKS_HEADERS = tuple(",".join(_TRACKS_FIELDS) + end for end in ("", "\n", "\r\n"))


@checked
class ZoneSpec(NamedTuple):
    """A named location with its rectangle in the owning camera's frame, checked by its
    ``_checked`` hook: a ``Rect`` box, a non-empty location, and a location, camera and
    category that keep ``eventlog.name_ok``.  ``_make`` and ``_replace`` skip the hook."""

    location_id: str
    camera_id: str
    box: Rect
    category: str = ""

    def _checked(self):
        if not _name(self.location_id, "location_id"):  # a value that is no string fails first
            raise DataError("location_id is empty")
        _name(self.camera_id, "camera_id")
        if not isinstance(self.box, Rect):
            raise DataError(f"box {self.box!r} is not a Rect")
        _name(self.category, "category")
        return self


def check_unique_zones(zones: Iterable[ZoneSpec]) -> None:
    """Raise DataError on a (location, camera) zone declared twice."""
    seen = set()
    for loc in zones:
        if (loc.camera_id, loc.location_id) in seen:
            raise DataError(f"duplicate zone {loc.location_id!r} on camera {loc.camera_id!r}")
        seen.add((loc.camera_id, loc.location_id))


def _overlap(ex, ey, ew, eh, zx, zy, zw, zh):
    """The fraction of the entity box (ex, ey, ew, eh) that the zone box
    covers, elementwise on float64 scalars or arrays: the denominator is the
    entity box's area, so a small entity inside a large zone scores 1.0."""
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.minimum(ex + ew, zx + zw) - np.maximum(ex, zx)
        iy = np.minimum(ey + eh, zy + zh) - np.maximum(ey, zy)
        return np.where((ix > 0) & (iy > 0), (ix * iy) / (ew * eh), 0.0)


def detect_events(
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

    A run is a block of consecutive qualifying samples of one
    (camera, track, class) stream with no step longer than
    2 * cfg.sample_period; it emits when its last time minus its first is
    at least cfg.min_duration.  Each zone is one array pass over its
    camera's samples, O(N) numpy work per zone.
    """
    samples = list(samples)
    check_unique_zones(zones)
    if not samples:
        return []

    # (camera, track, class) stream ids and camera ids in order of first
    # appearance; one lexsort by (camera, stream) below lays out each camera
    # as one slice and each stream as a contiguous block in input order.
    ids: dict[tuple, int] = {}
    sid = np.array([ids.setdefault((s.camera_id, s.track_id, s.entity_class), len(ids))
                    for s in samples])
    cam_ids: dict[str, int] = {}
    ct_ids: dict[tuple, int] = {}
    stream_cam = np.array([cam_ids.setdefault(k[0], len(cam_ids)) for k in ids])
    stream_ct = np.array([ct_ids.setdefault(k[:2], len(ct_ids)) for k in ids])

    for loc in zones:
        if loc.camera_id not in cam_ids:
            raise DataError(
                f"zone {loc.location_id!r} references camera {loc.camera_id!r} "
                f"absent from the sample stream"
            )
    t, x, y, w, h = (np.fromiter(map(attrgetter(f), samples), float, len(samples))
                     for f in ("time", "x", "y", "w", "h"))
    if not np.isfinite(t).all():
        pos = int(np.argmin(np.isfinite(t)))
        raise DataError(f"sample at position {pos} has a non-finite time {samples[pos].time}")

    # time order per (camera, track), in input order within each
    ct = stream_ct[sid]
    by_ct = np.argsort(ct, kind="stable")
    inv = (ct[by_ct[1:]] == ct[by_ct[:-1]]) & (t[by_ct[1:]] < t[by_ct[:-1]])
    if inv.any():
        k = np.flatnonzero(inv)
        k = k[np.argmin(by_ct[k + 1])]
        s, prev = samples[by_ct[k + 1]], samples[by_ct[k]]
        raise DataError(
            f"samples not time-sorted: inversion at position {by_ct[k + 1]} "
            f"(camera {s.camera_id!r}, track {s.track_id!r}, "
            f"{s.time} < {prev.time})"
        )

    by_camera: dict[int, list[tuple[int, ZoneSpec]]] = {}
    for j, loc in enumerate(zones):
        by_camera.setdefault(cam_ids[loc.camera_id], []).append((j, loc))

    cam = stream_cam[sid]
    order = np.lexsort((sid, cam))
    t, x, y, w, h, sid, cam = (a[order] for a in (t, x, y, w, h, sid, cam))
    # a run cannot continue across a stream boundary or a gap longer than
    # one missing sample
    brk = np.ones(len(t), dtype=bool)
    with np.errstate(over="ignore"):  # a step past the float range is inf, so a break
        brk[1:] = (sid[1:] != sid[:-1]) | (t[1:] - t[:-1] > 2.0 * cfg.sample_period)
    bounds = np.searchsorted(cam, np.arange(len(cam_ids) + 1))

    parts = []  # (emitting sample, run's first sample, zone index) per zone
    for c, cam_zones in by_camera.items():
        lo, hi = bounds[c], bounds[c + 1]
        tc = t[lo:hi]
        for j, loc in cam_zones:
            z = loc.box
            ratio = _overlap(x[lo:hi], y[lo:hi], w[lo:hi], h[lo:hi],
                             float(z.x), float(z.y), float(z.w), float(z.h))
            qi = np.flatnonzero(ratio >= cfg.min_overlap_ratio)
            if not len(qi):
                continue
            starts = np.ones(len(qi), dtype=bool)
            starts[1:] = (np.diff(qi) != 1) | brk[lo + qi[1:]]
            run = np.cumsum(starts) - 1
            first = qi[starts][run]
            # times never decrease within a stream, so done is monotone
            # within a run and the run emits at its first true sample
            with np.errstate(over="ignore"):
                done = tc[qi] - tc[first] >= cfg.min_duration
            emit = done & (starts | ~np.concatenate(([False], done[:-1])))
            parts.append((order[lo + qi[emit]], order[lo + first[emit]],
                          np.full(int(emit.sum()), j)))
    if not parts:
        return []
    emit_at, start_at, zone_at = (np.concatenate(a) for a in zip(*parts))
    # build in emission order (sample, then zone), as a per-sample scan
    # would; it decides ties such as -0.0 vs 0.0 under the stable sort
    out = []
    for k in np.lexsort((zone_at, emit_at)):
        s = samples[start_at[k]]
        out.append(Occurrence(float(s.time), zones[zone_at[k]].location_id,
                              s.entity_class, s.track_id))
    out.sort()
    return out


def detect_streams(
    samples: Sequence[DetectionSample], zones: Sequence[ZoneSpec], cfg: DetectionConfig
) -> list[Occurrence]:
    """Detect every camera's samples against its own zones in one
    ``detect_events`` pass, with its checks (every zone's camera has
    samples, every track is time-sorted), then collapse the cameras' views
    of one occurrence with cfg.dedup_window (``merge_camera_streams``)."""
    return merge_camera_streams([detect_events(samples, zones, cfg)], cfg.dedup_window)


# ---------------------------------------------------------------------------
# file formats

@_collector_paused
def load_tracks_csv(path) -> list[DetectionSample]:
    """Read tracks from CSV with header camera_id,time,entity_class,track_id,x,y,w,h.

    A plain file loads in column passes (``_tracks_by_columns``).  Any other
    file is read again from its start, row by row through the exact checks
    (``_tracks_by_rows``); an input that cannot seek, such as a pipe, which
    could not be read again, takes only that path.  Both give the same
    samples and the same errors."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if fh.seekable():
            try:
                samples = _tracks_by_columns(fh)
            except UnicodeDecodeError:  # the row reader raises it with its own position
                samples = None
            if samples is not None:
                return samples
            fh.seek(0)
        return _tracks_by_rows(fh, path)


def _tracks_by_columns(fh) -> list[DetectionSample] | None:
    """The samples of `fh` read a chunk of lines at a time: each line is
    split once, and its columns are converted and zipped into records in C,
    with each distinct id one shared string.  None when some chunk is not plain,
    that is when csv could read it otherwise or a row needs an exact check:
    a header other than the exact one, a line that ends in a lone "\\r" (the
    reader ends a line at each), holds other than 8 fields (a blank line too)
    or is longer than csv's field limit, a time column that is not ASCII or
    holds "_", a value ``float`` rejects, a column whose values sum to a
    non-finite value, as any nan or inf makes it (a sum that only overflows is
    refused too), a width or height column whose least value is not > 0 (or
    whose least values' product is not), an id that breaks ``name_ok``, as one
    holding a quote or a NUL does, or a row whose class and track id are both
    empty, looked for only when "" is one of the ids."""
    if fh.readline() not in _TRACKS_HEADERS:
        return None
    limit = csv.field_size_limit()
    samples = []
    distinct: dict[str, str] = {}
    share = distinct.setdefault  # each distinct id as one string for the whole file
    while lines := fh.readlines(_CHUNK):
        rows = list(map(str.split, lines, repeat(",")))
        if (set(map(len, rows)) != {8} or any(map(str.endswith, lines, repeat("\r")))
                or max(map(len, lines)) > limit):
            return None
        # a line's "\n" or "\r\n" ends its h field, and ``float`` skips it as it does a space
        camera, times, cls, track, *box = zip(*rows)
        del rows  # freed before the floats and records are built, which lowers the peak
        joined = ",".join(times)
        if not joined.isascii() or "_" in joined:
            return None
        try:
            t, x, y, w, h = (list(map(float, column)) for column in (times, *box))
        except ValueError:
            return None
        # a nan or inf makes its column's sum one
        if not all(map(math.isfinite, map(sum, (t, x, y, w, h)))):
            return None
        # the least width and height keep Rect's rule, and so every row's do
        least_w, least_h = min(w), min(h)
        if not (least_w > 0 and least_w * least_h > 0):
            return None
        camera, cls, track = (map(share, ids, ids) for ids in (camera, cls, track))
        samples += map(tuple.__new__, repeat(DetectionSample),
                       zip(camera, t, cls, track, x, y, w, h))
    if not all(map(name_ok, distinct)):
        return None
    if "" in distinct and not all(s.entity_class or s.track_id for s in samples):
        return None
    return samples


def _tracks_by_rows(fh, path) -> list[DetectionSample]:
    """The samples of `fh`, the tracks CSV at `path`, every row through
    ``_csv_rows``, a check that its class or track id is not empty, the name
    rule, ``parse_time`` and ``DetectionSample``'s box rule: a blank row is
    skipped, and a row of another width or with a bad value raises its
    ``path:line:`` error."""
    def sample(camera, time, cls, track, *box):
        if not (cls or track):
            raise DataError("entity_class and track_id are both empty")
        return DetectionSample(_name(camera, "camera_id"), parse_time(time),
                               _name(cls, "entity_class"), _name(track, "track_id"),
                               *map(float, box))
    return list(_csv_rows(fh, path, _TRACKS_FIELDS, sample))


def tracks_to_csv(samples: Iterable[DetectionSample]) -> str:
    """The tracks CSV that ``load_tracks_csv`` reads: floats as repr, one
    f-string per row ending in "\\n".  No id that keeps ``name_ok`` needs
    quoting, so this is the text csv's writer gives."""
    return "".join([",".join(_TRACKS_FIELDS) + "\n"] + [
        f"{camera},{t!r},{cls},{track},{x!r},{y!r},{w!r},{h!r}\n"
        for camera, t, cls, track, x, y, w, h in samples])


def zone_from_json(item) -> ZoneSpec:
    """One zone from its JSON object {location_id, camera_id, x, y, w, h, category},
    its box checked before its names; the caller adds its prefix to the KeyError,
    TypeError, OverflowError (an integer past the float range) or DataError
    this raises on a bad item."""
    box = Rect(*(_number(item[k], k) for k in "xywh"))
    return ZoneSpec(item["location_id"], item["camera_id"], box, item.get("category", ""))


def load_zones_json(path) -> list[ZoneSpec]:
    """Read zones from a JSON array of zone objects (see ``zone_from_json``), refusing
    a (location, camera) zone declared twice where it enters, at its index."""
    raw = load_json(path)
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON array of zones")
    zones = {}  # in file order, by (camera, location)
    for i, item in enumerate(raw):
        try:
            zone = zone_from_json(item)
            if zones.setdefault((zone.camera_id, zone.location_id), zone) is not zone:
                raise DataError(f"duplicate zone {zone.location_id!r} on camera {zone.camera_id!r}")
        except (KeyError, TypeError, OverflowError, DataError) as exc:
            raise DataError(f"{path}: zone #{i}: {_reason(exc)}") from None
    return list(zones.values())


def zones_to_json(zones: Iterable[ZoneSpec]) -> str:
    """The zones JSON array that ``load_zones_json`` reads."""
    return json.dumps([{"location_id": z.location_id, "camera_id": z.camera_id,
                        **z.box._asdict(), "category": z.category} for z in zones], indent=2) + "\n"
