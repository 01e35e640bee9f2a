"""Zone-overlap event detection on per-camera detection tracks.

A detection track is a time-ordered stream of bounding boxes per
(camera, track).  An event occurrence is emitted when a track stays on a
declared zone long enough; only the start time is recorded.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

from .errors import ConfigError, DataError

TIMESTAMP_FMT = "%Y/%m/%d/%H:%M:%S"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in pixel coordinates."""

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class DetectionSample:
    """One time-stamped bounding box of one entity seen by one camera."""

    camera_id: str
    time: float  # seconds
    entity_class: str
    track_id: str  # "" when untracked
    box: Rect


@dataclass(frozen=True)
class ZoneSpec:
    """A named location with its rectangle in the owning camera's frame."""

    location_id: str
    camera_id: str
    box: Rect
    category: str = ""


@dataclass(frozen=True)
class DetectionConfig:
    min_duration: float = 3.0
    min_overlap_ratio: float = 0.10
    sample_period: float = 1.0
    dedup_window: float = 2.0

    def __post_init__(self):
        if self.min_duration < 0:
            raise ConfigError("min_duration must be >= 0")
        if not 0.0 <= self.min_overlap_ratio <= 1.0:
            raise ConfigError("min_overlap_ratio must be in [0, 1]")
        if self.sample_period <= 0:
            raise ConfigError("sample_period must be > 0")
        if self.dedup_window < 0:
            raise ConfigError("dedup_window must be >= 0")


@dataclass(frozen=True, order=True)
class Occurrence:
    """One detected event: an entity started a task at a location."""

    start_time: float
    location_id: str
    entity_class: str
    track_id: str = ""  # "" when untracked

    @property
    def key(self) -> tuple:
        return (self.location_id, self.entity_class, self.track_id)


def overlap_ratio(entity_box: Rect, zone_box: Rect) -> float:
    """Fraction of the entity box covered by the zone.

    The denominator is the entity box area, so a small entity fully inside
    a large zone scores 1.0.
    """
    for name, box in (("entity_box", entity_box), ("zone_box", zone_box)):
        if box.area <= 0:
            raise DataError(f"{name} has non-positive area: {box}")
    ix = min(entity_box.x + entity_box.w, zone_box.x + zone_box.w) - max(
        entity_box.x, zone_box.x
    )
    iy = min(entity_box.y + entity_box.h, zone_box.y + zone_box.h) - max(
        entity_box.y, zone_box.y
    )
    if ix <= 0 or iy <= 0:
        return 0.0
    return (ix * iy) / entity_box.area


@dataclass
class _Run:
    start: float
    last: float
    emitted: bool = False


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
    """
    samples = list(samples)

    seen = {}
    for loc in zones:
        key = (loc.camera_id, loc.location_id)
        if key in seen:
            raise ConfigError(f"duplicate zone {loc.location_id!r} on camera {loc.camera_id!r}")
        seen[key] = loc
    if samples:
        cameras = {s.camera_id for s in samples}
        for loc in zones:
            if loc.camera_id not in cameras:
                raise ConfigError(
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


def merge_camera_streams(
    streams: Sequence[Sequence[Occurrence]], dedup_window: float
) -> list[Occurrence]:
    """Merge per-camera occurrence streams into one time-ordered stream.

    Occurrences with identical (location, class, track) whose start times
    differ by at most dedup_window collapse to the earliest one.
    """
    if dedup_window < 0:
        raise DataError("dedup_window must be >= 0")
    merged = sorted(occ for stream in streams for occ in stream)
    out: list[Occurrence] = []
    last_kept: dict[tuple, float] = {}
    for occ in merged:
        prev = last_kept.get(occ.key)
        if prev is not None and occ.start_time - prev <= dedup_window:
            continue
        out.append(occ)
        last_kept[occ.key] = occ.start_time
    return out


def detect_streams(
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


# ---------------------------------------------------------------------------
# file formats

def parse_time(text: str) -> float:
    """Seconds-as-decimal or YYYY/MM/DD/hh:mm:ss -> epoch seconds."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            dt = datetime.strptime(text, TIMESTAMP_FMT)
        except ValueError as exc:
            raise DataError(f"unparseable time {text!r}: {exc}") from None
        return (dt - datetime(1970, 1, 1)).total_seconds()
    if not math.isfinite(value):
        raise DataError(f"time {text!r} is not finite")
    return value


def load_tracks_csv(path) -> list[DetectionSample]:
    """Read tracks from CSV with header camera_id,time,entity_class,track_id,x,y,w,h."""
    expected = ["camera_id", "time", "entity_class", "track_id", "x", "y", "w", "h"]
    samples = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != expected:
            raise DataError(
                f"{path}: expected header {','.join(expected)}, got "
                f"{','.join(reader.fieldnames or [])}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                samples.append(
                    DetectionSample(
                        camera_id=row["camera_id"],
                        time=parse_time(row["time"]),
                        entity_class=row["entity_class"],
                        track_id=row["track_id"],
                        box=Rect(
                            float(row["x"]), float(row["y"]),
                            float(row["w"]), float(row["h"]),
                        ),
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return samples


def load_zones_json(path) -> list[ZoneSpec]:
    """Read zones from a JSON array of {location_id, camera_id, x, y, w, h, category}."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON array of zones")
    zones = []
    for i, item in enumerate(raw):
        try:
            zones.append(
                ZoneSpec(
                    location_id=str(item["location_id"]),
                    camera_id=str(item["camera_id"]),
                    box=Rect(
                        float(item["x"]), float(item["y"]),
                        float(item["w"]), float(item["h"]),
                    ),
                    category=str(item.get("category", "")),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: zone #{i}: {exc}") from None
    return zones


def write_occurrences_csv(path, occurrences: Sequence[Occurrence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location_id", "entity_class", "track_id", "start_time"])
        for occ in occurrences:
            writer.writerow(
                [occ.location_id, occ.entity_class, occ.track_id, repr(occ.start_time)]
            )


def load_occurrences_csv(path) -> list[Occurrence]:
    occurrences = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["location_id", "entity_class", "track_id", "start_time"]
        if reader.fieldnames != expected:
            raise DataError(f"{path}: expected header {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                occurrences.append(
                    Occurrence(
                        start_time=parse_time(row["start_time"]),
                        location_id=row["location_id"],
                        entity_class=row["entity_class"],
                        track_id=row["track_id"],
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return occurrences
