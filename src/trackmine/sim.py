"""Synthetic cell-production scenarios: detection tracks plus ground truth.

Actors walk an itinerary of zones, dwelling at each zone center; the
simulator emits bounding-box samples (optionally jittered, with dropout)
and the ground-truth occurrence stream the detector should recover.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .eventlog import DetectionConfig, _name, _number, _reason, _string, checked, load_json
from .events import (DetectionSample, Rect, ZoneSpec, _collector_paused, check_unique_zones,
                     zone_from_json)
from .occurrences import Occurrence

TRAVEL_SPEED = 400.0  # pixels per second between zone centers
# the most samples a scenario may ask for, over all its actors and cameras; `trackmine
# simulate` holds about 450 bytes a sample at its peak (the records and the tracks CSV
# text), so about 0.9 GB at the bound, 40 times what the cell_shift benchmark asks for
MAX_SAMPLES = 2_000_000

# fixed per-class bounding-box sizes (pixels)
_BOX_SIZES = {
    "worker-left": (40.0, 40.0),
    "worker-right": (40.0, 40.0),
    "big-AGV": (80.0, 60.0),
    "small-AGV": (50.0, 40.0),
}
_DEFAULT_BOX = (40.0, 40.0)


class Actor(NamedTuple):
    """An actor who walks its itinerary; ``Scenario`` states its rules."""

    entity_class: str
    itinerary: tuple[tuple[str, float], ...]  # (location_id, dwell seconds)
    track_id: str = ""


@checked
class Scenario(NamedTuple):
    """A scenario whose ``_checked`` hook states every scenario rule, for one read from a
    file and one built in Python alike: numbers in range, an integer seed, zones that are
    ``events.ZoneSpec``s, and ``Actor``s whose names keep ``eventlog.name_ok`` and whose
    stops visit known locations.  It returns the record with float numbers, lists of zones
    and actors, tuple itineraries and distinct track ids, an empty one resolved to
    ``T<index>``; ``_make`` and ``_replace`` skip the hook."""

    zones: list[ZoneSpec]
    actors: list[Actor]
    jitter: float = 0.0  # position jitter, pixels (stddev)
    dropout: float = 0.0  # per-sample drop probability
    sample_period: float = 1.0
    seed: int = 0

    def _checked(self):
        jitter, dropout, period = map(_number, self[2:5], self._fields[2:5])
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise DataError("seed must be an integer")
        if not 0.0 <= dropout <= 1.0:
            raise DataError("dropout must be in [0, 1]")
        if not 0.0 <= jitter < math.inf:
            raise DataError("jitter must be finite and >= 0")
        if not 0.0 < period < math.inf:
            raise DataError("sample_period must be finite and > 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        zones = list(self.zones)
        if not all(map(isinstance, zones, repeat(ZoneSpec))):
            bad = next(z for z in zones if not isinstance(z, ZoneSpec))
            raise DataError(f"zone {bad!r} is not a ZoneSpec")
        check_unique_zones(zones)
        known = {z.location_id for z in zones}
        actors = []
        tracks: dict[str, int] = {}  # each track id, given or defaulted, and its actor's index
        per_camera = 0.0
        for index, actor in enumerate(self.actors):
            if not isinstance(actor, Actor):
                raise DataError(f"actor {actor!r} is not an Actor")
            _name(actor.entity_class, "entity_class")
            track_id = _name(actor.track_id, "track_id") or f"T{index}"
            first = tracks.setdefault(track_id, index)
            if first != index:
                raise DataError(f"track id {track_id!r} names actors #{first} and #{index}")
            name = repr(actor.track_id or actor.entity_class)
            itinerary = tuple((_string(loc, "location"), _number(dwell, "dwell"))
                              for loc, dwell in actor.itinerary)
            if not itinerary:
                raise DataError(f"actor {name} has an empty itinerary")
            for loc, dwell in itinerary:
                if loc not in known:
                    raise DataError(f"actor {name} visits unknown location {loc!r}")
                if not 0.0 < dwell < math.inf:
                    raise DataError(f"dwell at {loc!r} must be finite and > 0")
            actors.append(actor._replace(itinerary=itinerary, track_id=track_id))
            end = _clock(actors[-1], zones)[3][-1]
            if not np.isfinite(end):
                raise DataError(f"actor {name}: itinerary time overflows")
            per_camera += _sample_count(end, period)
        total = per_camera * len({z.camera_id for z in zones})
        if total > MAX_SAMPLES:
            raise DataError(f"the scenario asks for {total:.15g} samples; "
                            f"at most {MAX_SAMPLES} are allowed")
        return self._replace(zones=zones, actors=actors, jitter=jitter, dropout=dropout,
                             sample_period=period)


def _zone_center(zone: ZoneSpec) -> tuple[float, float]:
    return (zone.box.x + zone.box.w / 2.0, zone.box.y + zone.box.h / 2.0)


def _sample_count(end: float, period: float) -> float:
    """The samples of one actor on one camera: one each `period` from time 0
    through `end`, its last departure; inf past the float range."""
    return float(np.floor(float(end) / period)) + 1.0


def _clock(actor: Actor, zones: list[ZoneSpec]):
    """(x, y, arrival, departure) arrays over an actor's stops, at the centre of each location's
    first zone; a time past the float range is inf or nan."""
    centers = {}
    for z in zones:
        centers.setdefault(z.location_id, _zone_center(z))
    locs, dwells = zip(*actor.itinerary)
    cx, cy = np.array([centers[loc] for loc in locs]).T
    # cumsum over [0, dwell0, travel1, dwell1, ...] adds in sequence,
    # giving each stop's (arrival, departure)
    legs = np.zeros(2 * len(locs))
    legs[1::2] = dwells
    with np.errstate(over="ignore", invalid="ignore"):
        legs[2::2] = np.hypot(np.diff(cx), np.diff(cy)) / TRAVEL_SPEED
        arr, dep = np.cumsum(legs).reshape(-1, 2).T
    return cx, cy, arr, dep


@_collector_paused
def simulate(
    sc: Scenario, min_duration: float = DetectionConfig._field_defaults["min_duration"]
) -> tuple[list[DetectionSample], list[Occurrence]]:
    """Run the scenario; returns (samples, ground-truth occurrences), the
    samples in (camera, track, time) order.

    Each actor sample is emitted once per camera present in the scenario
    (overlapping-view cameras see the same pixel frame, and share one box);
    stream merging downstream collapses the duplicates.  An actor's track id,
    which ``Scenario`` resolves, names that actor alone.  Ground truth holds
    one occurrence per itinerary stop whose dwell reaches ``min_duration``,
    stamped with the arrival time at the zone.

    Positions come from one stop lookup per actor, and the noise from two
    draws per actor, in the order that fixes each seed's random stream: one
    ``rng.random(n)`` over the actor's n sample times for dropout, then one
    ``rng.normal`` of shape (2, samples kept), whose rows are the x and the
    y jitter.
    """
    if not min_duration >= 0:  # nan fails too
        raise DataError("min_duration must be >= 0")
    rng = np.random.default_rng(sc.seed)
    cameras = sorted({z.camera_id for z in sc.zones})

    truth: list[Occurrence] = []
    tracks: dict[str, tuple] = {}  # per track id, its actor's class, sample columns and box size
    for actor in sc.actors:
        track_id, cls = actor.track_id, actor.entity_class
        bw, bh = _BOX_SIZES.get(cls, _DEFAULT_BOX)
        cx, cy, arr, dep = _clock(actor, sc.zones)
        for (loc, dwell), start in zip(actor.itinerary, arr.tolist()):
            if dwell >= min_duration:
                truth.append(Occurrence(start, loc, cls, track_id))

        # k: the first stop the actor has not yet left (else the last one);
        # before its arrival the actor is on the way there from stop p
        at = np.arange(int(_sample_count(dep[-1], sc.sample_period))) * sc.sample_period
        k = np.minimum(np.searchsorted(dep, at), len(dep) - 1)
        p = np.maximum(k - 1, 0)
        # a zero-length leg gives 0/0 only in lanes where the actor is not moving
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (at - dep[p]) / (arr[k] - dep[p])
            moving = (k > 0) & (at < arr[k])
            xs = np.where(moving, cx[p] + frac * (cx[k] - cx[p]), cx[k])
            ys = np.where(moving, cy[p] + frac * (cy[k] - cy[p]), cy[k])
        if sc.dropout > 0:
            kept = rng.random(len(at)) >= sc.dropout
            at, xs, ys = at[kept], xs[kept], ys[kept]
        if sc.jitter > 0:
            dx, dy = rng.normal(0.0, sc.jitter, (2, len(at)))
            xs, ys = xs + dx, ys + dy
        tracks[track_id] = (cls, at.tolist(), (xs - bw / 2.0).tolist(),
                            (ys - bh / 2.0).tolist(), bw, bh)

    samples: list[DetectionSample] = []
    for cam in cameras:
        for track_id, (cls, times, x, y, w, h) in sorted(tracks.items()):
            samples += map(tuple.__new__, repeat(DetectionSample),
                           zip(repeat(cam), times, repeat(cls), repeat(track_id), x, y,
                               repeat(w), repeat(h)))
    truth.sort()
    return samples, truth


def cell_layout() -> list[ZoneSpec]:
    """A 19-zone layout on cameras cam1 and cam2: collaborative areas k1-k3,
    right-side individual areas s11-s17, left-side individual areas s21-s29.
    Both cameras declare every location (overlapping views)."""
    zone_size = 120.0
    gap = 200.0
    specs = []

    def add(loc: str, col: int, row: int, category: str):
        x, y = 100.0 + col * gap, 100.0 + row * gap
        for cam in ("cam1", "cam2"):
            specs.append(
                ZoneSpec(
                    location_id=loc,
                    camera_id=cam,
                    box=Rect(x, y, zone_size, zone_size),
                    category=category,
                )
            )

    for i in range(3):
        add(f"k{i + 1}", i + 2, 0, "collaborative")
    for i in range(7):
        add(f"s1{i + 1}", i, 1, "individual-right")
    for i in range(9):
        add(f"s2{i + 1}", i, 2, "individual-left")
    return specs


# ---------------------------------------------------------------------------
# JSON scenario files

def scenario_from_json(path) -> Scenario:
    """A scenario from a JSON object: ``zones`` (see ``events.zone_from_json``)
    or, in their place, ``"layout": "cell19"``; ``actors``, each with an
    ``entity_class``, an ``itinerary`` of ``[location_id, dwell]`` pairs and an
    optional ``track_id``; and optional ``noise`` (``{"jitter", "dropout"}``),
    ``sample_period`` and integer ``seed``.  Only the JSON shape is checked here;
    ``Scenario`` checks every value, and each error names the file."""
    raw = load_json(path)
    try:
        if not isinstance(raw, dict):
            raise DataError("expected a JSON object")
        noise = raw.get("noise", {})
        if not isinstance(noise, dict):
            raise DataError("noise must be a JSON object")
        layout = raw.get("layout")
        if layout is None:
            zones = [zone_from_json(z) for z in raw["zones"]]
        elif layout == "cell19" and "zones" not in raw:
            zones = cell_layout()
        else:
            raise DataError(f"layout must be null, or 'cell19' without zones; got {layout!r}")
        actors = [Actor(a["entity_class"], a["itinerary"], a.get("track_id", ""))
                  for a in raw["actors"]]
        return Scenario(zones, actors, noise.get("jitter", 0.0), noise.get("dropout", 0.0),
                        raw.get("sample_period", 1.0), raw.get("seed", 0))
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: bad scenario: {_reason(exc)}") from None
