"""Synthetic cell-production scenarios: detection tracks plus ground truth.

Actors walk an itinerary of zones, dwelling at each zone center; the
simulator emits bounding-box samples (optionally jittered, with dropout)
and the ground-truth occurrence stream the detector should recover.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .eventlog import DetectionConfig, Occurrence, _number, _reason, _string, load_json
from .events import (DetectionSample, Rect, ZoneSpec, _collector_paused, check_unique_zones,
                     zone_from_json)

TRAVEL_SPEED = 400.0  # pixels per second between zone centers

# fixed per-class bounding-box sizes (pixels)
_BOX_SIZES = {
    "worker-left": (40.0, 40.0),
    "worker-right": (40.0, 40.0),
    "big-AGV": (80.0, 60.0),
    "small-AGV": (50.0, 40.0),
}
_DEFAULT_BOX = (40.0, 40.0)


class Actor(NamedTuple):
    entity_class: str
    itinerary: tuple[tuple[str, float], ...]  # (location_id, dwell seconds)
    track_id: str = ""


class _ScenarioFields(NamedTuple):
    zones: list[ZoneSpec]
    actors: list[Actor]
    jitter: float = 0.0  # position jitter, pixels (stddev)
    dropout: float = 0.0  # per-sample drop probability
    sample_period: float = 1.0
    seed: int = 0


class Scenario(_ScenarioFields):
    """A checked scenario; ``_make`` and ``_replace`` skip the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.dropout <= 1.0:
            raise DataError("dropout must be in [0, 1]")
        if not 0.0 <= self.jitter < math.inf:
            raise DataError("jitter must be finite and >= 0")
        if not 0.0 < self.sample_period < math.inf:
            raise DataError("sample_period must be finite and > 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        check_unique_zones(self.zones)
        known = {z.location_id for z in self.zones}
        for actor in self.actors:
            name = repr(actor.track_id or actor.entity_class)
            if not actor.itinerary:
                raise DataError(f"actor {name} has an empty itinerary")
            for loc, dwell in actor.itinerary:
                if loc not in known:
                    raise DataError(f"actor {name} visits unknown location {loc!r}")
                if not 0.0 < dwell < math.inf:
                    raise DataError(f"dwell at {loc!r} must be finite and > 0")
            if not np.isfinite(_clock(actor, self.zones)[3][-1]):
                raise DataError(f"actor {name}: itinerary time overflows")
        return self


def _zone_center(zone: ZoneSpec) -> tuple[float, float]:
    return (zone.box.x + zone.box.w / 2.0, zone.box.y + zone.box.h / 2.0)


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
    """Run the scenario; returns (samples, ground-truth occurrences).

    Each actor sample is emitted once per camera present in the scenario
    (overlapping-view cameras see the same pixel frame); stream merging
    downstream collapses the duplicates.  Ground truth holds one
    occurrence per itinerary stop whose dwell reaches ``min_duration``,
    stamped with the arrival time at the zone.

    Positions come from one stop lookup per actor; only the noise draws
    run per sample, dropout first and then the x and y jitter, so each
    seed gives the same random stream.
    """
    if not min_duration >= 0:  # nan fails too
        raise DataError("min_duration must be >= 0")
    rng = np.random.default_rng(sc.seed)
    cameras = sorted({z.camera_id for z in sc.zones})

    samples: list[DetectionSample] = []
    truth: list[Occurrence] = []
    for idx, actor in enumerate(sc.actors):
        track_id = actor.track_id or f"T{idx}"
        bw, bh = _BOX_SIZES.get(actor.entity_class, _DEFAULT_BOX)
        cx, cy, arr, dep = _clock(actor, sc.zones)
        for (loc, dwell), start in zip(actor.itinerary, arr.tolist()):
            if dwell >= min_duration:
                truth.append(Occurrence(start, loc, actor.entity_class, track_id))

        # k: the first stop the actor has not yet left (else the last one);
        # before its arrival the actor is on the way there from stop p
        at = np.arange(int(np.floor(dep[-1] / sc.sample_period)) + 1) * sc.sample_period
        k = np.minimum(np.searchsorted(dep, at), len(dep) - 1)
        p = np.maximum(k - 1, 0)
        # a zero-length leg gives 0/0 only in lanes where the actor is not moving
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (at - dep[p]) / (arr[k] - dep[p])
            moving = (k > 0) & (at < arr[k])
            xs = np.where(moving, cx[p] + frac * (cx[k] - cx[p]), cx[k])
            ys = np.where(moving, cy[p] + frac * (cy[k] - cy[p]), cy[k])
        for t, x, y in zip(at.tolist(), xs.tolist(), ys.tolist()):
            if sc.dropout > 0 and rng.random() < sc.dropout:
                continue
            if sc.jitter > 0:
                x += rng.normal(0.0, sc.jitter)
                y += rng.normal(0.0, sc.jitter)
            box = Rect(x - bw / 2.0, y - bh / 2.0, bw, bh)
            samples.extend(DetectionSample(cam, t, actor.entity_class, track_id, box)
                           for cam in cameras)
    samples.sort(key=lambda s: (s.camera_id, s.track_id, s.time))
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
    ``sample_period`` and integer ``seed``."""
    raw = load_json(path)
    try:
        if not isinstance(raw, dict):
            raise DataError("expected a JSON object")
        noise = raw.get("noise", {})
        if not isinstance(noise, dict):
            raise DataError("noise must be a JSON object")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise DataError("seed must be an integer")
        layout = raw.get("layout")
        if layout is None:
            zones = [zone_from_json(z) for z in raw["zones"]]
        elif layout == "cell19" and "zones" not in raw:
            zones = cell_layout()
        else:
            raise DataError(f"layout must be null, or 'cell19' without zones; got {layout!r}")
        actors = [
            Actor(
                entity_class=_string(a["entity_class"], "entity_class"),
                itinerary=tuple((_string(loc, "location"), _number(dwell, "dwell"))
                                for loc, dwell in a["itinerary"]),
                track_id=_string(a.get("track_id", ""), "track_id"),
            )
            for a in raw["actors"]
        ]
        return Scenario(
            zones=zones,
            actors=actors,
            jitter=_number(noise.get("jitter", 0.0), "jitter"),
            dropout=_number(noise.get("dropout", 0.0), "dropout"),
            sample_period=_number(raw.get("sample_period", 1.0), "sample_period"),
            seed=seed,
        )
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: bad scenario: {_reason(exc)}") from None
