"""Synthetic cell-production scenarios: detection tracks plus ground truth.

Actors walk an itinerary of zones, dwelling at each zone center; the
simulator emits bounding-box samples (optionally jittered, with dropout)
and the ground-truth occurrence stream the detector should recover.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .eventlog import Occurrence
from .events import (DetectionConfig, DetectionSample, Rect, ZoneSpec, check_unique_zones,
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


@dataclass(frozen=True)
class Actor:
    entity_class: str
    itinerary: tuple[tuple[str, float], ...]  # (location_id, dwell seconds)
    track_id: str = ""


@dataclass
class Scenario:
    zones: list[ZoneSpec]
    actors: list[Actor]
    jitter: float = 0.0  # position jitter, pixels (stddev)
    dropout: float = 0.0  # per-sample drop probability
    sample_period: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigError("dropout must be in [0, 1]")
        if not 0.0 <= self.jitter < math.inf:
            raise ConfigError("jitter must be finite and >= 0")
        if not 0.0 < self.sample_period < math.inf:
            raise ConfigError("sample_period must be finite and > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        check_unique_zones(self.zones)
        known = {z.location_id for z in self.zones}
        for actor in self.actors:
            name = repr(actor.track_id or actor.entity_class)
            if not actor.itinerary:
                raise ConfigError(f"actor {name} has an empty itinerary")
            for loc, dwell in actor.itinerary:
                if loc not in known:
                    raise ConfigError(f"actor {name} visits unknown location {loc!r}")
                if not 0.0 < dwell < math.inf:
                    raise ConfigError(f"dwell at {loc!r} must be finite and > 0")


def _zone_center(zone: ZoneSpec) -> tuple[float, float]:
    return (zone.box.x + zone.box.w / 2.0, zone.box.y + zone.box.h / 2.0)


def simulate(
    sc: Scenario, min_duration: float = DetectionConfig.min_duration
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
        locs, dwells = zip(*actor.itinerary)
        cx, cy = np.array([centers[loc] for loc in locs]).T
        # the clock: cumsum over [0, dwell0, travel1, dwell1, ...] adds in
        # sequence, giving each stop's (arrival, departure)
        legs = np.zeros(2 * len(locs))
        legs[1::2] = dwells
        with np.errstate(over="ignore", invalid="ignore"):
            legs[2::2] = np.hypot(np.diff(cx), np.diff(cy)) / TRAVEL_SPEED
            arr, dep = np.cumsum(legs).reshape(-1, 2).T
        if not np.isfinite(dep[-1]):
            raise ConfigError(f"actor {track_id!r}: itinerary time overflows")
        for loc, dwell, start in zip(locs, dwells, arr.tolist()):
            if dwell >= min_duration:
                truth.append(Occurrence(start, loc, actor.entity_class, track_id))

        # k: the first stop the actor has not yet left (else the last one);
        # before its arrival the actor is on the way there from stop p
        at = np.arange(int(np.floor(dep[-1] / sc.sample_period)) + 1) * sc.sample_period
        k = np.minimum(np.searchsorted(dep, at), len(locs) - 1)
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


def cell_layout(camera_ids: tuple[str, str] = ("cam1", "cam2")) -> list[ZoneSpec]:
    """A 19-zone two-camera layout: collaborative areas k1-k3, right-side
    individual areas s11-s17, left-side individual areas s21-s29.  Both
    cameras declare every location (overlapping views)."""
    zone_size = 120.0
    gap = 200.0
    specs = []

    def add(loc: str, col: int, row: int, category: str):
        x, y = 100.0 + col * gap, 100.0 + row * gap
        for cam in camera_ids:
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

def _number(value, what: str) -> float:
    # float() alone would also take a string or a boolean
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{what} must be a number")
    return float(value)


def scenario_from_json(path) -> Scenario:
    """A scenario from a JSON object: ``zones`` (see ``events.zone_from_json``)
    or ``"layout": "cell19"``; ``actors``, each with an ``entity_class``, an
    ``itinerary`` of ``[location_id, dwell]`` pairs and an optional
    ``track_id``; and optional ``noise`` (``{"jitter", "dropout"}``),
    ``sample_period`` and integer ``seed``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    try:
        if not isinstance(raw, dict):
            raise DataError("expected a JSON object")
        noise = raw.get("noise", {})
        if not isinstance(noise, dict):
            raise DataError("noise must be a JSON object")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise DataError("seed must be an integer")
        if raw.get("layout") == "cell19":
            zones = cell_layout()
        else:
            zones = [zone_from_json(z) for z in raw["zones"]]
        actors = [
            Actor(
                entity_class=str(a["entity_class"]),
                itinerary=tuple((str(loc), _number(dwell, "dwell"))
                                for loc, dwell in a["itinerary"]),
                track_id=str(a.get("track_id", "")),
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
        raise DataError(f"{path}: bad scenario: {exc}") from None
