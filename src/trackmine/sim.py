"""Synthetic cell-production scenarios: detection tracks plus ground truth.

Actors walk an itinerary of zones, dwelling at each zone center; the
simulator emits bounding-box samples (optionally jittered, with dropout)
and the ground-truth occurrence stream the detector should recover.
"""

from __future__ import annotations

import json
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
        if self.jitter < 0:
            raise ConfigError("jitter must be >= 0")
        if self.sample_period <= 0:
            raise ConfigError("sample_period must be > 0")
        check_unique_zones(self.zones)
        known = {z.location_id for z in self.zones}
        for actor in self.actors:
            for loc, dwell in actor.itinerary:
                if loc not in known:
                    raise ConfigError(
                        f"actor {actor.track_id or actor.entity_class!r} visits "
                        f"unknown location {loc!r}"
                    )
                if dwell <= 0:
                    raise ConfigError(f"dwell at {loc!r} must be > 0")


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
        for step in range(n_steps):
            at = step * sc.sample_period
            if sc.dropout > 0 and rng.random() < sc.dropout:
                continue
            x, y = position(at)
            if sc.jitter > 0:
                x += rng.normal(0.0, sc.jitter)
                y += rng.normal(0.0, sc.jitter)
            box = Rect(x - bw / 2.0, y - bh / 2.0, bw, bh)
            for cam in cameras:
                samples.append(
                    DetectionSample(
                        camera_id=cam,
                        time=at,
                        entity_class=actor.entity_class,
                        track_id=track_id,
                        box=box,
                    )
                )
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

def scenario_from_json(path) -> Scenario:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    try:
        if raw.get("layout") == "cell19":
            zones = cell_layout()
        else:
            zones = [zone_from_json(z) for z in raw["zones"]]
        actors = [
            Actor(
                entity_class=str(a["entity_class"]),
                itinerary=tuple((str(loc), float(dwell)) for loc, dwell in a["itinerary"]),
                track_id=str(a.get("track_id", "")),
            )
            for a in raw["actors"]
        ]
        noise = raw.get("noise", {})
        return Scenario(
            zones=zones,
            actors=actors,
            jitter=float(noise.get("jitter", 0.0)),
            dropout=float(noise.get("dropout", 0.0)),
            sample_period=float(raw.get("sample_period", 1.0)),
            seed=int(raw.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: bad scenario: {exc}") from None
