import copy
import csv
import gc
import hashlib
import io
import json
import math
import os
import pickle
import re
import threading
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from trackmine import events, sim
from trackmine.errors import DataError
from trackmine.eventlog import format_timestamp, parse_time, parse_timestamp
from trackmine.events import (
    _TRACKS_FIELDS,
    _overlap,
    DetectionConfig,
    DetectionSample,
    Rect,
    ZoneSpec,
    detect_events,
    detect_streams,
    load_tracks_csv,
    load_zones_json,
    tracks_to_csv,
    zones_to_json,
)
from trackmine.occurrences import Occurrence, merge_camera_streams

ZONE = ZoneSpec(location_id="s1", camera_id="cam1", box=Rect(0, 0, 100, 100))


def track(times, box, camera="cam1", cls="worker-right", tid="T1"):
    return [
        DetectionSample(camera, t, cls, tid, *box)
        for t in times
    ]


def overlap(entity: Rect, zone: Rect) -> float:
    """The detector's overlap kernel on one pair of boxes."""
    return float(_overlap(*np.array([*entity, *zone], dtype=float)))


class TestOverlapRatio:
    def test_identical_boxes(self):
        b = Rect(3, 4, 10, 20)
        assert overlap(b, b) == 1.0

    def test_disjoint(self):
        assert overlap(Rect(0, 0, 10, 10), Rect(50, 50, 10, 10)) == 0.0

    def test_half_overlap(self):
        # entity (0,0,10,10) vs zone (5,0,10,10): intersection 50 of 100
        assert overlap(Rect(0, 0, 10, 10), Rect(5, 0, 10, 10)) == pytest.approx(0.5)

    def test_denominator_is_entity_box(self):
        small = Rect(10, 10, 5, 5)
        big = Rect(0, 0, 100, 100)
        assert overlap(small, big) == 1.0
        assert overlap(big, small) == pytest.approx(25 / 10000)

    # an entity box and a zone box are both a Rect, which refuses a bad box
    # when it is built, so no overlap is ever taken with one
    def test_zero_area_rejected(self):
        for box in ((0, 0, 0, 10), (0, 0, 10, 0), (0, 0, 1e-200, 1e-200)):
            with pytest.raises(DataError, match=re.escape(
                    f"box {Rect._make(box)} has a non-positive width, height or area")):
                Rect(*box)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_rejected(self, bad, field):
        coords = [0.0, 0.0, 10.0, 10.0]
        coords[field] = bad
        with pytest.raises(DataError, match=re.escape(
                f"box {Rect._make(coords)} has a non-finite coordinate")):
            Rect(*coords)

    @given(
        x=st.floats(-50, 50), y=st.floats(-50, 50),
        w=st.floats(1, 40), h=st.floats(1, 40),
    )
    def test_always_a_fraction(self, x, y, w, h):
        r = overlap(Rect(x, y, w, h), Rect(0, 0, 30, 30))
        assert 0.0 <= r <= 1.0 + 1e-12

    @given(
        entity=st.tuples(st.floats(-50, 50), st.floats(-50, 50),
                         st.floats(1e-3, 40), st.floats(1e-3, 40)),
        zone=st.tuples(st.floats(-50, 50), st.floats(-50, 50),
                       st.floats(1e-3, 40), st.floats(1e-3, 40)),
    )
    def test_matches_scalar_oracle(self, entity, zone):
        got = overlap(Rect(*entity), Rect(*zone))
        assert repr(got) == repr(_oracles.overlap_ratio(Rect(*entity), Rect(*zone)))


class TestDetectEvents:
    def test_qualifying_dwell_backdates_start(self):
        box = Rect(0, 0, 50, 100)  # ratio 0.5 over the zone... actually 1.0
        samples = track([0, 1, 2, 3, 4, 5], Rect(25, 0, 50, 100))
        out = detect_events(samples, [ZONE], DetectionConfig())
        assert out == [
            Occurrence(start_time=0, location_id="s1", entity_class="worker-right",
                       track_id="T1")
        ]

    @pytest.mark.parametrize("which", ["zone", "entity"])
    def test_negative_width_and_height_rejected(self, which, tmp_path):
        # the square ZONE covers, spelled backwards, is refused by the reader
        # of its file, before detection
        flipped = {"x": 100, "y": 100, "w": -100, "h": -100}
        message = "box Rect(x=100.0, y=100.0, w=-100.0, h=-100.0) has a non-positive width"
        if which == "zone":
            path = tmp_path / "zones.json"
            path.write_text(json.dumps([{"location_id": "s1", "camera_id": "cam1", **flipped}]))
            want = f"{path}: zone #0: {message}"
            load = load_zones_json
        else:
            path = tmp_path / "tracks.csv"
            path.write_text(tracks_to_csv(track(range(2), Rect(25, 0, 50, 100)))
                            + "cam1,2.0,worker-right,T1,100,100,-100,-100\n")
            want = f"{path}:4: {message}"
            load = load_tracks_csv
        with pytest.raises(DataError, match=re.escape(want)):
            load(path)

    def test_short_crossing_not_logged(self):
        samples = track([0, 1], Rect(25, 0, 50, 100))
        assert detect_events(samples, [ZONE], DetectionConfig()) == []

    def test_empty_stream(self):
        assert detect_events([], [ZONE], DetectionConfig()) == []

    def test_retrigger_needs_drop_below_threshold(self):
        inside = Rect(10, 10, 40, 40)
        outside = Rect(500, 500, 40, 40)
        samples = track(range(8), inside) + track(
            range(8, 11), outside
        ) + track(range(11, 17), inside)
        samples.sort(key=lambda s: s.time)
        out = detect_events(samples, [ZONE], DetectionConfig())
        assert [o.start_time for o in out] == [0, 11]

    def test_single_gap_tolerated(self):
        inside = Rect(10, 10, 40, 40)
        samples = track([0, 1, 3, 4], inside)  # sample at t=2 dropped
        out = detect_events(samples, [ZONE], DetectionConfig())
        assert [o.start_time for o in out] == [0]

    def test_long_gap_breaks_run(self):
        inside = Rect(10, 10, 40, 40)
        samples = track([0, 1, 2, 6, 7, 8], inside)
        out = detect_events(samples, [ZONE], DetectionConfig(min_duration=2.0))
        assert [o.start_time for o in out] == [0, 6]

    def test_unsorted_rejected_with_position(self):
        inside = Rect(10, 10, 40, 40)
        samples = track([0, 2, 1], inside)
        with pytest.raises(DataError, match="position 2"):
            detect_events(samples, [ZONE], DetectionConfig())

    def test_zone_on_unknown_camera(self):
        samples = track([0, 1], Rect(10, 10, 40, 40))
        bad = ZoneSpec(location_id="s9", camera_id="nope", box=Rect(0, 0, 10, 10))
        with pytest.raises(DataError, match="nope"):
            detect_events(samples, [ZONE, bad], DetectionConfig())

    def test_start_times_are_sample_times(self):
        inside = Rect(10, 10, 40, 40)
        samples = track([0.5, 1.5, 2.5, 3.5, 4.5], inside)
        out = detect_events(samples, [ZONE], DetectionConfig())
        times = {s.time for s in samples}
        assert out
        assert all(o.start_time in times for o in out)
        assert all(type(o.start_time) is float for o in out)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_box_rejected(self, bad):
        # neither a sample's box nor a zone's can be built to reach detection
        with pytest.raises(DataError, match="^box .* has a non-finite coordinate$"):
            DetectionSample("cam1", 2, "worker-right", "T1", *Rect(bad, 10, 40, 40))
        with pytest.raises(DataError, match="^box .* has a non-finite coordinate$"):
            ZoneSpec("s1", "cam1", Rect(0, 0, bad, 100))

    def test_non_finite_time_rejected(self):
        samples = track([0, 1, math.nan, 3], Rect(10, 10, 40, 40))
        with pytest.raises(DataError, match="position 2 has a non-finite time"):
            detect_events(samples, [ZONE], DetectionConfig())

    def test_emission_order_breaks_signed_zero_ties(self):
        # two cameras see location s1; the run starting at -0.0 emits after
        # the one starting at 0.0, and the equal-comparing occurrences keep
        # that order through the final sort
        zones = [ZONE, ZoneSpec("s1", "cam2", Rect(0, 0, 100, 100))]
        inside = Rect(10, 10, 40, 40)
        samples = [
            DetectionSample("cam1", -0.0, "a", "T1", *inside),
            DetectionSample("cam2", 0.0, "a", "T1", *inside),
            DetectionSample("cam2", 1.0, "a", "T1", *inside),
            DetectionSample("cam1", 1.0, "a", "T1", *inside),
        ]
        cfg = DetectionConfig(min_duration=1.0)
        out = detect_events(samples, zones, cfg)
        assert [repr(o.start_time) for o in out] == ["0.0", "-0.0"]
        assert repr(out) == repr(_oracles.detect_events_loop(samples, zones, cfg))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


# Steps whose float sums give 0.1 + 0.2-style times, repeats (0.0) and gaps
# of exactly 2 * sample_period for both periods drawn below.
_STEPS = [0.0, 0.1, 0.2, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0]
_COORDS = [-10.0, 0.0, 0.1, 5.0, 10.0, 25.0, 60.0]
_SIZE = st.sampled_from([0.2, 5.0, 10.0, 10.0, 40.0, 100.0])
_RARE = st.sampled_from([False] * 19 + [True])
_BOX = st.builds(Rect, st.sampled_from(_COORDS), st.sampled_from(_COORDS), _SIZE, _SIZE)
_ZONE_SIZE = st.sampled_from([5.0, 40.0, 100.0])
_ZONE_BOX = st.builds(Rect, st.sampled_from(_COORDS), st.sampled_from(_COORDS),
                      _ZONE_SIZE, _ZONE_SIZE)


@st.composite
def _detection_case(draw):
    """Tracks that dwell on a box and sometimes jump, on one or two cameras,
    with rare duplicate zones and swapped samples."""
    cameras = ["c1", "c2"][: draw(st.integers(1, 2))]
    streams = draw(st.lists(
        st.tuples(st.sampled_from(cameras), st.sampled_from(["", "T1", "T2"]),
                  st.sampled_from(["a", "b"])),
        min_size=1, max_size=4,
    ))
    t0 = draw(st.sampled_from([-0.0, 0.0, 0.1, -1.5]))
    clock = {key[:2]: t0 for key in streams}  # the sort check is per (camera, track)
    box = {key: draw(_BOX) for key in streams}
    samples = []
    for _ in range(draw(st.integers(0, 30))):
        cam, tid, cls = key = draw(st.sampled_from(streams))
        clock[cam, tid] += draw(st.sampled_from(_STEPS))
        if draw(st.integers(0, 3)) == 0:
            box[key] = draw(_BOX)
        samples.append(DetectionSample(cam, clock[cam, tid], cls, tid, *box[key]))
    if samples and draw(_RARE):
        i, j = (draw(st.integers(0, len(samples) - 1)) for _ in range(2))
        samples[i], samples[j] = samples[j], samples[i]
    zones = draw(st.lists(
        st.builds(ZoneSpec, st.sampled_from(["L1", "L2", "L3"]),
                  st.sampled_from(cameras), _ZONE_BOX, st.just("")),
        min_size=1, max_size=3, unique_by=lambda z: (z.camera_id, z.location_id),
    ))
    if zones and draw(_RARE):
        zones.append(zones[0])
    cfg = DetectionConfig(
        min_duration=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
        min_overlap_ratio=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])),
        sample_period=draw(st.sampled_from([0.5, 1.0])),
    )
    return samples, zones, cfg


@given(_detection_case())
@settings(max_examples=400, deadline=None)
def test_detect_events_matches_loop_oracle(case):
    samples, zones, cfg = case
    assert _outcome(detect_events, samples, zones, cfg) == _outcome(
        _oracles.detect_events_loop, samples, zones, cfg
    )


def _returned(fn, *args):
    try:
        return fn(*args)
    except DataError:
        return None


def _zone_on_camera_without_samples(samples, zones):
    cameras = {s.camera_id for s in samples}
    return any(z.camera_id not in cameras for z in zones)


def _unsorted_track_on_unzoned_camera(samples, zones):
    zoned = {z.camera_id for z in zones}
    last = {}
    for s in samples:
        stream = (s.camera_id, s.track_id)
        if s.camera_id not in zoned and stream in last and s.time < last[stream]:
            return True
        last[stream] = s.time
    return False


@given(_detection_case())
@settings(max_examples=1000, deadline=None)
def test_detect_streams_matches_split_oracle(case):
    # one detect_events pass over every camera gives what the per-camera
    # split gave, and raises only on what the split never checked
    samples, zones, cfg = case
    got = _returned(detect_streams, samples, zones, cfg)
    want = _returned(_oracles.detect_streams_split, samples, zones, cfg)
    if want is None:
        assert got is None
    elif got is None:
        assert (_zone_on_camera_without_samples(samples, zones)
                or _unsorted_track_on_unzoned_camera(samples, zones))
    else:
        assert got == want  # == since signed zeros from two cameras may swap places


_INSIDE = Rect(10, 10, 40, 40)


@pytest.mark.parametrize("samples, zones, message", [
    # T2 sorts after T1 but its inversion comes first in the input
    (track([0, 2, 1], _INSIDE, tid="T2") + track([0, 2, 1], _INSIDE),
     [ZONE], "position 2 (camera 'cam1', track 'T2', 1 < 2)"),
], ids=["first_inversion_in_input_order"])
def test_detect_events_errors_match_loop_oracle(samples, zones, message):
    cfg = DetectionConfig()
    got = _outcome(detect_events, samples, zones, cfg)
    assert got == _outcome(_oracles.detect_events_loop, samples, zones, cfg)
    assert got.endswith(message)


def test_zones_reader_names_the_first_bad_zone(tmp_path):
    # the first of a camera's bad zones is named by the reader, which stops there
    path = tmp_path / "zones.json"
    path.write_text(json.dumps([{"location_id": "s1", "camera_id": "cam1", "x": 0, "y": 0,
                                 "w": 0, "h": 5},
                                {"location_id": "s2", "camera_id": "cam1", "x": 0, "y": 0,
                                 "w": 5, "h": -1}]))
    with pytest.raises(DataError, match=re.escape(
            f"{path}: zone #0: box Rect(x=0.0, y=0.0, w=0.0, h=5.0) has a non-positive width")):
        load_zones_json(path)


def test_tracks_reader_refuses_a_bad_box_on_a_camera_without_zones(tmp_path):
    # the reader refuses a bad box on every camera, whether or not detection reaches it
    path = tmp_path / "tracks.csv"
    path.write_text(tracks_to_csv(track([0, 1], _INSIDE))
                    + "cam2,0.0,a,T1,0.0,0.0,0.0,0.0\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:4: box Rect(x=0.0, y=0.0, w=0.0, h=0.0) has a non-positive width")):
        load_tracks_csv(path)


def _random_tracks(rng, n_tracks=100):
    """Dwell/travel motion with mild jitter, like real detector tracks."""
    tracks = []
    for i in range(n_tracks):
        boxes = []
        for _ in range(rng.integers(2, 5)):
            inside = rng.random() < 0.6
            if inside:
                x, y = rng.uniform(5, 55, size=2)
            else:
                x, y = rng.uniform(200, 400, size=2)
            dwell = int(rng.integers(1, 9))
            for _ in range(dwell):
                boxes.append(Rect(x + rng.normal(0, 2), y + rng.normal(0, 2), 40, 40))
        tracks.append(
            [
                DetectionSample("cam1", float(t), "worker-right", f"T{i}", *b)
                for t, b in enumerate(boxes)
            ]
        )
    return tracks


def test_monotone_in_thresholds():
    import numpy as np

    rng = np.random.default_rng(7)
    tracks = _random_tracks(rng)
    base = DetectionConfig(min_duration=3.0, min_overlap_ratio=0.10)
    for samples in tracks:
        n_base = len(detect_events(samples, [ZONE], base))
        for cfg in (
            DetectionConfig(min_duration=5.0, min_overlap_ratio=0.10),
            DetectionConfig(min_duration=3.0, min_overlap_ratio=0.30),
            DetectionConfig(min_duration=6.0, min_overlap_ratio=0.50),
        ):
            assert len(detect_events(samples, [ZONE], cfg)) <= n_base


def test_determinism():
    import numpy as np

    rng = np.random.default_rng(11)
    samples = _random_tracks(rng, n_tracks=5)[0]
    cfg = DetectionConfig()
    assert detect_events(samples, [ZONE], cfg) == detect_events(samples, [ZONE], cfg)


def test_detect_streams_merges_cameras():
    # the same track on two cameras' views of s1, one second apart,
    # collapses to the earlier start
    zones = [ZONE, ZoneSpec(location_id="s1", camera_id="cam2", box=Rect(200, 0, 100, 100))]
    samples = track(range(6), Rect(10, 10, 20, 20)) + track(
        range(1, 7), Rect(210, 10, 20, 20), camera="cam2"
    )
    cfg = DetectionConfig()
    assert len(detect_events(samples[6:], zones[1:], cfg)) == 1
    assert detect_streams(samples, zones, cfg) == [
        Occurrence(start_time=0, location_id="s1", entity_class="worker-right", track_id="T1")
    ]


# names by the one name rule: printable, none of ',;()"' and no whitespace at an end
_CSV_NAMES = st.text(st.sampled_from("a_-' \u00e9\u4e2d"), max_size=4).map(str.strip)
_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 1e-300, 0.1 + 0.2, -1.5]),
                    st.floats(allow_nan=False, allow_infinity=False))
# a width or height by the box rule: > 0, with products that underflow filtered out below
_SIDES = st.one_of(st.sampled_from([5e-324, 1e-300, 0.1 + 0.2, 1e308]),
                   st.floats(0, exclude_min=True, allow_infinity=False))
_RECTS = st.tuples(_FLOATS, _FLOATS, _SIDES, _SIDES).filter(
    lambda box: box[2] * box[3] > 0).map(lambda box: Rect(*box))


def _sample(camera, time, cls, track, box):
    """``DetectionSample`` with its x, y, w and h from one drawn box:
    ``st.builds(DetectionSample, ...)`` would draw each of the four alone."""
    return DetectionSample(camera, time, cls, track, *box)


# a sample the tracks readers take: a class or a track id, or both
_SAMPLES = st.builds(_sample, _CSV_NAMES, _FLOATS, _CSV_NAMES, _CSV_NAMES, _RECTS).filter(
    lambda s: s.entity_class or s.track_id)


@given(st.lists(_SAMPLES, max_size=6))
@settings(max_examples=200, deadline=None)
def test_tracks_csv_round_trip(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("tracks") / "tracks.csv"
    path.write_bytes(tracks_to_csv(samples).encode("utf-8"))
    # repr tells -0.0 from 0.0, which == does not
    assert repr(load_tracks_csv(path)) == repr(samples)


# any finite box, by the rule or not; coordinates and sides up to 1e300, so
# that no column sum of a few rows overflows and a plain file stays plain
_ANY_SIDE = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -100.0, 5e-324, 1e-200, 0.5, 100.0]),
                      st.floats(-1e300, 1e300))
_ANY_BOX = st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), _ANY_SIDE, _ANY_SIDE)


@given(st.lists(_ANY_BOX, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_every_reader_keeps_the_box_rule(tmp_path_factory, boxes):
    # a box with w > 0 and h > 0 (and w * h > 0) round-trips through the
    # column pass, the row reader and the zones JSON; any other box is
    # refused by each, with its prefix, at the first such box
    bad = [i for i, (_, _, w, h) in enumerate(boxes) if not (w > 0 and w * h > 0)]
    samples = [DetectionSample._make(("cam1", float(i), "h", "T1", *b)) for i, b in enumerate(boxes)]
    zones = [ZoneSpec(f"s{i}", "cam1", Rect._make(b)) for i, b in enumerate(boxes)]
    tmp = tmp_path_factory.mktemp("boxes")
    tracks, zones_json = tmp / "tracks.csv", tmp / "zones.json"
    tracks.write_text(tracks_to_csv(samples))
    zones_json.write_text(zones_to_json(zones))
    with open(tracks, newline="", encoding="utf-8-sig") as fh:
        by_columns = events._tracks_by_columns(fh)
    if not bad:
        with open(tracks, newline="", encoding="utf-8-sig") as fh:
            assert repr(events._tracks_by_rows(fh, tracks)) == repr(samples)
        # the column pass leaves a file to the row reader only where the least
        # width times the least height underflows, though no row's product does
        least = min(w for _, _, w, _ in boxes) * min(h for _, _, _, h in boxes)
        assert repr(by_columns) == repr(samples) or (by_columns is None and least == 0)
        assert repr(load_tracks_csv(tracks)) == repr(samples)
        assert repr(load_zones_json(zones_json)) == repr(zones)
        return
    assert by_columns is None  # left to the row reader's exact error
    message = re.escape(f"box {Rect._make(boxes[bad[0]])} has a non-positive width")
    with pytest.raises(DataError, match=f"^{re.escape(str(tracks))}:{bad[0] + 2}: {message}"):
        load_tracks_csv(tracks)
    with pytest.raises(DataError, match=f"^{re.escape(str(zones_json))}: zone #{bad[0]}: {message}"):
        load_zones_json(zones_json)


# any printable character but ',;()"', which no name holds, with no space at an end
_WRITER_NAMES = st.text(st.characters(exclude_categories=["C", "Zl", "Zp", "Zs"],
                                      exclude_characters=',;()"') | st.just(" "),
                        max_size=5).map(lambda name: name.strip(" "))


@given(st.lists(st.builds(_sample, _WRITER_NAMES, _FLOATS, _WRITER_NAMES, _WRITER_NAMES, _RECTS),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_tracks_csv_is_what_the_csv_writer_writes(samples):
    assert tracks_to_csv(samples) == _oracles.tracks_to_csv_writer(samples)


@pytest.mark.parametrize("row", ["cam1,0.5,h\0,T1,1,2,3,4", 'cam1,0.5,"h\0",T1,1,2,3,4'],
                         ids=["plain", "quoted"])
def test_tracks_csv_refuses_a_nul_id(tmp_path, row):
    # on every Python version, whether or not its csv reads a NUL; a scenario
    # refuses one too, so no writer is given one
    path = tmp_path / "tracks.csv"
    path.write_text(",".join(_TRACKS_FIELDS) + f"\ncam1,0,h,T1,1,2,3,4\n{row}\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "):
        load_tracks_csv(path)
    with pytest.raises(DataError, match="^entity_class 'h\\\\x00' is not a name: "):
        sim.Scenario(zones=sim.cell_layout(), actors=[sim.Actor("h\0", (("s11", 5.0),))])


@given(st.lists(st.builds(ZoneSpec, _CSV_NAMES.filter(bool), _CSV_NAMES, _RECTS, _CSV_NAMES),
                max_size=4, unique_by=lambda z: (z.camera_id, z.location_id)))
@settings(max_examples=200, deadline=None)
def test_zones_json_round_trip(tmp_path_factory, zones):
    path = tmp_path_factory.mktemp("zones") / "zones.json"
    path.write_bytes(zones_to_json(zones).encode("utf-8"))
    assert repr(load_zones_json(path)) == repr(zones)


# Fields for the tracks CSV reader: ids csv must quote, numbers float reads
# with and without padding or "_", finite values whose sum overflows,
# timestamps, and (at a rate drawn per file) non-finite values, text that is
# no number, and blank, short and long rows.
_ROW_IDS = st.text(st.sampled_from('c1,"\n\r _'), max_size=4)
_DECIMAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "-0", ".5", "5.", "1e308", "-1e308", "١٢"]),
)
_TIMESTAMP = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31)).flatmap(
    lambda ts: st.sampled_from([format_timestamp(ts), ts.isoformat("T"), ts.isoformat(" ")]))
_ODD = st.sampled_from(["nan", "inf", "-inf", "Infinity", "-NaN", "1e400", "1__0", "_1", "1_",
                        "0x10", "", "x", "2024/13/01/00:00:00"])
_PAD = st.sampled_from(["", "", "", " ", "\t"])


@st.composite
def _tracks_file(draw):
    odds = draw(st.sampled_from([4, 40, 1000]))  # one odd field or row in `odds`

    def odd_or(strategy, odd):
        return st.integers(0, odds).flatmap(lambda k: odd if k == 0 else strategy)

    def padded(strategy):
        return st.tuples(_PAD, strategy, _PAD).map("".join)

    time = padded(odd_or(st.one_of(_DECIMAL, _TIMESTAMP), _ODD))
    coord = padded(odd_or(_DECIMAL, _ODD))
    row = st.one_of(
        st.tuples(_ROW_IDS, time, _ROW_IDS, _ROW_IDS, coord, coord, coord, coord).map(list),
        st.builds(lambda c, t: [c, "1e308", "h", t, "1e308", "1e308", "1e308", "1e308"],
                  _ROW_IDS, _ROW_IDS),
    )
    row = odd_or(row, st.lists(st.one_of(_ROW_IDS, coord), max_size=10))
    header = list(_TRACKS_FIELDS)
    if draw(st.integers(0, odds)) == 0:
        header[draw(st.integers(0, 7))] = draw(st.sampled_from(["", "t", "Time", " time"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(draw(st.lists(row, max_size=8)))
    return buf.getvalue()


@given(_tracks_file())
# rows off the fast path that still load (a sum that overflows, a timestamp
# time) between blank CRLF lines, and a padded "_" number before a nan
@example(",".join(_TRACKS_FIELDS) + "\r\n\r\nc,1e308,h,T,1e308,1e308,1e308,1e308\r\n"
         "\r\nc,1970/01/01/00:01:00,h,T,0,0,1,1\r\n")
@example(",".join(_TRACKS_FIELDS) + "\nc, 1_0 ,h,T,1,2,3,4\nc,11,h,T,1,2,3,nan\n")
# an otherwise plain file with a row of neither class nor track id
@example(",".join(_TRACKS_FIELDS) + "\nc,1,h,T,0,0,1,1\nc,2,,,0,0,1,1\n")
@settings(max_examples=400, deadline=None)
def test_load_tracks_csv_matches_row_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tracks") / "tracks.csv"
    path.write_bytes(text.encode("utf-8"))
    # by repr, which tells -0.0 from 0.0
    assert _outcome(load_tracks_csv, path) == _outcome(_oracles.load_tracks_rows, path)


_ODD_ROW = 25_000  # the data row that `_long_tracks` replaces, well past the first chunk


def _sample_reprs(fn, path):
    """fn(path) as a list of one repr per sample, so that a failure reports
    the first sample that differs, or its DataError."""
    try:
        return list(map(repr, fn(path)))
    except DataError as exc:
        return f"DataError: {exc}"


def _long_tracks(odd_row=None, newline="\n"):
    """A tracks CSV of 30,000 plain rows, with `odd_row` in place of row _ODD_ROW.
    The ids are numbers, so that columns misaligned by one field would
    still convert, of two digits, so that no id is a cached 1-character
    string."""
    rows = [f"{10 + i % 2},{i * 0.5!r},99,{70 + i % 7},{i % 640}.25,12.5,40.0,40.0"
            for i in range(30_000)]
    if odd_row is not None:
        rows[_ODD_ROW] = odd_row
    text = newline.join([",".join(_TRACKS_FIELDS), *rows]) + newline
    assert len(newline.join(rows[:_ODD_ROW])) > 2 * events._CHUNK
    return text


@pytest.mark.parametrize("odd_row", [
    "cam1,1970/01/01/07:00:00,h,T1,0,0,10,10",
    "cam1,1e308,h,T1,1e308,1e308,1e308,1e308",
    '"cam1",5,h,"T1",0,0,10,10',
    "1,5,9,1,0,0,10,\r1,6,9,1,0,0,10,10",
    "cam1,٢٥,h,T1,0,0,10,10",
    "",
    "cam1,5,h," + "x" * 200_000 + ",0,0,10,10",
    "cam1,5,h,T1,0,nan,10,10",
], ids=["timestamp_time", "sum_overflows", "quoted_id", "lone_cr", "non_ascii_time",
        "blank_line", "field_over_csv_limit", "nan_coordinate"])
def test_odd_row_past_the_first_chunk_matches_row_oracle(tmp_path, odd_row):
    path = tmp_path / "tracks.csv"
    path.write_bytes(_long_tracks(odd_row).encode("utf-8"))
    want = _sample_reprs(_oracles.load_tracks_rows, path)
    assert _sample_reprs(load_tracks_csv, path) == want
    if isinstance(want, str):
        # the header is line 1, so data row k is on line k + 2
        assert want.startswith(f"DataError: {path}:{_ODD_ROW + 2}: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_plain_file_loads_in_column_passes(tmp_path, monkeypatch, newline):
    path = tmp_path / "tracks.csv"
    path.write_bytes(_long_tracks(newline=newline).encode("utf-8"))
    want = _sample_reprs(_oracles.load_tracks_rows, path)
    monkeypatch.setattr(events, "_tracks_by_rows", None)  # a refused file would call it
    samples = load_tracks_csv(path)
    assert list(map(repr, samples)) == want
    # each distinct id is one string object
    for field, distinct in (("camera_id", 2), ("entity_class", 1), ("track_id", 7)):
        assert len({id(getattr(s, field)) for s in samples}) == distinct


def _feed(fd, data):
    """Write `data` to the pipe `fd` and close it, or stop when its reader has."""
    try:
        with open(fd, "wb") as pipe:
            pipe.write(data)
    except BrokenPipeError:
        pass


@pytest.mark.parametrize("odd_row", [None, "cam1,1970/01/01/07:00:00,h,T1,0,0,10,10",
                                     "cam1,5,h,T1,0,nan,10,10"],
                         ids=["plain", "timestamp_time", "nan_coordinate"])
def test_pipe_loads_as_its_file_does(tmp_path, odd_row):
    # a pipe cannot be read again, so it never starts a column pass
    data = _long_tracks(odd_row).encode("utf-8")
    path = tmp_path / "tracks.csv"
    path.write_bytes(data)
    want = _sample_reprs(_oracles.load_tracks_rows, path)
    pipe_path, got = _load_through_pipe(data)
    assert got == (want.replace(str(path), pipe_path) if isinstance(want, str) else want)


def _load_through_pipe(data):
    """(the pipe's path, load_tracks_csv on `data` written to that pipe as
    ``_sample_reprs`` gives it)."""
    r, w = os.pipe()
    writer = threading.Thread(target=_feed, args=(w, data))
    writer.start()
    try:
        got = _sample_reprs(load_tracks_csv, f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=60)
    assert not writer.is_alive()
    return f"/dev/fd/{r}", got


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("odd_row, pipe", [
    (None, False),
    ("cam1,1970/01/01/07:00:00,h,T1,0,0,10,10", False),
    ("cam1,5,h,T1,0,nan,10,10", False),
    (None, True),
    ("cam1,5,h,T1,0,nan,10,10", True),
], ids=["plain", "row_path", "data_error", "pipe", "pipe_data_error"])
def test_load_restores_the_collector(tmp_path, odd_row, pipe, collecting):
    data = _long_tracks(odd_row).encode("utf-8")
    path = tmp_path / "tracks.csv"
    path.write_bytes(data)
    (gc.enable if collecting else gc.disable)()
    try:
        got = _load_through_pipe(data)[1] if pipe else _sample_reprs(load_tracks_csv, path)
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert isinstance(got, str) is (odd_row is not None and "nan" in odd_row)


@pytest.mark.parametrize("build", ["load", "simulate"])
def test_building_samples_runs_no_collection(tmp_path, build):
    # 5,000 samples either way: a 5,000-row plain file, or one actor seen
    # 2,500 times by each of two cameras
    path = tmp_path / "tracks.csv"
    path.write_text("".join(_long_tracks().splitlines(keepends=True)[:5001]))
    sc = sim.Scenario(zones=sim.cell_layout(), actors=[sim.Actor("h", (("s11", 2499.0),))])
    run = (lambda: load_tracks_csv(path)) if build == "load" else (lambda: sim.simulate(sc)[0])
    started = []
    loading = [True]

    def on_collect(phase, info):
        if phase == "start" and loading[0]:
            started.append(info["generation"])

    gc.collect()  # no collection is due on the way in
    gc.callbacks.append(on_collect)
    try:
        samples = run()
        # a store allocates nothing, so the young pass that the samples take
        # once the collector is back comes after this line
        loading[0] = False
    finally:
        gc.callbacks.remove(on_collect)
    assert len(samples) == 5000
    assert started == []


class TestRecordTypes:
    @pytest.mark.parametrize("record, field", [
        (Rect(0, 0, 1, 1), "x"),
        (DetectionSample("c", 0.0, "h", "T", *Rect(0, 0, 1, 1)), "time"),
        (DetectionSample("c", 0.0, "h", "T", *Rect(0, 0, 1, 1)), "box"),
    ])
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)

    @pytest.mark.parametrize("build", ["columns", "rows", "simulate"])
    def test_a_sample_is_one_tracked_object(self, tmp_path, monkeypatch, build):
        # its box is four floats held inline, so the collector tracks the sample
        # alone, not a box beside it
        path = tmp_path / "tracks.csv"
        camera = '"cam1"' if build == "rows" else "cam1"  # a quoted id takes the row reader
        path.write_text(",".join(_TRACKS_FIELDS) + f"\n{camera},0.5,h,T1,1,2,3,4\n")
        if build == "columns":
            monkeypatch.setattr(events, "_tracks_by_rows", None)  # a refused file would call it
        if build == "simulate":
            sc = sim.Scenario(zones=sim.cell_layout(), actors=[sim.Actor("h", (("s11", 2.0),))])
            (s, *_), _ = sim.simulate(sc)
        else:
            (s,) = load_tracks_csv(path)
        assert list(map(type, s)) == [str, float, str, str, float, float, float, float]
        assert not any(map(gc.is_tracked, s))
        assert type(s.box) is Rect and s.box == Rect(s.x, s.y, s.w, s.h)

    @pytest.mark.parametrize("box, message", [
        ((0.0, 0.0, 0.0, 1.0), "box Rect(x=0.0, y=0.0, w=0.0, h=1.0) has a non-positive width, "
                               "height or area"),
        ((0.0, 0.0, 1.0, -1.0), "box Rect(x=0.0, y=0.0, w=1.0, h=-1.0) has a non-positive width, "
                                "height or area"),
        ((math.nan, 0.0, 1.0, 1.0), "box Rect(x=nan, y=0.0, w=1.0, h=1.0) has a non-finite "
                                    "coordinate"),
    ], ids=["zero_width", "negative_height", "nan_x"])
    def test_sample_refuses_what_rect_refuses(self, box, message):
        for build in (lambda: Rect(*box), lambda: DetectionSample("c", 0.0, "h", "T", *box)):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                build()
        # _make skips the check
        assert DetectionSample._make(("c", 0.0, "h", "T", *box)).box == Rect._make(box)

    def test_sample_copies_and_pickles(self):
        s = DetectionSample("c", 0.5, "h", "T", 1.0, 2.0, 3.0, 4.0)
        assert copy.deepcopy(s) == pickle.loads(pickle.dumps(s)) == s
        assert type(pickle.loads(pickle.dumps(s))) is DetectionSample

    def test_tracks_header_is_the_sample_fields(self):
        assert _TRACKS_FIELDS == list(DetectionSample._fields)

    def test_cell_layout_zones_json_bytes(self):
        text = zones_to_json(sim.cell_layout())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "913b58dcf8b14beebd3f8d9b2a57ffd9be97bd32870e4a963aa4cdb5dadbf4b5")

    def test_simulated_cell_tracks_csv_bytes(self):
        # the benchmark's cell_shift scenario in small: 16 actors on the
        # 19-zone layout, random zones and dwells, jitter and dropout
        rng = np.random.default_rng(7)
        zones = sim.cell_layout()
        locations = sorted({z.location_id for z in zones})
        classes = ["worker-right", "worker-left", "big-AGV", "small-AGV"]
        actors = []
        for i in range(16):
            itinerary, prev = [], None
            for _ in range(20):
                loc = prev
                while loc == prev:
                    loc = locations[int(rng.integers(len(locations)))]
                itinerary.append((loc, round(float(rng.uniform(2.0, 10.0)), 3)))
                prev = loc
            actors.append(sim.Actor(classes[i % 4], tuple(itinerary), f"T{i}"))
        samples, _ = sim.simulate(sim.Scenario(zones=zones, actors=actors, jitter=2.0,
                                               dropout=0.05, seed=7))
        assert len(samples) == 4630
        assert hashlib.sha256(tracks_to_csv(samples).encode("utf-8")).hexdigest() == (
            "ff867e38945076720ff7e8850d4471ab37e26ee709a2c843c15791c142142047")

    def test_simulated_cell_tracks_load_in_column_passes(self, tmp_path, monkeypatch):
        # jittered samples with dropout gaps over more than two chunks, as `simulate`
        # writes them: a change that sent such a file down the row path, which gives
        # the same samples more slowly, would leave every other test passing
        zones = sim.cell_layout()
        locations = sorted({z.location_id for z in zones})
        classes = ["worker-right", "worker-left", "big-AGV", "small-AGV"]
        actors = [sim.Actor(cls, tuple((loc, 300.0) for loc in locations[i::4]))
                  for i, cls in enumerate(classes)]
        samples, _ = sim.simulate(sim.Scenario(zones=zones, actors=actors, jitter=2.0,
                                               dropout=0.05, seed=7))
        path = tmp_path / "tracks.csv"
        path.write_text(tracks_to_csv(samples), encoding="utf-8")
        assert path.stat().st_size > 2 * events._CHUNK
        monkeypatch.setattr(events, "_tracks_by_rows", None)  # a refused chunk would call it
        assert repr(load_tracks_csv(path)) == repr(samples)


class TestMerge:
    def occ(self, t, loc="s1", cls="worker-right", tid="T1"):
        return Occurrence(start_time=t, location_id=loc, entity_class=cls, track_id=tid)

    def test_dedup_keeps_earliest(self):
        a, b = [self.occ(10.0)], [self.occ(10.5)]
        assert merge_camera_streams([a, b], dedup_window=2.0) == [self.occ(10.0)]

    def test_disjoint_locations_retained(self):
        a, b = [self.occ(10.0, loc="s1")], [self.occ(9.0, loc="s2")]
        merged = merge_camera_streams([a, b], dedup_window=2.0)
        assert merged == [self.occ(9.0, loc="s2"), self.occ(10.0, loc="s1")]

    def test_idempotent(self):
        stream = [self.occ(1.0), self.occ(8.0, loc="s2"), self.occ(20.0)]
        assert merge_camera_streams([stream, stream], 2.0) == stream

    def test_commutative(self):
        a = [self.occ(1.0), self.occ(5.0, loc="s2")]
        b = [self.occ(1.4), self.occ(9.0, loc="s3")]
        assert merge_camera_streams([a, b], 1.0) == merge_camera_streams([b, a], 1.0)

    @given(
        times=st.lists(st.floats(0, 100), min_size=0, max_size=20),
        window=st.floats(0, 5),
    )
    @settings(max_examples=60)
    def test_merge_commutes_property(self, times, window):
        a = [self.occ(round(t, 3)) for t in sorted(times[: len(times) // 2])]
        b = [self.occ(round(t, 3)) for t in sorted(times[len(times) // 2:])]
        assert merge_camera_streams([a, b], window) == merge_camera_streams([b, a], window)


def test_parse_time_formats():
    assert parse_time("12.5") == 12.5
    assert parse_time("1970/01/01/00:01:00") == 60.0
    with pytest.raises(DataError):
        parse_time("yesterday")
    assert parse_time(" 1970-01-01T00:01:00 ") == 60.0


@pytest.mark.parametrize("text", ["2024/08/15/17:40:50", "2024-08-15T17:40:50",
                                  "2024-08-15 17:40:50", " 2024/08/15/17:40:50\n",
                                  "2024/08/15/17:40:50.000000"])
def test_parse_timestamp_forms(text):
    assert parse_timestamp(text) == datetime(2024, 8, 15, 17, 40, 50)


@pytest.mark.parametrize("text", [
    "2024/13/15/10:00:00", "2024-02-30T10:00:00", "2024/08/15/24:00:00",  # out of range
    "2024/8/15/10:00:00", "2024/08/15/1:2:3", "24/08/15/10:00:00",  # not zero-padded
    "2024/08/15T10:00:00", "2024-08-15/10:00:00", "2024-08-15  10:00:00",  # mixed forms
    "2024/08/15/10:00:00.5", "2024/08/15/10:00:00.0000005", "x", "",  # six fraction digits
    "\uff12\uff10\uff12\uff14/08/15/10:00:00", "2024-08-15T10:00:0\uff10",  # ASCII digits only
    "\u0662\u0660\u0662\u0664/08/15/10:00:00",
])
def test_parse_timestamp_rejects(text):
    with pytest.raises(DataError) as exc:
        parse_timestamp(text)
    assert str(exc.value) == f"unparseable timestamp {text.strip()!r}"


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", " NaN "])
def test_parse_time_rejects_non_finite(text):
    with pytest.raises(DataError, match="not finite"):
        parse_time(text)
