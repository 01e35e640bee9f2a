import gc
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import simulate_loop
from trackmine.errors import DataError
from trackmine.eventlog import precision
from trackmine.events import DetectionConfig, detect_streams, zone_from_json
from trackmine.sim import MAX_SAMPLES, _BOX_SIZES, Actor, Scenario, cell_layout, simulate


def single_worker_scenario(dwell=5.0, **noise):
    return Scenario(
        zones=cell_layout(),
        actors=[Actor(entity_class="worker-right", itinerary=(("s11", dwell),))],
        **noise,
    )


class TestSimulate:
    def test_single_stop_ground_truth(self):
        _, truth = simulate(single_worker_scenario())
        assert len(truth) == 1
        occ = truth[0]
        assert occ.location_id == "s11"
        assert occ.entity_class == "worker-right"
        assert occ.start_time == 0.0

    def test_deterministic_per_seed(self):
        sc = single_worker_scenario(jitter=3.0, dropout=0.2, seed=42)
        assert repr(simulate(sc)) == repr(simulate(sc))
        assert simulate(sc)[0] != simulate(sc._replace(seed=43))[0]

    def test_full_dropout_gives_no_samples(self):
        samples, truth = simulate(single_worker_scenario(jitter=3.0, dropout=1.0, seed=3))
        assert samples == []
        assert len(truth) == 1

    def test_noise_falls_in_its_statistical_band(self):
        # 20,001 sample times at one zone centre: about 16,000 kept, so the
        # bands are many standard errors wide
        sc = single_worker_scenario(dwell=20_000.0, jitter=3.0, dropout=0.2, seed=5)
        samples, _ = simulate(sc)
        cam1 = [s for s in samples if s.camera_id == "cam1"]
        assert [s.box for s in samples if s.camera_id == "cam2"] == [s.box for s in cam1]
        assert 0.17 < 1 - len(cam1) / 20_001 < 0.23
        (zone,) = {z.box for z in sc.zones if z.location_id == "s11"}
        w, h = _BOX_SIZES["worker-right"]
        dx = np.array([s.box.x + w / 2 - (zone.x + zone.w / 2) for s in cam1])
        dy = np.array([s.box.y + h / 2 - (zone.y + zone.h / 2) for s in cam1])
        for d in (dx, dy):
            assert abs(d.mean()) < 0.2
            assert 2.7 < d.std() < 3.3
        assert abs(np.corrcoef(dx, dy)[0, 1]) < 0.05

    def test_sample_count_is_bounded(self):
        # one actor seen by both cameras: floor(dwell / sample_period) + 1 samples each
        dwell = MAX_SAMPLES // 2 - 1.0
        single_worker_scenario(dwell=dwell)
        with pytest.raises(DataError, match=f"asks for {MAX_SAMPLES + 2} samples"):
            single_worker_scenario(dwell=dwell + 1.0)

    def test_sub_threshold_dwell_excluded_from_truth(self):
        sc = single_worker_scenario(dwell=1.0)
        samples, truth = simulate(sc, min_duration=3.0)
        assert truth == []
        assert detect_streams(samples, sc.zones, DetectionConfig()) == []

    def test_unknown_itinerary_location(self):
        with pytest.raises(DataError, match="nowhere"):
            Scenario(
                zones=cell_layout(),
                actors=[Actor(entity_class="worker-right", itinerary=(("nowhere", 5.0),))],
            )

    @pytest.mark.parametrize("ids, message", [
        (("T1", "T1"), "track id 'T1' names actors #0 and #1"),
        (("", "T0"), "track id 'T0' names actors #0 and #1"),
        (("T1", ""), "track id 'T1' names actors #0 and #1"),
    ], ids=["given_twice", "given_equals_default", "default_equals_given"])
    def test_track_id_names_one_actor(self, ids, message):
        actors = [Actor("worker-left", (("s21", 5.0),), track_id) for track_id in ids]
        with pytest.raises(DataError) as exc:
            Scenario(zones=cell_layout(), actors=actors)
        assert str(exc.value) == message

    def test_samples_cover_both_cameras(self):
        samples, _ = simulate(single_worker_scenario())
        assert {s.camera_id for s in samples} == {"cam1", "cam2"}


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("min_duration", [3.0, math.nan], ids=["returns", "raises"])
def test_simulate_restores_the_collector(collecting, min_duration):
    sc = single_worker_scenario(jitter=3.0, dropout=0.2, seed=42)
    (gc.enable if collecting else gc.disable)()
    try:
        try:
            samples, _ = simulate(sc, min_duration=min_duration)
        except DataError:
            samples = None
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert (samples is None) is math.isnan(min_duration)


def two_worker_two_agv_scenario(**noise):
    return Scenario(
        zones=cell_layout(),
        actors=[
            Actor("worker-right", (("s11", 6.0), ("s14", 8.0), ("k3", 5.0), ("s15", 7.0))),
            Actor("worker-left", (("s21", 6.0), ("s23", 9.0), ("k3", 5.0), ("s27", 6.0))),
            Actor("big-AGV", (("s23", 10.0), ("s12", 8.0))),
            Actor("small-AGV", (("s14", 10.0), ("k3", 6.0))),
        ],
        **noise,
    )


class TestRoundTrip:
    def test_zero_noise_precision_one(self):
        sc = two_worker_two_agv_scenario()
        samples, truth = simulate(sc)
        detected = detect_streams(samples, sc.zones, DetectionConfig())
        assert len(detected) == len(truth)
        assert precision(detected, truth, match_window=2.0) == 1.0

    def test_dropout_degrades_precision(self):
        cfg = DetectionConfig()
        averages = []
        for dropout in (0.0, 0.15, 0.35):
            values = []
            for seed in range(25):
                sc = two_worker_two_agv_scenario(dropout=dropout, seed=seed)
                samples, truth = simulate(sc)
                detected = detect_streams(samples, sc.zones, cfg)
                values.append(precision(detected, truth, match_window=2.0))
            averages.append(float(np.mean(values)))
        assert averages[0] >= averages[1] >= averages[2]
        assert averages[0] == 1.0


# a pixel coordinate as JSON spells it, with up to two decimals
_COORD = st.integers(0, 200_000).map(lambda n: json.loads(f"{n // 100}.{n % 100:02d}"))
_SIDE = _COORD.filter(lambda v: v > 0)  # a width or height by the box rule


@st.composite
def _scenarios(draw):
    """1-5 zones on 1-2 cameras and 1-3 actors of 1-7 stops, which may
    repeat a zone back to back (a zero-length leg)."""
    zones = []
    for i in range(draw(st.integers(1, 5))):
        for cam in draw(st.sampled_from([["cam1"], ["cam2"], ["cam1", "cam2"]])):
            zones.append(zone_from_json({"location_id": f"z{i}", "camera_id": cam,
                                         "x": draw(_COORD), "y": draw(_COORD),
                                         "w": draw(_SIDE), "h": draw(_SIDE)}))
    locations = sorted({z.location_id for z in zones})
    dwells = st.sampled_from([0.5, 1.0, 2.5, 3.0, 5.5, 7.25]) | st.floats(0.05, 10.0)
    actors = [Actor(draw(st.sampled_from([*_BOX_SIZES, "h"])),
                    tuple(draw(st.lists(st.tuples(st.sampled_from(locations), dwells),
                                        min_size=1, max_size=7))),
                    draw(st.sampled_from(["", f"T9{i}"])))
              for i in range(draw(st.integers(1, 3)))]
    return Scenario(zones=zones, actors=actors,
                    jitter=draw(st.sampled_from([0.0, 2.0])),
                    dropout=draw(st.sampled_from([0.0, 0.1, 1.0])),
                    sample_period=draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.3, 2.0])
                                       | st.floats(0.1, 2.0)),
                    seed=draw(st.integers(0, 2**32)))


@given(_scenarios(), st.sampled_from([0.0, 3.0, 5.5]))
@settings(max_examples=300, deadline=None)
def test_array_sampling_matches_the_waypoint_scan(sc, min_duration):
    # the same samples and truth to the last bit, in the same order, and
    # with no warning from the lanes the moving mask drops
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, truth = simulate(sc, min_duration)
    expected_samples, expected_truth = simulate_loop(sc, min_duration)
    assert repr(samples) == repr(expected_samples)
    assert repr(truth) == repr(expected_truth)
