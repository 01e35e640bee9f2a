import numpy as np
import pytest

from trackmine.errors import ConfigError
from trackmine.eventlog import precision
from trackmine.events import DetectionConfig, detect_streams
from trackmine.sim import Actor, Scenario, cell_layout, simulate


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
        assert simulate(sc) == simulate(sc)

    def test_sub_threshold_dwell_excluded_from_truth(self):
        sc = single_worker_scenario(dwell=1.0)
        samples, truth = simulate(sc, min_duration=3.0)
        assert truth == []
        assert detect_streams(samples, sc.zones, DetectionConfig()) == []

    def test_unknown_itinerary_location(self):
        with pytest.raises(ConfigError, match="nowhere"):
            Scenario(
                zones=cell_layout(),
                actors=[Actor(entity_class="worker-right", itinerary=(("nowhere", 5.0),))],
            )

    def test_samples_cover_both_cameras(self):
        samples, _ = simulate(single_worker_scenario())
        assert {s.camera_id for s in samples} == {"cam1", "cam2"}


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
